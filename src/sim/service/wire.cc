/**
 * @file
 * Entry codec, the version-1 rows text and JobSpec construction.
 */

#include "sim/service/wire.hh"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace specint::service
{

using experiment::Row;
using experiment::RunOptions;
using experiment::Value;

namespace
{

constexpr std::string_view kVersionLine = "specsim-cache v2";

/** A cell's type letter, in both formats. */
char
tagOf(const Value &v)
{
    return "siurb"[static_cast<int>(v.kind())]; // Value::Kind order
}

/** %.17g round-trips every double exactly. */
std::string
realText(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

void
putText(std::string &out, std::string_view s)
{
    out += std::to_string(s.size());
    out += ' ';
    out += s;
    out += '\n';
}

/** Cursor over an entry's bytes. Each read consumes one field and its
 *  terminator, and returns false on anything malformed. */
struct Reader
{
    std::string_view rest;

    /** The bytes up to the next @p end, which is consumed too. */
    bool
    token(std::string_view &out, char end = '\n')
    {
        const std::size_t n = rest.find(end);
        if (n == std::string_view::npos)
            return false;
        out = rest.substr(0, n);
        rest.remove_prefix(n + 1);
        return true;
    }

    template <typename T>
    bool
    number(T &out, char end = '\n', int base = 10)
    {
        std::string_view t;
        if (!token(t, end))
            return false;
        const auto [p, ec] =
            std::from_chars(t.data(), t.data() + t.size(), out, base);
        return ec == std::errc() && p == t.data() + t.size();
    }

    bool
    text(std::string &out)
    {
        std::size_t n = 0;
        if (!number(n, ' ') || rest.size() <= n || rest[n] != '\n')
            return false;
        out.assign(rest.data(), n);
        rest.remove_prefix(n + 1);
        return true;
    }

    bool
    cell(Value &out)
    {
        std::string_view tag;
        if (!token(tag, ' ') || tag.size() != 1)
            return false;
        switch (tag[0]) {
          case 's': {
            std::string s;
            if (!text(s))
                return false;
            out = Value::str(std::move(s));
            return true;
          }
          case 'i': {
            std::int64_t v = 0;
            if (!number(v))
                return false;
            out = Value::integer(v);
            return true;
          }
          case 'u': {
            std::uint64_t v = 0;
            if (!number(v))
                return false;
            out = Value::uinteger(v);
            return true;
          }
          case 'r': {
            int precision = 0;
            std::string_view t;
            if (!number(precision, ' ') || !token(t))
                return false;
            const std::string s(t);
            errno = 0;
            char *tail = nullptr;
            const double d = std::strtod(s.c_str(), &tail);
            if (s.empty() || errno != 0 || *tail != '\0')
                return false;
            out = Value::real(d, precision);
            return true;
          }
          case 'b': {
            std::string_view t;
            if (!token(t) || (t != "0" && t != "1"))
                return false;
            out = Value::boolean(t == "1");
            return true;
          }
        }
        return false;
    }
};

} // namespace

std::uint64_t
fnv1a64(std::string_view data, std::uint64_t basis)
{
    std::uint64_t h = basis;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
encodeEntry(const std::string &key, const std::vector<Row> &rows,
            const std::string &legacy)
{
    std::string body;
    putText(body, legacy);
    body += std::to_string(rows.size()) + '\n';
    for (const Row &row : rows) {
        body += std::to_string(row.size()) + '\n';
        for (const Value &v : row) {
            body += tagOf(v);
            body += ' ';
            if (v.kind() == Value::Kind::Str)
                putText(body, v.strValue());
            else if (v.kind() == Value::Kind::Real)
                body += std::to_string(v.precision()) + ' ' +
                        realText(v.realValue()) + '\n';
            else // i, u and b: text() is exact
                body += v.text() + '\n';
        }
    }

    std::string out(kVersionLine);
    out += '\n';
    putText(out, key);
    char sum[24];
    std::snprintf(sum, sizeof(sum), "%016llx\n",
                  static_cast<unsigned long long>(fnv1a64(body)));
    return out + sum + body;
}

const char *
decodeEntry(const std::string &entry, const std::string &key,
            std::vector<Row> &rows, std::string &legacy)
{
    Reader in{entry};
    std::string_view version;
    if (!in.token(version) || version != kVersionLine)
        return "unknown version";
    std::string entry_key;
    if (!in.text(entry_key))
        return "unparseable";
    if (entry_key != key)
        return "key mismatch";
    std::uint64_t sum = 0;
    if (!in.number(sum, '\n', 16) || sum != fnv1a64(in.rest))
        return "checksum mismatch";

    std::size_t n_rows = 0;
    if (!in.text(legacy) || !in.number(n_rows))
        return "unparseable";
    rows.clear();
    for (std::size_t r = 0; r < n_rows; ++r) {
        std::size_t n_cells = 0;
        if (!in.number(n_cells))
            return "unparseable";
        Row &row = rows.emplace_back();
        for (std::size_t c = 0; c < n_cells; ++c)
            if (!in.cell(row.emplace_back()))
                return "unparseable";
    }
    return in.rest.empty() ? nullptr : "unparseable";
}

RowsText
encodeRows(const std::vector<Row> &rows)
{
    // Object keys in sorted order, as the version-1 entries held them.
    std::string out = "[";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        out += r ? ",[" : "[";
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
            const Value &v = rows[r][c];
            out += c ? ",{" : "{";
            if (v.kind() == Value::Kind::Real)
                out += "\"p\":" + std::to_string(v.precision()) +
                       ",\"t\":\"r\",\"v\":" +
                       experiment::jsonEscape(realText(v.realValue()));
            else
                out += std::string("\"t\":\"") + tagOf(v) +
                       "\",\"v\":" + v.json();
            out += '}';
        }
        out += ']';
    }
    return {out + "]"};
}

JobSpec
JobSpec::fromOptions(const std::string &scenario_name,
                     const RunOptions &opt)
{
    JobSpec spec;
    spec.scenario = scenario_name;
    spec.trials = opt.trials;
    spec.seed = opt.seed;
    spec.extra = opt.extra;
    return spec;
}

} // namespace specint::service
