/**
 * @file
 * Minimal JSON parser/serializer implementation for the result cache.
 */

#include "sim/service/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/experiment/value.hh"

namespace specint::service
{

Json
Json::boolean(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.b_ = v;
    return j;
}

Json
Json::uinteger(std::uint64_t v)
{
    Json j;
    j.kind_ = Kind::UInt;
    j.u_ = v;
    return j;
}

Json
Json::integer(std::int64_t v)
{
    if (v >= 0)
        return uinteger(static_cast<std::uint64_t>(v));
    Json j;
    j.kind_ = Kind::Int;
    j.i_ = v;
    return j;
}

Json
Json::real(double v)
{
    Json j;
    j.kind_ = Kind::Real;
    j.d_ = v;
    return j;
}

Json
Json::str(std::string v)
{
    Json j;
    j.kind_ = Kind::Str;
    j.s_ = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Arr;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Obj;
    return j;
}

std::uint64_t
Json::u64() const
{
    switch (kind_) {
      case Kind::UInt:
        return u_;
      case Kind::Int:
        return static_cast<std::uint64_t>(i_);
      case Kind::Real:
        return static_cast<std::uint64_t>(d_);
      default:
        return 0;
    }
}

std::int64_t
Json::i64() const
{
    switch (kind_) {
      case Kind::UInt:
        return static_cast<std::int64_t>(u_);
      case Kind::Int:
        return i_;
      case Kind::Real:
        return static_cast<std::int64_t>(d_);
      default:
        return 0;
    }
}

double
Json::num() const
{
    switch (kind_) {
      case Kind::UInt:
        return static_cast<double>(u_);
      case Kind::Int:
        return static_cast<double>(i_);
      case Kind::Real:
        return d_;
      default:
        return 0.0;
    }
}

void
Json::set(const std::string &key, Json v)
{
    kind_ = Kind::Obj;
    obj_[key] = std::move(v);
}

const Json &
Json::get(const std::string &key) const
{
    static const Json null_value;
    auto it = obj_.find(key);
    return it == obj_.end() ? null_value : it->second;
}

std::uint64_t
Json::getU64(const std::string &key, std::uint64_t fallback) const
{
    const Json &v = get(key);
    return v.isNumber() ? v.u64() : fallback;
}

std::string
Json::getStr(const std::string &key, std::string fallback) const
{
    const Json &v = get(key);
    return v.isStr() ? v.strValue() : std::move(fallback);
}

std::string
Json::dump() const
{
    switch (kind_) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return b_ ? "true" : "false";
      case Kind::UInt:
        return std::to_string(u_);
      case Kind::Int:
        return std::to_string(i_);
      case Kind::Real: {
        if (!std::isfinite(d_))
            return "null";
        // 17 significant digits round-trip every double exactly.
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", d_);
        return buf;
      }
      case Kind::Str:
        return experiment::jsonEscape(s_);
      case Kind::Arr: {
        std::string out = "[";
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            out += arr_[i].dump();
        }
        out += ']';
        return out;
      }
      case Kind::Obj: {
        std::string out = "{";
        bool first = true;
        for (const auto &[k, v] : obj_) {
            if (!first)
                out += ',';
            first = false;
            out += experiment::jsonEscape(k) + ":" + v.dump();
        }
        out += '}';
        return out;
      }
    }
    return "null";
}

namespace
{

/** Recursive-descent parser state over the input string. */
struct Parser
{
    const char *p;
    const char *end;
    std::string error;
    int depth = 0;

    static constexpr int kMaxDepth = 64;

    bool fail(const std::string &msg)
    {
        if (error.empty())
            error = msg;
        return false;
    }

    void skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool literal(const char *text)
    {
        const char *q = text;
        const char *save = p;
        while (*q) {
            if (p >= end || *p != *q) {
                p = save;
                return false;
            }
            ++p;
            ++q;
        }
        return true;
    }

    bool parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end)
                return fail("truncated escape");
            char e = *p++;
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (end - p < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = *p++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("malformed \\u escape");
                }
                // The cache only ever emits \u00XX control-char
                // escapes; decode the BMP point as UTF-8 so foreign
                // producers still round-trip.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool parseNumber(Json &out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        bool integral = true;
        while (p < end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                *p == '-')) {
            if (*p == '.' || *p == 'e' || *p == 'E')
                integral = false;
            ++p;
        }
        const std::string token(start, p);
        if (token.empty() || token == "-")
            return fail("malformed number");
        errno = 0;
        if (integral) {
            char *tail = nullptr;
            if (token[0] == '-') {
                const long long v =
                    std::strtoll(token.c_str(), &tail, 10);
                if (errno == 0 && tail && *tail == '\0') {
                    out = Json::integer(v);
                    return true;
                }
            } else {
                const unsigned long long v =
                    std::strtoull(token.c_str(), &tail, 10);
                if (errno == 0 && tail && *tail == '\0') {
                    out = Json::uinteger(v);
                    return true;
                }
            }
            errno = 0; // overflow: fall through to double
        }
        char *tail = nullptr;
        const double d = std::strtod(token.c_str(), &tail);
        if (errno != 0 || !tail || *tail != '\0')
            return fail("malformed number '" + token + "'");
        out = Json::real(d);
        return true;
    }

    bool parseValue(Json &out)
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        bool ok = false;
        if (*p == '{') {
            ++p;
            out = Json::object();
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                ok = true;
            } else {
                while (true) {
                    skipWs();
                    std::string key;
                    if (!parseString(key))
                        return false;
                    skipWs();
                    if (p >= end || *p != ':')
                        return fail("expected ':'");
                    ++p;
                    Json v;
                    if (!parseValue(v))
                        return false;
                    out.set(key, std::move(v));
                    skipWs();
                    if (p < end && *p == ',') {
                        ++p;
                        continue;
                    }
                    if (p < end && *p == '}') {
                        ++p;
                        ok = true;
                    }
                    break;
                }
                if (!ok)
                    return fail("expected ',' or '}'");
            }
        } else if (*p == '[') {
            ++p;
            out = Json::array();
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                ok = true;
            } else {
                while (true) {
                    Json v;
                    if (!parseValue(v))
                        return false;
                    out.push(std::move(v));
                    skipWs();
                    if (p < end && *p == ',') {
                        ++p;
                        continue;
                    }
                    if (p < end && *p == ']') {
                        ++p;
                        ok = true;
                    }
                    break;
                }
                if (!ok)
                    return fail("expected ',' or ']'");
            }
        } else if (*p == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json::str(std::move(s));
            ok = true;
        } else if (literal("null")) {
            out = Json::null();
            ok = true;
        } else if (literal("true")) {
            out = Json::boolean(true);
            ok = true;
        } else if (literal("false")) {
            out = Json::boolean(false);
            ok = true;
        } else {
            ok = parseNumber(out);
        }
        --depth;
        return ok;
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    Json result;
    if (!parser.parseValue(result)) {
        if (error)
            *error = parser.error.empty() ? "parse error"
                                          : parser.error;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (error)
            *error = "trailing garbage after JSON value";
        return false;
    }
    out = std::move(result);
    return true;
}

} // namespace specint::service
