/**
 * @file
 * Report emitters: aligned table, CSV, JSON, and file output.
 */

#include "sim/experiment/report.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "sim/stats.hh"

namespace specint::experiment
{

std::vector<Row>
Report::allRows() const
{
    std::vector<Row> rows;
    for (const ReportPoint &p : points)
        rows.insert(rows.end(), p.rows.begin(), p.rows.end());
    return rows;
}

std::uint64_t
Report::cpuUs() const
{
    std::uint64_t sum = 0;
    for (const ReportPoint &p : points)
        sum += p.durationUs;
    return sum;
}

std::string
Report::renderTable() const
{
    TextTable table(columns);
    for (const ReportPoint &p : points) {
        for (const Row &row : p.rows) {
            std::vector<std::string> cells;
            cells.reserve(row.size());
            for (const Value &v : row)
                cells.push_back(v.text());
            table.addRow(std::move(cells));
        }
    }
    return table.render();
}

std::string
Report::renderCsv() const
{
    std::string out;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out += ',';
        out += columns[i];
    }
    out += '\n';
    for (const ReportPoint &p : points) {
        for (const Row &row : p.rows) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                if (i)
                    out += ',';
                out += row[i].text();
            }
            out += '\n';
        }
    }
    return out;
}

std::string
Report::renderJson() const
{
    std::string out = "{\n";
    out += "  \"scenario\": " + jsonEscape(scenario) + ",\n";
    out += "  \"trials\": " + std::to_string(trials) + ",\n";
    out += "  \"seed\": " + std::to_string(seed) + ",\n";
    out += "  \"jobs\": " + std::to_string(jobs) + ",\n";
    out += "  \"points\": " + std::to_string(points.size()) + ",\n";
    out += "  \"wall_us\": " + std::to_string(wallUs) + ",\n";
    out += "  \"cpu_us\": " + std::to_string(cpuUs()) + ",\n";
    if (cacheEnabled) {
        // Only cache-backed runs emit this block, so default JSON
        // output stays byte-identical with caching off. Consumers
        // (scripts/check_bench_regression.py) use it to recognise
        // warm timings that must not be treated as measurements.
        out += "  \"cache\": {\"hits\": " + std::to_string(cacheHits) +
               ", \"misses\": " + std::to_string(cacheMisses) + "},\n";
    }
    if (!profile.empty()) {
        // Only profiled runs emit this block, so default JSON output
        // stays byte-identical with profiling off.
        out += "  \"profile\": [";
        for (std::size_t i = 0; i < profile.size(); ++i) {
            if (i)
                out += ", ";
            out += "{\"phase\": " + jsonEscape(profile[i].name) +
                   ", \"count\": " + std::to_string(profile[i].count) +
                   ", \"total_us\": " +
                   std::to_string(profile[i].totalUs) + "}";
        }
        out += "],\n";
    }
    out += "  \"columns\": [";
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonEscape(columns[i]);
    }
    out += "],\n  \"rows\": [\n";
    bool first = true;
    for (const ReportPoint &p : points) {
        for (const Row &row : p.rows) {
            if (!first)
                out += ",\n";
            first = false;
            out += "    {";
            for (std::size_t i = 0;
                 i < row.size() && i < columns.size(); ++i) {
                if (i)
                    out += ", ";
                out += jsonEscape(columns[i]) + ": " + row[i].json();
            }
            out += "}";
        }
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
Report::renderProfile() const
{
    if (profile.empty())
        return "";
    std::string out =
        "[profile] " + scenario + ": wall " +
        fmtDouble(static_cast<double>(wallUs) / 1000.0, 1) +
        " ms, cpu " +
        fmtDouble(static_cast<double>(cpuUs()) / 1000.0, 1) +
        " ms on " + std::to_string(jobs) + " job(s)\n";

    TextTable phases({"phase", "count", "total_ms", "mean_us"});
    for (const ProfilePhase &p : profile) {
        phases.addRow(
            {p.name, std::to_string(p.count),
             fmtDouble(static_cast<double>(p.totalUs) / 1000.0, 2),
             fmtDouble(p.count ? static_cast<double>(p.totalUs) /
                                     static_cast<double>(p.count)
                               : 0.0,
                       1)});
    }
    out += phases.render();

    TextTable pts({"point", "cpu_ms"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string label = std::to_string(i);
        const SweepPoint &pt = points[i].point;
        for (std::size_t a = 0; a < pt.axisNames().size(); ++a) {
            label += ' ';
            label += pt.axisNames()[a] + "=" + pt.values()[a];
        }
        pts.addRow({label,
                    fmtDouble(static_cast<double>(
                                  points[i].durationUs) /
                                  1000.0,
                              2)});
    }
    out += pts.render();
    return out;
}

bool
writeOut(const std::string &path, const std::string &text)
{
    const bool is_stdout = path.empty() || path == "-";
    std::FILE *f = stdout;
    if (!is_stdout) {
        // Create missing parent directories: an --out into a fresh
        // results/ tree must not fail after a full sweep has run.
        const std::filesystem::path parent =
            std::filesystem::path(path).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
            if (ec) {
                std::fprintf(stderr,
                             "error: cannot create directory '%s': %s\n",
                             parent.string().c_str(),
                             ec.message().c_str());
                return false;
            }
        }
        f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                         path.c_str());
            return false;
        }
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    // A buffered write can fail only when it is flushed (a full disk,
    // a closed pipe), so the flush's result is the write's result.
    if (is_stdout)
        ok = std::fflush(stdout) == 0 && !std::ferror(stdout) && ok;
    else
        ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     is_stdout ? "<stdout>" : path.c_str());
    return ok;
}

} // namespace specint::experiment
