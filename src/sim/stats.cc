/**
 * @file
 * Statistics implementation: counters, sample distributions,
 * fixed-bucket histograms, and the plain-text table/histogram renderers
 * the benches print.
 */

#include "sim/stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace specint
{

void
SampleStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    sumSq_ += x * x;
    samples_.push_back(x);
    sorted_ = false;
}

double
SampleStat::mean() const
{
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
}

double
SampleStat::stddev() const
{
    if (n_ < 2)
        return 0.0;
    const double n = static_cast<double>(n_);
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
SampleStat::percentile(double q) const
{
    // Defined on every state: with nothing added yet there is no
    // distribution to index, so return 0.0 like mean()/stddev() do
    // instead of tripping UB.
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void
SampleStat::reset()
{
    n_ = 0;
    sum_ = sumSq_ = min_ = max_ = 0.0;
    samples_.clear();
    sorted_ = false;
}

void
Histogram::add(std::uint64_t x)
{
    ++n_;
    ++buckets_[(x / bucketWidth_) * bucketWidth_];
}

std::uint64_t
Histogram::modeBucket() const
{
    std::uint64_t best = 0;
    std::uint64_t best_count = 0;
    for (const auto &[base, count] : buckets_) {
        if (count > best_count) {
            best_count = count;
            best = base;
        }
    }
    return best;
}

std::string
Histogram::render(const std::string &label, unsigned bar_width) const
{
    std::ostringstream os;
    os << label << " (n=" << n_ << ")\n";
    std::uint64_t peak = 0;
    for (const auto &[base, count] : buckets_)
        peak = std::max(peak, count);
    if (peak == 0)
        return os.str();
    for (const auto &[base, count] : buckets_) {
        const unsigned len = static_cast<unsigned>(
            (count * bar_width + peak - 1) / peak);
        os << "  " << base;
        for (unsigned pad = std::to_string(base).size(); pad < 8; ++pad)
            os << ' ';
        os << "| " << std::string(len, '#') << ' ' << count << '\n';
    }
    return os.str();
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{}

void
TextTable::addRow(std::vector<std::string> row)
{
    assert(row.size() == header_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](std::ostringstream &os,
                        const std::vector<std::string> &row) {
        os << "| ";
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c]
               << std::string(widths[c] - row[c].size(), ' ')
               << " | ";
        }
        os << '\n';
    };

    std::ostringstream os;
    emit_row(os, header_);
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c)
        os << std::string(widths[c] + 2, '-') << '|';
    os << '\n';
    for (const auto &row : rows_)
        emit_row(os, row);
    return os.str();
}

std::string
fmtDouble(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

} // namespace specint
