/**
 * @file
 * Lightweight statistics package: counters, sample distributions and
 * fixed-bucket histograms, plus plain-text table/histogram rendering
 * used by the benchmark harnesses to print paper-style rows/series.
 */

#ifndef SPECINT_SIM_STATS_HH
#define SPECINT_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specint
{

/**
 * Sample distribution: mean, variance, min/max, and the raw samples
 * for percentile queries.
 */
class SampleStat
{
  public:
    /** Record one sample. */
    void add(double x);

    std::uint64_t count() const { return n_; }
    double mean() const;
    /** Unbiased sample standard deviation. */
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return sum_; }

    /**
     * q-th percentile (q in [0,1], linear interpolation) over the
     * samples. Total like mean()/stddev(): returns 0.0 when none were
     * added, and the sample itself when only one was (no interpolation
     * partner).
     */
    double percentile(double q) const;

    const std::vector<double> &samples() const { return samples_; }

    void reset();

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * Integer-bucketed histogram with a fixed bucket width. Used to render
 * the paper's Figure 7 style latency histograms as ASCII.
 */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket in sample units. */
    explicit Histogram(std::uint64_t bucket_width = 1)
        : bucketWidth_(bucket_width)
    {}

    void add(std::uint64_t x);

    std::uint64_t count() const { return n_; }
    const std::map<std::uint64_t, std::uint64_t> &buckets() const
    {
        return buckets_;
    }

    /** Bucket (by base value) holding the most samples. */
    std::uint64_t modeBucket() const;

    /**
     * Render as an ASCII bar chart, one line per occupied bucket.
     * @param label chart title
     * @param bar_width maximum bar length in characters
     */
    std::string render(const std::string &label,
                       unsigned bar_width = 50) const;

  private:
    std::uint64_t bucketWidth_;
    std::uint64_t n_ = 0;
    std::map<std::uint64_t, std::uint64_t> buckets_;
};

/**
 * Minimal fixed-column text table used by bench binaries to print the
 * same rows the paper's tables/figures report.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> row);

    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string fmtDouble(double v, int precision = 2);

} // namespace specint

#endif // SPECINT_SIM_STATS_HH
