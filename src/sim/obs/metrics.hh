/**
 * @file
 * Hierarchical metric registry: the one place every subsystem's
 * counters land so a sweep can be asked "what did this simulation do"
 * without printf archaeology.
 *
 * Metrics are keyed by dotted path (`core0.thread0.retired`,
 * `llc.slice2.occupancy`, `channel.dcache.bitErrors`) and come in
 * two kinds:
 *
 *  - Counter: monotonically accumulated u64. Additions commute, so
 *    parallel sweep workers publishing into the global registry
 *    produce the same snapshot regardless of execution order.
 *  - Distribution: a SampleStat (count/sum/min/max/percentiles). The
 *    summary is order-independent after the snapshot sorts samples.
 *
 * Publication is opt-in and designed to cost one relaxed atomic load
 * when off: components guard their publish calls with
 * `obs::metricsEnabled()`. The experiment driver flips the flag when
 * `--metrics-out` is given, runs the sweep, and exports
 * `MetricRegistry::global().snapshot()` as JSON.
 */

#ifndef SPECINT_SIM_OBS_METRICS_HH
#define SPECINT_SIM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace specint::obs
{

enum class MetricKind : std::uint8_t { Counter, Distribution };

const char *metricKindName(MetricKind kind);

/** Exported view of one metric at snapshot time. */
struct MetricSample
{
    std::string path;
    MetricKind kind = MetricKind::Counter;
    /** Counter value, or distribution sample count. */
    std::uint64_t count = 0;
    /** @name Distribution summary (zero for counters). */
    /// @{
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    /// @}
};

/** Point-in-time export of a registry, entries sorted by path. */
struct MetricsSnapshot
{
    std::vector<MetricSample> entries;

    /** nullptr when @p path is absent. */
    const MetricSample *find(const std::string &path) const;

    std::string renderJson() const;
};

/**
 * Thread-safe path-keyed registry. Mutators get-or-create the metric
 * and throw std::logic_error when the path already exists with a
 * different kind (a typo'd path silently shadowing a real metric is
 * exactly the bug the registry exists to prevent).
 */
class MetricRegistry
{
  public:
    void counterAdd(const std::string &path, std::uint64_t delta = 1);
    void sampleAdd(const std::string &path, double x);

    std::size_t size() const;
    MetricsSnapshot snapshot() const;
    void clear();

    /** The process-wide registry every subsystem publishes into. */
    static MetricRegistry &global();

  private:
    struct Metric
    {
        MetricKind kind = MetricKind::Counter;
        std::uint64_t count = 0;
        SampleStat dist;
    };

    Metric &getOrCreate(const std::string &path, MetricKind kind);

    mutable std::mutex mutex_;
    std::map<std::string, Metric> metrics_;
};

namespace detail
{
extern std::atomic<bool> g_metricsEnabled;
} // namespace detail

/** Hot-path guard for auto-publication into the global registry. */
inline bool
metricsEnabled()
{
    return detail::g_metricsEnabled.load(std::memory_order_relaxed);
}

void setMetricsEnabled(bool enabled);

} // namespace specint::obs

#endif // SPECINT_SIM_OBS_METRICS_HH
