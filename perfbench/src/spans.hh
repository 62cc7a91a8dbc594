/**
 * @file
 * Host-time spans recorded around the benchmark's calls into each
 * simulator layer.
 *
 * A span is (name, start, end, parent span, unit id, tag). Spans live
 * in memory while the benchmark runs and are exported at exit as
 * Chrome trace-event JSON (the same shape src/sim/obs emits, so
 * scripts/validate_trace.py and Perfetto read it). A layer's self time
 * is its span's duration minus the part of that interval covered by
 * its child spans.
 *
 * Recording is off unless enabled; a disabled Span costs one relaxed
 * atomic load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    /** Static literal, "<layer>.<call>". */
    const char *name = "";
    std::uint32_t id = 0;
    /** 0 = no parent. */
    std::uint32_t parent = 0;
    /** Host thread index (0 = the thread that first recorded). */
    std::uint32_t tid = 0;
    /** Workload-defined sub-key (scheme or channel index). */
    std::uint32_t tag = 0;
    std::uint64_t unit = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/** Self time and call count of one span name (or name + tag). */
struct SpanTotals
{
    double selfNs = 0.0;
    std::uint64_t calls = 0;
};

struct SpanSummary
{
    std::map<std::string, SpanTotals> byName;
    std::map<std::pair<std::string, std::uint32_t>, SpanTotals> byTag;

    double selfNs(const std::string &name) const;
    std::uint64_t calls(const std::string &name) const;
    double selfNs(const std::string &name, std::uint32_t tag) const;

    /** Accumulate another summary into this one. */
    void merge(const SpanSummary &other);
};

/** Compute per-name self times over a closed set of spans. */
SpanSummary summarize(const std::vector<SpanRecord> &spans);

class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    std::uint32_t open(const char *name, std::uint32_t tag);
    void close(std::uint32_t id);

    /** Move out every closed span recorded so far. */
    std::vector<SpanRecord> take();

    /** The unit id stamped on spans opened by this thread. */
    static void setUnit(std::uint64_t unit);

    static SpanRecorder &global();

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> nextId_{1};
    std::mutex mutex_;
    std::vector<SpanRecord> closed_;
};

/** RAII span on the global recorder. */
class Span
{
  public:
    explicit Span(const char *name, std::uint32_t tag = 0)
    {
        SpanRecorder &r = SpanRecorder::global();
        if (r.enabled())
            id_ = r.open(name, tag);
    }
    ~Span()
    {
        if (id_ != 0)
            SpanRecorder::global().close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::uint32_t id_ = 0;
};

/**
 * Write @p spans as Chrome trace-event JSON ({"traceEvents": [...]},
 * complete events with integer microsecond ts/dur relative to
 * @p origin_ns, plus process/thread name metadata). At most
 * @p max_events spans are written, earliest first. Returns false on
 * I/O failure.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      const std::string &process_name,
                      std::int64_t origin_ns, std::size_t max_events);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
