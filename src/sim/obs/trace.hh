/**
 * @file
 * Opt-in structured event tracer: a ring-buffered sink for simulated
 * events, exported as Chrome trace-event JSON that Perfetto (and
 * chrome://tracing) load directly.
 *
 * Design constraints, in order:
 *
 *  1. Zero cost when off. Every emit site is guarded by
 *     `obs::tracingEnabled()` — one relaxed atomic load and a branch —
 *     so the microbench perf gate sees no regression with tracing
 *     disabled.
 *  2. Bounded memory when on. Events land in a fixed-capacity ring
 *     (default 256K); once it is full, the oldest event by (pid, seq)
 *     is evicted and counted in dropped(), never reallocated.
 *  3. Deterministic output across `--jobs`. Sweep workers run points
 *     concurrently, so arrival order in the ring is racy. Each event
 *     records the *sweep point index* as its Perfetto pid and a
 *     sequence number counted within that point (both thread-locals
 *     that setTraceProcess() sets), so (pid, seq) orders events as a
 *     serial run emits them. The ring is a min-heap on that key: it
 *     keeps the same events whatever the interleaving, exactly those a
 *     `--jobs 1` run keeps. renderJson() sorts by (pid, track, ts, seq)
 *     and remaps track ids alphabetically, so the emitted JSON is a
 *     pure function of the simulated work. The seq never appears in
 *     the output.
 *
 * Timestamps are simulated cycles emitted in the format's microsecond
 * field: 1 cycle renders as 1 us in the Perfetto timeline. Tracks (one
 * per core/thread/cache level, e.g. "core0.t0", "core0.mem",
 * "llc.coherence") are interned to integer ids so hot emit paths pass
 * a cached id, not a string.
 */

#ifndef SPECINT_SIM_OBS_TRACE_HH
#define SPECINT_SIM_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace specint::obs
{

/** One ring-buffer entry. Names/categories/arg keys are static
 *  strings (the emit sites pass literals), so no per-event alloc. */
struct TraceEvent
{
    const char *name = "";
    const char *cat = "";
    /** Arg keys; nullptr = unused slot. */
    const char *key1 = nullptr;
    const char *key2 = nullptr;
    std::uint64_t val1 = 0;
    std::uint64_t val2 = 0;
    /** Start cycle; for 'X' events dur is the span length. */
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    /** Emission order within the sweep point (not emitted). */
    std::uint64_t seq = 0;
    /** Sweep point index (Perfetto process id). */
    std::uint32_t pid = 0;
    /** Interned track id (Perfetto thread id). */
    std::uint32_t track = 0;
    /** 'X' (complete span) or 'i' (instant). */
    char ph = 'X';
};

class EventTracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    explicit EventTracer(std::size_t capacity = kDefaultCapacity);

    /** Enabling the process-global tracer also flips the fast
     *  `tracingEnabled()` flag the emit sites check. */
    void setEnabled(bool enabled);
    bool enabled() const;

    /** Intern @p name, returning its stable id (>= 1). Safe to call
     *  repeatedly; components cache the result. */
    std::uint32_t track(const std::string &name);

    /** Record a complete ('X') span on @p track. */
    void complete(std::uint32_t track, const char *name,
                  const char *cat, Tick ts, Tick dur,
                  const char *key1 = nullptr, std::uint64_t val1 = 0,
                  const char *key2 = nullptr, std::uint64_t val2 = 0);
    /** Record an instant ('i') event on @p track. */
    void instant(std::uint32_t track, const char *name,
                 const char *cat, Tick ts,
                 const char *key1 = nullptr, std::uint64_t val1 = 0,
                 const char *key2 = nullptr, std::uint64_t val2 = 0);

    /** Drop all events and track interning (capacity kept). */
    void clear();

    /** Events currently buffered. */
    std::size_t size() const;
    /** Events evicted (or refused) because the ring was full. */
    std::uint64_t dropped() const;
    /** Total events ever emitted (buffered + dropped). */
    std::uint64_t emitted() const;

    /** Buffered events in (pid, seq) order: oldest first for a
     *  serial run (pre-sort). */
    std::vector<TraceEvent> events() const;

    /** Chrome trace-event JSON: {"traceEvents": [...]} with metadata
     *  records naming every process (sweep point) and track. */
    std::string renderJson() const;

    /** The process-wide tracer every emit site targets. */
    static EventTracer &global();

  private:
    void push(TraceEvent ev);

    mutable std::mutex mutex_;
    bool enabled_ = false;
    std::size_t capacity_;
    /** Min-heap on (pid, seq): the front is the next event to evict. */
    std::vector<TraceEvent> ring_;
    std::uint64_t emitted_ = 0;
    std::vector<std::string> trackNames_;
    std::map<std::string, std::uint32_t> trackIds_;
};

namespace detail
{
extern std::atomic<bool> g_tracingEnabled;
} // namespace detail

/** Hot-path guard every emit site checks before touching the ring. */
inline bool
tracingEnabled()
{
    return detail::g_tracingEnabled.load(std::memory_order_relaxed);
}

/** @name Per-thread trace process id
 * The ExperimentRunner tags each worker with the sweep point index it
 * is executing, so events from concurrently running points land in
 * distinct Perfetto processes and the sorted output is
 * execution-order-independent. Also restarts the thread's event
 * sequence at 0. Single runs leave the default 0. */
/// @{
void setTraceProcess(std::uint32_t pid);
/// @}

} // namespace specint::obs

#endif // SPECINT_SIM_OBS_TRACE_HH
