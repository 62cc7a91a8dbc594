/**
 * @file
 * EventTracer implementation: ring buffer, track interning, and the
 * deterministic Chrome trace-event JSON renderer.
 */

#include "sim/obs/trace.hh"

#include <algorithm>

namespace specint::obs
{

namespace detail
{
std::atomic<bool> g_tracingEnabled{false};
} // namespace detail

namespace
{
thread_local std::uint32_t t_traceProcess = 0;
thread_local std::uint64_t t_traceSeq = 0;

/** Heap order putting the smallest (pid, seq) at the front. */
bool
laterEvent(const TraceEvent &a, const TraceEvent &b)
{
    return a.pid != b.pid ? a.pid > b.pid : a.seq > b.seq;
}
} // namespace

void
setTraceProcess(std::uint32_t pid)
{
    t_traceProcess = pid;
    t_traceSeq = 0;
}

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{}

void
EventTracer::setEnabled(bool enabled)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        enabled_ = enabled;
    }
    if (this == &global())
        detail::g_tracingEnabled.store(enabled,
                                       std::memory_order_relaxed);
}

bool
EventTracer::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
}

std::uint32_t
EventTracer::track(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = trackIds_.find(name);
    if (it != trackIds_.end())
        return it->second;
    trackNames_.push_back(name);
    const auto id = static_cast<std::uint32_t>(trackNames_.size());
    trackIds_.emplace(name, id);
    return id;
}

void
EventTracer::push(TraceEvent ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;
    ++emitted_;
    ev.seq = t_traceSeq++;
    ev.pid = t_traceProcess;
    if (ring_.size() == capacity_) {
        // Full: the smallest (pid, seq) of the ring and @p ev goes.
        if (!laterEvent(ev, ring_.front()))
            return;
        std::pop_heap(ring_.begin(), ring_.end(), laterEvent);
        ring_.back() = ev;
    } else {
        ring_.push_back(ev);
    }
    std::push_heap(ring_.begin(), ring_.end(), laterEvent);
}

void
EventTracer::complete(std::uint32_t track, const char *name,
                      const char *cat, Tick ts, Tick dur,
                      const char *key1, std::uint64_t val1,
                      const char *key2, std::uint64_t val2)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.track = track;
    ev.ts = ts;
    ev.dur = dur;
    ev.ph = 'X';
    ev.key1 = key1;
    ev.val1 = val1;
    ev.key2 = key2;
    ev.val2 = val2;
    push(ev);
}

void
EventTracer::instant(std::uint32_t track, const char *name,
                     const char *cat, Tick ts, const char *key1,
                     std::uint64_t val1, const char *key2,
                     std::uint64_t val2)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.track = track;
    ev.ts = ts;
    ev.ph = 'i';
    ev.key1 = key1;
    ev.val1 = val1;
    ev.key2 = key2;
    ev.val2 = val2;
    push(ev);
}

void
EventTracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    emitted_ = 0;
    trackNames_.clear();
    trackIds_.clear();
}

std::size_t
EventTracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t
EventTracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return emitted_ - ring_.size();
}

std::uint64_t
EventTracer::emitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return emitted_;
}

std::vector<TraceEvent>
EventTracer::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = ring_;
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return laterEvent(b, a);
              });
    return out;
}

namespace
{

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

void
appendArgs(std::string &out, const TraceEvent &ev)
{
    if (!ev.key1 && !ev.key2)
        return;
    out += ",\"args\":{";
    bool first = true;
    if (ev.key1) {
        out += std::string("\"") + ev.key1 +
               "\":" + std::to_string(ev.val1);
        first = false;
    }
    if (ev.key2) {
        if (!first)
            out += ',';
        out += std::string("\"") + ev.key2 +
               "\":" + std::to_string(ev.val2);
    }
    out += '}';
}

} // namespace

std::string
EventTracer::renderJson() const
{
    std::vector<TraceEvent> evs;
    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        evs = ring_;
        names = trackNames_;
    }

    // Interning order depends on which worker touched a track first,
    // so raw track ids are racy under --jobs. Remap them to the
    // alphabetical rank of the track name: the emitted tids become a
    // pure function of the track set.
    std::vector<std::uint32_t> order(names.size());
    for (std::uint32_t i = 0; i < names.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return names[a] < names[b];
              });
    std::vector<std::uint32_t> rank(names.size());
    for (std::uint32_t r = 0; r < order.size(); ++r)
        rank[order[r]] = r + 1; // tids start at 1
    for (TraceEvent &ev : evs)
        if (ev.track >= 1 && ev.track <= rank.size())
            ev.track = rank[ev.track - 1];

    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         if (a.track != b.track)
                             return a.track < b.track;
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.seq < b.seq;
                     });

    // Pids present in the event set, for process metadata. The event
    // list is pid-major sorted, so adjacent dedup is complete.
    std::vector<std::uint32_t> pids;
    for (const TraceEvent &ev : evs)
        if (pids.empty() || pids.back() != ev.pid)
            pids.push_back(ev.pid);

    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Metadata: name every process (sweep point) and every track in
    // every process that has events. Metadata order is deterministic
    // (sorted pids, then the sorted event list itself).
    for (std::uint32_t pid : pids) {
        sep();
        out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
               std::to_string(pid) +
               ",\"args\":{\"name\":\"point " + std::to_string(pid) +
               "\"}}";
    }
    std::uint32_t last_pid = 0, last_tid = 0;
    bool have_last = false;
    for (const TraceEvent &ev : evs) {
        if (have_last && ev.pid == last_pid && ev.track == last_tid)
            continue;
        have_last = true;
        last_pid = ev.pid;
        last_tid = ev.track;
        const std::string &name =
            ev.track >= 1 && ev.track <= order.size()
                ? names[order[ev.track - 1]]
                : "untracked";
        sep();
        out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
               std::to_string(ev.pid) +
               ",\"tid\":" + std::to_string(ev.track) +
               ",\"args\":{\"name\":" + jsonStr(name) + "}}";
    }

    for (const TraceEvent &ev : evs) {
        sep();
        out += "{\"ph\":\"";
        out += ev.ph;
        out += "\",\"name\":";
        out += jsonStr(ev.name);
        out += ",\"cat\":";
        out += jsonStr(*ev.cat ? ev.cat : "sim");
        out += ",\"pid\":" + std::to_string(ev.pid);
        out += ",\"tid\":" + std::to_string(ev.track);
        out += ",\"ts\":" + std::to_string(ev.ts);
        if (ev.ph == 'X')
            out += ",\"dur\":" + std::to_string(ev.dur);
        if (ev.ph == 'i')
            out += ",\"s\":\"t\"";
        appendArgs(out, ev);
        out += '}';
    }
    out += "\n]}\n";
    return out;
}

EventTracer &
EventTracer::global()
{
    static EventTracer tracer;
    return tracer;
}

} // namespace specint::obs
