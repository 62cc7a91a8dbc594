/**
 * @file
 * Span recorder, self-time summary and Chrome trace-event export.
 */

#include "spans.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

namespace
{

struct OpenSpan
{
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t tag;
    const char *name;
    std::uint64_t unit;
    std::int64_t start;
};

std::atomic<std::uint32_t> g_nextTid{0};
thread_local std::vector<OpenSpan> t_stack;
thread_local std::uint64_t t_unit = 0;
thread_local std::uint32_t t_tid = UINT32_MAX;

std::uint32_t
threadIndex()
{
    if (t_tid == UINT32_MAX)
        t_tid = g_nextTid.fetch_add(1);
    return t_tid;
}

} // namespace

double
SpanSummary::selfNs(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? 0.0 : it->second.selfNs;
}

std::uint64_t
SpanSummary::calls(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? 0 : it->second.calls;
}

double
SpanSummary::selfNs(const std::string &name, std::uint32_t tag) const
{
    const auto it = byTag.find({name, tag});
    return it == byTag.end() ? 0.0 : it->second.selfNs;
}

void
SpanSummary::merge(const SpanSummary &other)
{
    for (const auto &[k, v] : other.byName) {
        byName[k].selfNs += v.selfNs;
        byName[k].calls += v.calls;
    }
    for (const auto &[k, v] : other.byTag) {
        byTag[k].selfNs += v.selfNs;
        byTag[k].calls += v.calls;
    }
}

SpanSummary
summarize(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRecord &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            kids[it->second].emplace_back(s.start, s.end);
    }

    SpanSummary out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start;
        for (const auto &[b, e] : iv) {
            const std::int64_t lo = std::max(b, reach);
            const std::int64_t hi = std::min(e, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(e, s.end));
        }
        const double self = static_cast<double>(s.end - s.start - covered);
        SpanTotals &n = out.byName[s.name];
        n.selfNs += self;
        ++n.calls;
        SpanTotals &t = out.byTag[{s.name, s.tag}];
        t.selfNs += self;
        ++t.calls;
    }
    return out;
}

std::uint32_t
SpanRecorder::open(const char *name, std::uint32_t tag)
{
    const std::uint32_t id = nextId_.fetch_add(1);
    const std::uint32_t parent =
        t_stack.empty() ? 0 : t_stack.back().id;
    t_stack.push_back({id, parent, tag, name, t_unit, nowNs()});
    return id;
}

void
SpanRecorder::close(std::uint32_t id)
{
    const std::int64_t end = nowNs();
    // Spans are scoped, so the one closing is always the innermost.
    const OpenSpan o = t_stack.back();
    t_stack.pop_back();
    SpanRecord rec;
    rec.name = o.name;
    rec.id = id;
    rec.parent = o.parent;
    rec.tid = threadIndex();
    rec.tag = o.tag;
    rec.unit = o.unit;
    rec.start = o.start;
    rec.end = end;
    std::lock_guard<std::mutex> lock(mutex_);
    closed_.push_back(rec);
}

std::vector<SpanRecord>
SpanRecorder::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> out;
    out.swap(closed_);
    return out;
}

void
SpanRecorder::setUnit(std::uint64_t unit)
{
    t_unit = unit;
}

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans,
                 const std::string &process_name, std::int64_t origin_ns,
                 std::size_t max_events)
{
    std::vector<const SpanRecord *> order;
    order.reserve(spans.size());
    for (const SpanRecord &s : spans)
        order.push_back(&s);
    // Earliest first, then per-thread start order: validate_trace.py
    // requires non-decreasing ts within each (pid, tid).
    std::sort(order.begin(), order.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return a->start != b->start ? a->start < b->start
                                              : a->id < b->id;
              });
    if (order.size() > max_events)
        order.resize(max_events);
    std::stable_sort(order.begin(), order.end(),
                     [](const SpanRecord *a, const SpanRecord *b) {
                         return a->tid < b->tid;
                     });

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 process_name.c_str());
    std::uint32_t max_tid = 0;
    for (const SpanRecord *s : order)
        max_tid = std::max(max_tid, s->tid);
    for (std::uint32_t t = 0; t <= max_tid; ++t) {
        std::fprintf(f,
                     ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                     "\"name\":\"thread_name\",\"args\":{\"name\":"
                     "\"host-thread-%u\"}}",
                     t, t);
    }
    for (const SpanRecord *s : order) {
        const std::int64_t ts = (s->start - origin_ns) / 1000;
        const std::int64_t dur = (s->end - s->start) / 1000;
        std::string name(s->name);
        const std::string cat = name.substr(0, name.find('.'));
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                     "\"cat\":\"%s\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                     ",\"args\":{\"span\":%u,\"parent\":%u,\"unit\":%" PRIu64
                     ",\"tag\":%u}}",
                     s->tid, s->name, cat.c_str(), ts < 0 ? 0 : ts, dur,
                     s->id, s->parent, s->unit, s->tag);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
