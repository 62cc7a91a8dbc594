/**
 * @file
 * MetricRegistry implementation: path-keyed storage and JSON snapshot
 * export.
 */

#include "sim/obs/metrics.hh"

#include <stdexcept>

#include "sim/experiment/value.hh"

namespace specint::obs
{

namespace detail
{
std::atomic<bool> g_metricsEnabled{false};
} // namespace detail

void
setMetricsEnabled(bool enabled)
{
    detail::g_metricsEnabled.store(enabled, std::memory_order_relaxed);
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Distribution: return "distribution";
    }
    return "?";
}

MetricRegistry::Metric &
MetricRegistry::getOrCreate(const std::string &path, MetricKind kind)
{
    auto [it, created] = metrics_.try_emplace(path);
    if (created) {
        it->second.kind = kind;
    } else if (it->second.kind != kind) {
        throw std::logic_error(
            "metric '" + path + "' is a " +
            metricKindName(it->second.kind) + ", not a " +
            metricKindName(kind));
    }
    return it->second;
}

void
MetricRegistry::counterAdd(const std::string &path, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    getOrCreate(path, MetricKind::Counter).count += delta;
}

void
MetricRegistry::sampleAdd(const std::string &path, double x)
{
    std::lock_guard<std::mutex> lock(mutex_);
    getOrCreate(path, MetricKind::Distribution).dist.add(x);
}

std::size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.entries.reserve(metrics_.size());
    // std::map iteration is already path-sorted.
    for (const auto &[path, m] : metrics_) {
        MetricSample s;
        s.path = path;
        s.kind = m.kind;
        switch (m.kind) {
          case MetricKind::Counter:
            s.count = m.count;
            break;
          case MetricKind::Distribution:
            s.count = m.dist.count();
            s.sum = m.dist.sum();
            s.min = m.dist.min();
            s.max = m.dist.max();
            s.mean = m.dist.mean();
            s.p50 = m.dist.percentile(0.50);
            s.p95 = m.dist.percentile(0.95);
            break;
        }
        snap.entries.push_back(std::move(s));
    }
    return snap;
}

void
MetricRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.clear();
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

const MetricSample *
MetricsSnapshot::find(const std::string &path) const
{
    for (const MetricSample &s : entries)
        if (s.path == path)
            return &s;
    return nullptr;
}

namespace
{

/** Emit a double without trailing noise (integers stay integral). */
std::string
num(double v)
{
    return experiment::Value::real(v, 6).json();
}

} // namespace

std::string
MetricsSnapshot::renderJson() const
{
    using experiment::jsonEscape;
    std::string out = "{\n  \"metrics\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const MetricSample &s = entries[i];
        out += "    {\"path\": " + jsonEscape(s.path) +
               ", \"kind\": \"" + metricKindName(s.kind) + "\"";
        switch (s.kind) {
          case MetricKind::Counter:
            out += ", \"value\": " + std::to_string(s.count);
            break;
          case MetricKind::Distribution:
            out += ", \"count\": " + std::to_string(s.count) +
                   ", \"sum\": " + num(s.sum) +
                   ", \"min\": " + num(s.min) +
                   ", \"max\": " + num(s.max) +
                   ", \"mean\": " + num(s.mean) +
                   ", \"p50\": " + num(s.p50) +
                   ", \"p95\": " + num(s.p95);
            break;
        }
        out += i + 1 < entries.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace specint::obs
