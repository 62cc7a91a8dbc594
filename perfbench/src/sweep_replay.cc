/**
 * @file
 * sweep_replay: cheap registered scenarios run through
 * ExperimentRunner with a ResultCache, wired as `specsim_bench
 * --cache-dir` wires it (tryFetch/onExecuted hooks). Set-up is one
 * cold pass into an empty cache directory: every point is computed and
 * stored. A pass then replays every point from that cache. Only the
 * experiment and service layers are measured here; no other workload
 * calls them.
 *
 * The write path sits in set-up rather than in the passes: creating
 * files on a shared disk spreads too much from run to run to be timed
 * per pass, while setup_s is only compared by its median.
 */

#include <filesystem>
#include <iterator>
#include <memory>
#include <system_error>
#include <unistd.h>
#include <vector>

#include "scenarios/scenarios.hh"
#include "sim/experiment/report.hh"
#include "sim/experiment/runner.hh"
#include "sim/service/cache.hh"
#include "sim/service/fingerprint.hh"
#include "sim/service/wire.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace specint;
namespace fs = std::filesystem;

const char *const kScenarios[] = {"table1", "ablation_coherence",
                                  "ablation_cross_core"};
/** Fixed worker count. One keeps thread start-up and scheduling out of
 *  the short replay passes. */
constexpr unsigned kJobs = 1;

/** Digest of a point's rows and legacy text: replayed rows must be
 *  byte-equal to computed ones. */
std::string
pointDigest(const std::vector<experiment::Row> &rows,
            const std::string &legacy)
{
    const std::string bytes =
        service::encodeRows(rows).dump() + "\n" + legacy;
    return strf("%016llx",
                static_cast<unsigned long long>(service::fnv1a64(bytes)));
}

thread_local std::int64_t t_pointStart = 0;

class SweepReplay : public Workload
{
  public:
    explicit SweepReplay(const std::string &work_dir)
        : cacheRoot_(fs::path(work_dir) /
                     ("sweep-cache-" + std::to_string(::getpid())))
    {}

    ~SweepReplay() override
    {
        cache_.reset();
        std::error_code ec;
        fs::remove_all(cacheRoot_, ec);
    }

    void
    setup(std::uint64_t seed) override
    {
        jobs_.clear();
        // Each set-up fills a new, empty directory.
        cache_ = std::make_unique<service::ResultCache>(
            (cacheRoot_ / ("setup-" + std::to_string(setups_++))).string());
        const experiment::ScenarioRegistry &registry = scenarios::all();

        for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
            Job job;
            job.scenario = *registry.find(kScenarios[i]);
            auto inner = job.scenario.run;
            job.scenario.run = [inner](const experiment::PointContext &ctx,
                                       const experiment::RunOptions &opt) {
                const Span span("scenario.point");
                return inner(ctx, opt);
            };
            job.options.trials = job.scenario.defaultTrials;
            job.options.seed = experiment::splitSeed(seed, i);
            job.options.jobs = kJobs;
            for (const experiment::ExtraFlag &f : job.scenario.extraFlags)
                job.options.extra[f.name] = f.defaultValue;
            job.spec = service::JobSpec::fromOptions(job.scenario.name,
                                                     job.options);
            const experiment::Report report = replay(job, 0, nullptr);
            for (const experiment::ReportPoint &p : report.points)
                job.computed.push_back(pointDigest(p.rows, p.legacy));
            jobs_.push_back(std::move(job));
        }
        {
            const Span span("service.store");
            cache_->flushIndex(service::buildFingerprint());
        }
    }

    void
    runPass(UnitSink &sink) override
    {
        counters_.clear();
        const service::CacheStats before = cache_->stats();
        for (Job &job : jobs_) {
            const std::uint64_t base = sink.nextUnitId();
            Replayed replayed;
            const experiment::Report report = replay(job, base, &replayed);
            for (std::size_t i = 0; i < report.points.size(); ++i) {
                const experiment::ReportPoint &p = report.points[i];
                UnitResult u;
                u.label = strf("%s/point%zu", job.scenario.name.c_str(), i);
                u.output = pointDigest(p.rows, p.legacy);
                u.invariantsOk = p.done && !report.interrupted &&
                                 replayed.hit[i] &&
                                 i < job.computed.size() &&
                                 u.output == job.computed[i];
                sink.add(u, replayed.ns[i]);
            }
            counters_["experiment.points"] +=
                static_cast<double>(report.points.size());
        }
        const service::CacheStats after = cache_->stats();
        counters_["service.lookups"] = static_cast<double>(
            after.hits + after.misses - before.hits - before.misses);
        counters_["service.hits"] =
            static_cast<double>(after.hits - before.hits);
        counters_["service.corrupt"] =
            static_cast<double>(after.corrupt - before.corrupt);
    }

    Counters counters() const override { return counters_; }

    /** Passes simulate nothing: every point is replayed. */
    std::uint64_t cyclesPerPass() const override { return 0; }

  private:
    struct Job
    {
        experiment::Scenario scenario;
        experiment::RunOptions options;
        service::JobSpec spec;
        std::vector<std::string> computed;
    };

    /** Per-point host time and whether the cache served the point. */
    struct Replayed
    {
        std::vector<std::int64_t> ns;
        std::vector<char> hit;
    };

    /** Run @p job through the cache: misses are computed and stored.
     *  @p out (optional) receives per-point timings; spans of point i
     *  carry unit id @p unit_base + i. */
    experiment::Report
    replay(Job &job, std::uint64_t unit_base, Replayed *out)
    {
        const char *fingerprint = service::buildFingerprint();
        service::ResultCache &cache = *cache_;
        if (out) {
            const std::size_t n = job.computed.size();
            out->ns.assign(n, 0);
            out->hit.assign(n, 0);
        }
        experiment::RunHooks hooks;
        hooks.tryFetch = [&](const experiment::PointContext &ctx,
                             experiment::PointResult &result) {
            SpanRecorder::setUnit(unit_base + ctx.pointIndex);
            t_pointStart = nowNs();
            service::CacheKey key;
            {
                const Span span("service.key");
                key = service::makeCacheKey(job.spec, ctx.pointIndex,
                                            ctx.pointSeed, ctx.point,
                                            fingerprint);
            }
            bool hit;
            {
                const Span span("service.lookup");
                hit = cache.lookup(key, result.rows, result.legacy);
            }
            if (hit && out && ctx.pointIndex < out->ns.size()) {
                out->ns[ctx.pointIndex] = nowNs() - t_pointStart;
                out->hit[ctx.pointIndex] = 1;
            }
            return hit;
        };
        hooks.onExecuted = [&](const experiment::PointContext &ctx,
                               const experiment::PointResult &result) {
            service::CacheKey key;
            {
                const Span span("service.key");
                key = service::makeCacheKey(job.spec, ctx.pointIndex,
                                            ctx.pointSeed, ctx.point,
                                            fingerprint);
            }
            {
                const Span span("service.store");
                cache.store(key, result.rows, result.legacy);
            }
            if (out && ctx.pointIndex < out->ns.size())
                out->ns[ctx.pointIndex] = nowNs() - t_pointStart;
        };

        const Span span("experiment.run");
        return experiment::ExperimentRunner(kJobs).run(job.scenario,
                                                       job.options, hooks);
    }

    fs::path cacheRoot_;
    unsigned setups_ = 0;
    std::unique_ptr<service::ResultCache> cache_;
    std::vector<Job> jobs_;
    Counters counters_;
};

} // namespace

std::unique_ptr<Workload>
makeSweepReplay(const std::string &work_dir)
{
    return std::make_unique<SweepReplay>(work_dir);
}

} // namespace perfbench
