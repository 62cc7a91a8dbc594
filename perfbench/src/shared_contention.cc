/**
 * @file
 * shared_contention: one engine running two contexts over shared
 * resources. SmtProbeHarness trials (port and MSHR channels under the
 * shared+icount and partitioned+icount policies) and CrossCoreHarness
 * trials (occupancy and eviction channels) on a two-core System. Each
 * channel runs against a scheme it pierces, so every noiseless trial
 * must decode to the bit sent.
 */

#include <iterator>
#include <memory>
#include <vector>

#include "attack/cross_core_probe.hh"
#include "attack/smt_probe.hh"
#include "sim/experiment/scenario.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace specint;

struct SmtCase
{
    const char *name;
    SmtChannelKind kind;
    SharingPolicy window;
};

constexpr SmtCase kSmtCases[] = {
    {"port/shared+icount", SmtChannelKind::Port, SharingPolicy::Shared},
    {"port/partitioned+icount", SmtChannelKind::Port,
     SharingPolicy::Partitioned},
    {"mshr/shared+icount", SmtChannelKind::Mshr, SharingPolicy::Shared},
    {"mshr/partitioned+icount", SmtChannelKind::Mshr,
     SharingPolicy::Partitioned},
};

struct CrossCase
{
    const char *name;
    CrossCoreChannelKind kind;
    /** A scheme the channel pierces: invisible speculation hides cache
     *  state but not shared-level bandwidth, so eviction needs the
     *  unsafe baseline to stay open. */
    SchemeKind scheme;
};

constexpr CrossCase kCrossCases[] = {
    {"occupancy", CrossCoreChannelKind::Occupancy,
     SchemeKind::InvisiSpecSpectre},
    {"eviction", CrossCoreChannelKind::Eviction, SchemeKind::Unsafe},
};

/** Trials per harness and pass: SMT port trials cost ~4x an MSHR
 *  trial and ~7x a cross-core trial. */
constexpr unsigned kSmtTrials = 16;
constexpr unsigned kCrossTrials = 24;

/** Span tags: channel kind index. */
const char *const kSmtTags[] = {"port", "mshr"};
const char *const kCrossTags[] = {"occupancy", "eviction"};

class SharedContention : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        smt_.clear();
        cross_.clear();
        std::uint64_t k = 0;
        for (const SmtCase &c : kSmtCases) {
            SmtAttackParams p;
            p.kind = c.kind;
            SmtConfig smt;
            smt.robPolicy = smt.rsPolicy = smt.lqPolicy = smt.sqPolicy =
                c.window;
            smt.fetchPolicy = FetchPolicy::ICount;
            SmtSlot s;
            s.harness = std::make_unique<SmtProbeHarness>(
                buildSmtAttack(p), SchemeKind::InvisiSpecSpectre,
                CoreConfig{}, smt, HierarchyConfig::small());
            {
                const Span span("smt.calibrate", tagOf(c.kind));
                s.cal = s.harness->calibrate();
            }
            s.bits = randomBits(kSmtTrials,
                                experiment::splitSeed(seed, k++));
            smt_.push_back(std::move(s));
        }
        for (const CrossCase &c : kCrossCases) {
            CrossCoreAttackParams p;
            p.kind = c.kind;
            CrossSlot s;
            s.harness = std::make_unique<CrossCoreHarness>(p, c.scheme);
            {
                const Span span("system.calibrate", tagOf(c.kind));
                s.cal = s.harness->calibrate();
            }
            s.bits = randomBits(kCrossTrials,
                                experiment::splitSeed(seed, k++));
            cross_.push_back(std::move(s));
        }
    }

    /** The harnesses never clear the visible LLC trace, which grows
     *  with every trial; drop it between passes so memory does not
     *  scale with the number of passes a run fits. Nothing decoded
     *  here reads it. */
    void
    beforePass() override
    {
        for (SmtSlot &s : smt_)
            s.harness->core().hierarchy().clearLlcTrace();
        for (CrossSlot &s : cross_)
            s.harness->system().hierarchy().clearLlcTrace();
    }

    void
    runPass(UnitSink &sink) override
    {
        counters_.clear();
        for (std::size_t i = 0; i < smt_.size(); ++i) {
            SmtSlot &s = smt_[i];
            const std::uint32_t tag = tagOf(kSmtCases[i].kind);
            for (unsigned t = 0; t < s.bits.size(); ++t) {
                SpanRecorder::setUnit(sink.nextUnitId());
                const std::int64_t t0 = nowNs();
                {
                    const Span span("smt.prepare", tag);
                    s.harness->prepare(s.bits[t]);
                }
                SmtTrialOutcome out;
                {
                    const Span span("smt.trial_run", tag);
                    out = s.harness->runTrial();
                }
                const std::int64_t dt = nowNs() - t0;
                add(sink, dt, kSmtCases[i].name, t, s.bits[t], out.score,
                    out.cycles, out.finished, s.cal.usable,
                    s.cal.decode(out.score));
                counters_[std::string("smt.cycles.") + kSmtTags[tag]] +=
                    out.cycles;
            }
        }
        for (std::size_t i = 0; i < cross_.size(); ++i) {
            CrossSlot &s = cross_[i];
            const std::uint32_t tag = tagOf(kCrossCases[i].kind);
            for (unsigned t = 0; t < s.bits.size(); ++t) {
                SpanRecorder::setUnit(sink.nextUnitId());
                const std::int64_t t0 = nowNs();
                {
                    const Span span("system.prepare", tag);
                    s.harness->prepare(s.bits[t]);
                }
                CrossCoreTrialOutcome out;
                {
                    const Span span("system.trial_run", tag);
                    out = s.harness->runTrial();
                }
                const std::int64_t dt = nowNs() - t0;
                add(sink, dt, kCrossCases[i].name, t, s.bits[t],
                    out.score, out.cycles, out.finished, s.cal.usable,
                    s.cal.decode(out.score));
                counters_[std::string("system.cycles.") +
                          kCrossTags[tag]] += out.cycles;
                // prepare() resets the shared-level counters, so these
                // cover exactly this trial.
                const Hierarchy &hier = s.harness->system().hierarchy();
                for (CoreId c = 0; c < 2; ++c) {
                    const LlcContentionStats &ls = hier.llcContention(c);
                    counters_["memory.llc_requests"] += ls.requests;
                    counters_["memory.llc_queued"] += ls.queued;
                    counters_["memory.llc_queue_delay_cycles"] +=
                        ls.queueDelay;
                }
            }
        }
        cycles_ = static_cast<std::uint64_t>(counters_["cpu.sim_cycles"]);
    }

    Counters counters() const override { return counters_; }
    std::uint64_t cyclesPerPass() const override { return cycles_; }

    void
    addTaggedMetrics(const SpanSummary &spans, double passes,
                     Counters &out) const override
    {
        for (std::uint32_t tag = 0; tag < 2; ++tag) {
            perCycle(spans, passes, "smt", kSmtTags[tag], tag, out);
            perCycle(spans, passes, "system", kCrossTags[tag], tag, out);
        }
    }

  private:
    struct SmtSlot
    {
        std::unique_ptr<SmtProbeHarness> harness;
        SmtCalibration cal;
        std::vector<std::uint8_t> bits;
    };
    struct CrossSlot
    {
        std::unique_ptr<CrossCoreHarness> harness;
        CrossCoreCalibration cal;
        std::vector<std::uint8_t> bits;
    };

    static std::uint32_t
    tagOf(SmtChannelKind k)
    {
        return k == SmtChannelKind::Port ? 0 : 1;
    }
    static std::uint32_t
    tagOf(CrossCoreChannelKind k)
    {
        return k == CrossCoreChannelKind::Occupancy ? 0 : 1;
    }

    void
    perCycle(const SpanSummary &spans, double passes, const char *layer,
             const char *tag_name, std::uint32_t tag, Counters &out) const
    {
        const std::string base(layer);
        const auto it = counters_.find(base + ".cycles." + tag_name);
        if (it == counters_.end() || it->second == 0.0)
            return;
        out[base + ".ns_per_cycle." + tag_name] =
            spans.selfNs(base + ".trial_run", tag) / passes / it->second;
    }

    void
    add(UnitSink &sink, std::int64_t dt, const char *name, unsigned t,
        unsigned bit, std::uint64_t score, Tick cycles, bool finished,
        bool usable, unsigned decoded)
    {
        UnitResult u;
        u.label = strf("%s/trial%u", name, t);
        u.output = strf("secret=%u score=%llu cycles=%llu finished=%d "
                        "decoded=%u",
                        bit, static_cast<unsigned long long>(score),
                        static_cast<unsigned long long>(cycles),
                        finished ? 1 : 0, decoded);
        // Noiseless trials against a pierced scheme decode exactly.
        u.invariantsOk = finished && usable && decoded == bit;
        sink.add(u, dt);
        counters_["cpu.sim_cycles"] += cycles;
    }

    std::vector<SmtSlot> smt_;
    std::vector<CrossSlot> cross_;
    Counters counters_;
    std::uint64_t cycles_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSharedContention()
{
    return std::make_unique<SharedContention>();
}

} // namespace perfbench
