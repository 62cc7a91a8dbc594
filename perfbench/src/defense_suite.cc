/**
 * @file
 * defense_suite: the SPEC2017-archetype programs, each run with
 * Core::run on a fresh Hierarchy + Core under six schemes whose host
 * cost per simulated cycle spans ~14x. Nearly all host time is the
 * cpu layer; the attack layer does no work.
 */

#include <iterator>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "sim/experiment/scenario.hh"
#include "spans.hh"
#include "workload.hh"
#include "workload/generator.hh"

namespace perfbench
{

namespace
{

using namespace specint;

struct SchemeCase
{
    SchemeKind kind;
    const char *tag;
};

constexpr SchemeCase kSchemes[] = {
    {SchemeKind::Unsafe, "unsafe"},
    {SchemeKind::FenceSpectre, "fence_spectre"},
    {SchemeKind::FenceFuturistic, "fence_futuristic"},
    {SchemeKind::DomNonTso, "dom"},
    {SchemeKind::AdvancedDefense, "advanced"},
    {SchemeKind::InvisiSpecSpectre, "invisispec"},
};

/** Two programs per archetype, each an eighth of the Fig. 12 length:
 *  a pass is 144 runs (enough for a p90 with ten runs beyond it) and
 *  still fits several times into a run. */
constexpr unsigned kInstructions = 600;
constexpr unsigned kVariants = 2;

class DefenseSuite : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        specs_.clear();
        programs_.clear();
        std::uint64_t k = 0;
        for (const WorkloadSpec &base : spec2017Archetypes(kInstructions)) {
            for (unsigned v = 0; v < kVariants; ++v) {
                WorkloadSpec spec = base;
                spec.name += "#" + std::to_string(v);
                spec.seed = experiment::splitSeed(seed, k++);
                const Span span("workload.generate");
                programs_.push_back(generateWorkload(spec));
                specs_.push_back(std::move(spec));
            }
        }
    }

    void
    runPass(UnitSink &sink) override
    {
        counters_.clear();
        for (std::size_t w = 0; w < programs_.size(); ++w) {
            const GeneratedWorkload &wl = programs_[w];
            std::uint64_t baseline_retired = 0;
            for (std::uint32_t si = 0; si < std::size(kSchemes); ++si) {
                SpanRecorder::setUnit(sink.nextUnitId());
                const std::int64_t t0 = nowNs();
                Hierarchy hier(HierarchyConfig::small());
                MainMemory mem;
                for (const auto &[addr, value] : wl.memInit)
                    mem.write(addr, value);
                Core core(CoreConfig{}, 0, hier, mem);
                core.setScheme(makeScheme(kSchemes[si].kind));
                CoreStats st;
                {
                    const Span span("cpu.run", si);
                    st = core.run(wl.prog);
                }
                const std::int64_t dt = nowNs() - t0;

                UnitResult u;
                u.label = specs_[w].name + "/" + kSchemes[si].tag;
                u.output = strf(
                    "cycles=%llu retired=%llu issued=%llu squashes=%llu "
                    "branches=%llu mispredicts=%llu loads=%llu "
                    "l1hits=%llu finished=%d",
                    static_cast<unsigned long long>(st.cycles),
                    static_cast<unsigned long long>(st.retired),
                    static_cast<unsigned long long>(st.issued),
                    static_cast<unsigned long long>(st.squashes),
                    static_cast<unsigned long long>(st.branches),
                    static_cast<unsigned long long>(st.mispredicts),
                    static_cast<unsigned long long>(st.loads),
                    static_cast<unsigned long long>(st.loadL1Hits),
                    st.finished ? 1 : 0);
                // The architectural path is scheme-independent: every
                // scheme retires what the unsafe baseline (listed
                // first) retired.
                if (si == 0)
                    baseline_retired = st.retired;
                u.invariantsOk = st.finished && st.retired > 0 &&
                                 st.retired <= wl.prog.size() &&
                                 st.retired == baseline_retired;
                sink.add(u, dt);

                counters_["cpu.sim_cycles"] += st.cycles;
                counters_["cpu.retired"] += st.retired;
                counters_["cpu.issued"] += st.issued;
                counters_["cpu.squashes"] += st.squashes;
                counters_["memory.loads"] += st.loads;
                counters_["memory.l1d_hits"] += st.loadL1Hits;
                counters_[std::string("cpu.cycles.") +
                          kSchemes[si].tag] += st.cycles;
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
        for (std::uint32_t si = 0; si < std::size(kSchemes); ++si) {
            const auto it = counters_.find(std::string("cpu.cycles.") +
                                           kSchemes[si].tag);
            if (it == counters_.end() || it->second == 0.0)
                continue;
            out[std::string("cpu.ns_per_cycle.") + kSchemes[si].tag] =
                spans.selfNs("cpu.run", si) / passes / it->second;
        }
    }

  private:
    std::vector<WorkloadSpec> specs_;
    std::vector<GeneratedWorkload> programs_;
    Counters counters_;
    std::uint64_t cycles_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeDefenseSuite()
{
    return std::make_unique<DefenseSuite>();
}

} // namespace perfbench
