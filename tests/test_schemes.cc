/**
 * @file
 * Speculation-scheme semantics tests: each defense's load policy,
 * exposure behaviour, I-fetch protection, MuonTrap's filter cache, and
 * every declared policy of every row of the scheme table.
 * The headline property — classic Spectre v1 is blocked by every
 * invisible-speculation scheme — is checked for all schemes with a
 * parameterised suite.
 */

#include <cctype>
#include <iterator>

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "spec/scheme.hh"

namespace specint
{
namespace
{

/** Spectre v1 victim with a slow-resolving bounds check. */
struct SpectreV1
{
    Program prog;
    unsigned branchPc = 0;
    Addr transmitBase = 0x700000;

    SpectreV1()
    {
        prog.movi(1, 5);               // i = 5 (out of bounds)
        prog.load(2, kNoReg, 0x6000);  // N via cold pointer chase
        prog.load(2, 2, 0);
        branchPc = prog.branch(BranchCond::LT, 1, 2, 0);
        prog.halt();                   // correct path
        const unsigned wrong =
            prog.load(3, kNoReg, 0x5000, 1, "secret");
        prog.load(4, 3, static_cast<std::int64_t>(transmitBase), 64,
                  "transmit");
        prog.halt();
        prog.setBranchTarget(branchPc, wrong);
    }

    void setup(Hierarchy &hier, MainMemory &mem, Core &core) const
    {
        mem.write(0x5000, 1); // secret bit = 1
        mem.write(0x6000, 0x6100);
        mem.write(0x6100, 2);
        hier.flushLine(0x6000);
        hier.flushLine(0x6100);
        hier.flushLine(transmitBase);
        hier.flushLine(transmitBase + 64);
        hier.access(core.id(), 0x5000, AccessType::Data, 0);
        core.predictor().train(branchPc, true, 4);
    }

    bool leaked(const Hierarchy &hier) const
    {
        return hier.llcContains(transmitBase + 64) ||
               hier.llcContains(transmitBase);
    }
};

class SpectreBlocked : public ::testing::TestWithParam<SchemeKind>
{};

TEST_P(SpectreBlocked, TransmitLineNeverReachesLlc)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(GetParam()));

    SpectreV1 victim;
    victim.setup(hier, mem, core);
    const CoreStats s = core.run(victim.prog);
    EXPECT_TRUE(s.finished);
    EXPECT_GE(s.squashes, 1u);
    EXPECT_FALSE(victim.leaked(hier))
        << "scheme " << schemeName(GetParam())
        << " let the transient transmit load change LLC state";
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, SpectreBlocked,
    ::testing::Values(SchemeKind::DomNonTso, SchemeKind::DomTso,
                      SchemeKind::InvisiSpecSpectre,
                      SchemeKind::InvisiSpecFuturistic,
                      SchemeKind::SafeSpecWfb, SchemeKind::SafeSpecWfc,
                      SchemeKind::MuonTrap, SchemeKind::ConditionalSpec,
                      SchemeKind::FenceSpectre,
                      SchemeKind::FenceFuturistic,
                      SchemeKind::AdvancedDefense),
    [](const auto &info) {
        std::string n = schemeName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(SpectreV1Baseline, UnsafeLeaks)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::Unsafe));
    SpectreV1 victim;
    victim.setup(hier, mem, core);
    core.run(victim.prog);
    EXPECT_TRUE(hier.llcContains(victim.transmitBase + 64));
    EXPECT_FALSE(hier.llcContains(victim.transmitBase));
}

TEST(Dom, SpeculativeHitForwardsWithoutLlcTraffic)
{
    // A speculative L1 hit under DoM returns data without any visible
    // LLC access; after the squash nothing changed.
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::DomNonTso));

    mem.write(0x5000, 42);
    mem.write(0x6000, 0x6100);
    mem.write(0x6100, 2);
    Program p;
    p.movi(1, 5);
    p.load(2, kNoReg, 0x6000);
    p.load(2, 2, 0);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0);
    p.halt();
    const unsigned wrong = p.load(3, kNoReg, 0x5000, 1, "spechit");
    p.alu(4, 3, kNoReg, 0);
    p.halt();
    p.setBranchTarget(br, wrong);

    hier.access(0, 0x5000, AccessType::Data, 0); // L1-resident
    hier.flushLine(0x6000);
    hier.flushLine(0x6100);
    hier.clearLlcTrace();
    core.predictor().train(br, true, 4);
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_GE(s.squashes, 1u);
    for (const auto &acc : hier.llcTrace())
        EXPECT_NE(acc.lineAddr, lineAlign(Addr{0x5000}));
}

TEST(Dom, SpeculativeMissIsNeverServiced)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::DomNonTso));
    SpectreV1 victim;
    victim.setup(hier, mem, core);
    core.run(victim.prog);
    EXPECT_FALSE(hier.llcContains(victim.transmitBase + 64));
    EXPECT_FALSE(hier.l1d(0).contains(victim.transmitBase + 64));
}

TEST(InvisiSpec, CorrectPathSpeculativeLoadIsExposed)
{
    // A load that starts speculative but whose shadow resolves in the
    // correct direction must eventually update the cache (exposure).
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(SchemeKind::InvisiSpecSpectre));

    mem.write(0x6000, 0x6100);
    mem.write(0x6100, 10);
    Program p;
    p.movi(1, 5);
    p.load(2, kNoReg, 0x6000);
    p.load(2, 2, 0);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0); // 5<10 taken
    p.halt();
    const unsigned tgt = p.load(3, kNoReg, 0x8000, 1, "specload");
    p.halt();
    p.setBranchTarget(br, tgt);
    core.predictor().train(br, true, 4); // predicted taken, IS taken
    hier.flushLine(0x6000);
    hier.flushLine(0x6100);
    hier.flushLine(0x8000);
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.squashes, 0u);
    EXPECT_TRUE(hier.llcContains(0x8000)); // exposed after resolve
    EXPECT_EQ(core.archReg(3), 0u);
}

TEST(MuonTrap, FilterCacheSemantics)
{
    // Line i is filled by load seq 10 + i.
    const auto line = [](std::size_t i) { return Addr{0x100 + 0x40 * i}; };
    constexpr std::size_t n = FilterCache::kLines;
    FilterCache fc;
    EXPECT_FALSE(fc.probe(line(0)));
    for (std::size_t i = 0; i <= n; ++i)
        fc.fill(line(i), 10 + i);
    // One past capacity: the oldest fill went, the rest stayed.
    EXPECT_FALSE(fc.probe(line(0)));
    for (std::size_t i = 1; i <= n; ++i)
        EXPECT_TRUE(fc.probe(line(i))) << "line " << i;

    // Re-filling a present line changes nothing (FIFO, not LRU): the
    // next new line still evicts it as the oldest.
    fc.fill(line(1), 99);
    fc.fill(line(n + 1), 10 + n + 1);
    EXPECT_FALSE(fc.probe(line(1)));
    EXPECT_TRUE(fc.probe(line(2)));

    // A squash drops exactly the fills of loads younger than the bound.
    const SeqNum bound = 10 + n / 2;
    fc.squashYoungerThan(bound);
    for (std::size_t i = 2; i <= n + 1; ++i)
        EXPECT_EQ(fc.probe(line(i)), 10 + i <= bound) << "line " << i;

    fc.clear();
    for (std::size_t i = 0; i <= n + 1; ++i)
        EXPECT_FALSE(fc.probe(line(i))) << "line " << i;
}

/** Every declared policy of one scheme-table row. */
struct Row
{
    const char *name;
    SafePoint safePoint;
    SpecLoadPolicy load;
    SpecCoherencePolicy coherence;
    IssueFence fence;
    bool protectsIFetch;
    bool trainsPrefetcher;
    bool agePriority, holdRs, mshrPreempt;
};

void
expectRow(const Scheme &s, const Row &r)
{
    SCOPED_TRACE(r.name);
    EXPECT_EQ(s.name(), r.name);
    EXPECT_EQ(s.safePoint(), r.safePoint);
    EXPECT_EQ(s.specLoadPolicy(), r.load);
    EXPECT_EQ(s.specCoherencePolicy(), r.coherence);
    EXPECT_EQ(s.issueFence(), r.fence);
    EXPECT_EQ(s.protectsIFetch(), r.protectsIFetch);
    EXPECT_EQ(s.trainsPrefetcher(), r.trainsPrefetcher);
    EXPECT_EQ(s.schedFlags().strictAgePriority, r.agePriority);
    EXPECT_EQ(s.schedFlags().holdRsUntilRetire, r.holdRs);
    EXPECT_EQ(s.schedFlags().preemptSpecMshr, r.mshrPreempt);
}

TEST(SchemeTableTest, RowsMatchTheDeclaredPolicies)
{
    using SP = SafePoint;
    using LP = SpecLoadPolicy;
    using CP = SpecCoherencePolicy;
    using F = IssueFence;
    // name, safe point, unsafe load, speculative-store coherence,
    // fence, I-fetch hidden, trains prefetcher, sched flags {age
    // priority, hold RS, MSHR preemption}.
    const struct
    {
        SchemeKind kind;
        Row row;
    } rows[] = {
        {SchemeKind::Unsafe,
         {"Unsafe", SP::Always, LP::Visible, CP::EagerUpgrade, F::None,
          false, true, false, false, false}},
        {SchemeKind::DomNonTso,
         {"DoM (non-TSO)", SP::BranchesResolved, LP::DelayOnMiss,
          CP::DeferAll, F::None, false, false, false, false, false}},
        {SchemeKind::DomTso,
         {"DoM (TSO)", SP::TSO, LP::DelayOnMiss, CP::DeferAll, F::None,
          false, false, false, false, false}},
        {SchemeKind::InvisiSpecSpectre,
         {"InvisiSpec (Spectre)", SP::BranchesResolved,
          LP::InvisibleRequest, CP::DeferUpgrade, F::None, false, true,
          false, false, false}},
        {SchemeKind::InvisiSpecFuturistic,
         {"InvisiSpec (Futuristic)", SP::RobHead, LP::InvisibleRequest,
          CP::DeferUpgrade, F::None, false, true, false, false, false}},
        {SchemeKind::SafeSpecWfb,
         {"SafeSpec (WFB)", SP::BranchesResolved, LP::InvisibleRequest,
          CP::DeferUpgrade, F::None, true, true, false, false, false}},
        {SchemeKind::SafeSpecWfc,
         {"SafeSpec (WFC)", SP::RobHead, LP::InvisibleRequest,
          CP::DeferUpgrade, F::None, true, true, false, false, false}},
        {SchemeKind::MuonTrap,
         {"MuonTrap", SP::RobHead, LP::InvisibleFilter, CP::DeferUpgrade,
          F::None, true, true, false, false, false}},
        {SchemeKind::ConditionalSpec,
         {"Conditional Spec.", SP::RobHead, LP::DelayOnMiss,
          CP::DeferAll, F::None, false, false, false, false, false}},
        {SchemeKind::FenceSpectre,
         {"Fence (Spectre)", SP::BranchesResolved, LP::DelayAlways,
          CP::DeferAll, F::Branches, false, false, false, false, false}},
        {SchemeKind::FenceFuturistic,
         {"Fence (Futuristic)", SP::TSO, LP::DelayAlways, CP::DeferAll,
          F::BranchesAndLoads, false, false, false, false, false}},
        {SchemeKind::AdvancedDefense,
         {"Advanced (DoM+prio)", SP::BranchesResolved, LP::DelayOnMiss,
          CP::DeferAll, F::None, false, false, true, true, true}},
    };
    ASSERT_EQ(std::size(rows), allSchemes().size());
    for (const auto &r : rows)
        expectRow(makeScheme(r.kind), r.row);

    // The ablation-only row: the rules on an InvisiSpec-style
    // substrate, with the scheduler flags as given.
    SchedFlags rules;
    rules.strictAgePriority = true;
    rules.preemptSpecMshr = true;
    expectRow(advancedDefense(rules, SpecLoadPolicy::InvisibleRequest),
              {"Advanced (IS+prio)", SP::BranchesResolved,
               LP::InvisibleRequest, CP::DeferUpgrade, F::None, false,
               true, true, false, true});

    // The default is the Unsafe row.
    expectRow(Scheme(), rows[0].row);
}

TEST(AdvancedDefense, FlagsReflectRules)
{
    // Every rule subset, on either substrate, comes back as given.
    for (unsigned bits = 0; bits < 8; ++bits) {
        SchedFlags rules;
        rules.strictAgePriority = bits & 1;
        rules.holdRsUntilRetire = bits & 2;
        rules.preemptSpecMshr = bits & 4;
        for (const SpecLoadPolicy base :
             {SpecLoadPolicy::DelayOnMiss,
              SpecLoadPolicy::InvisibleRequest}) {
            const SchedFlags got = advancedDefense(rules, base).schedFlags();
            EXPECT_EQ(got.strictAgePriority, rules.strictAgePriority);
            EXPECT_EQ(got.holdRsUntilRetire, rules.holdRsUntilRetire);
            EXPECT_EQ(got.preemptSpecMshr, rules.preemptSpecMshr);
        }
    }
}

TEST(SchemeFactory, NamesAndProperties)
{
    for (SchemeKind k : allSchemes()) {
        const Scheme s = makeScheme(k);
        EXPECT_FALSE(s.name().empty());
        EXPECT_EQ(schemeName(k), s.name());
    }
    EXPECT_TRUE(makeScheme(SchemeKind::SafeSpecWfb).protectsIFetch());
    EXPECT_TRUE(makeScheme(SchemeKind::MuonTrap).protectsIFetch());
    EXPECT_FALSE(
        makeScheme(SchemeKind::InvisiSpecSpectre).protectsIFetch());
    EXPECT_FALSE(makeScheme(SchemeKind::DomNonTso).protectsIFetch());
    EXPECT_EQ(attackedSchemes().size(), 8u);
    EXPECT_EQ(allSchemes().size(), 12u);
}

} // namespace
} // namespace specint
