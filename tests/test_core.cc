/**
 * @file
 * Out-of-order core tests: functional correctness (dataflow, memory,
 * branches, squash recovery) and the microarchitectural timing
 * properties the attacks build on (non-pipelined EU occupancy, CDB
 * bandwidth, MSHR limits, age-ordered issue), plus the ring-slot sets
 * the stages walk and the safe-point ages, fence gate and store wait
 * derived from them.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/core.hh"
#include "cpu/pipeline/thread_context.hh"
#include "memory/hierarchy.hh"
#include "spec/scheme.hh"

namespace specint
{
namespace
{

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : hier(HierarchyConfig::small()), core(cfg(), 0, hier, mem)
    {}

    static CoreConfig cfg()
    {
        CoreConfig c;
        c.maxCycles = 200000;
        return c;
    }

    Hierarchy hier;
    MainMemory mem;
    Core core;
};

TEST_F(CoreTest, AluChainComputesArchitecturalResult)
{
    Program p;
    p.movi(1, 5);
    p.alu(2, 1, 1, 2); // r2 = 5 + 5 + 2
    p.alu(3, 2, 1, 0); // r3 = 12 + 5
    p.halt();
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(core.archReg(2), 12u);
    EXPECT_EQ(core.archReg(3), 17u);
}

TEST_F(CoreTest, MulAndPassThroughOps)
{
    Program p;
    p.movi(1, 6);
    p.mul(2, 1, 1, 1); // 6*6+1
    p.sqrt(3, 2);      // pass-through
    p.fdiv(4, 3);
    p.halt();
    core.run(p);
    EXPECT_EQ(core.archReg(2), 37u);
    EXPECT_EQ(core.archReg(3), 37u);
    EXPECT_EQ(core.archReg(4), 37u);
}

TEST_F(CoreTest, LoadReadsMemory)
{
    mem.write(0x1000, 99);
    Program p;
    p.load(1, kNoReg, 0x1000);
    p.halt();
    core.run(p);
    EXPECT_EQ(core.archReg(1), 99u);
}

TEST_F(CoreTest, ScaledAddressing)
{
    mem.write(0x2000 + 3 * 64, 7);
    Program p;
    p.movi(1, 3);
    p.load(2, 1, 0x2000, 64); // mem[3*64 + 0x2000]
    p.halt();
    core.run(p);
    EXPECT_EQ(core.archReg(2), 7u);
}

TEST_F(CoreTest, StoreVisibleAfterRetire)
{
    Program p;
    p.movi(1, 0x3000);
    p.movi(2, 55);
    p.store(1, 2, 0);
    p.halt();
    core.run(p);
    EXPECT_EQ(mem.read(0x3000), 55u);
}

TEST_F(CoreTest, StoreToLoadForwarding)
{
    Program p;
    p.movi(1, 0x4000);
    p.movi(2, 77);
    p.store(1, 2, 0);
    p.load(3, 1, 0, 1, "fwd");
    p.halt();
    core.run(p);
    EXPECT_EQ(core.archReg(3), 77u);
    // The forwarded load must beat any plausible cache miss.
    const auto *e = core.traceEntry("fwd");
    ASSERT_NE(e, nullptr);
    EXPECT_LT(e->completeAt - e->issuedAt,
              hier.config().l2Latency + hier.config().l1Latency);
}

TEST_F(CoreTest, BranchTakenSkipsInstructions)
{
    Program p;
    p.movi(1, 1);
    p.movi(2, 2);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0); // 1 < 2: taken
    p.movi(3, 111); // skipped
    const unsigned tgt = p.movi(4, 222);
    p.halt();
    p.setBranchTarget(br, tgt);
    core.run(p);
    EXPECT_EQ(core.archReg(3), 0u);
    EXPECT_EQ(core.archReg(4), 222u);
}

TEST_F(CoreTest, MispredictSquashRestoresState)
{
    // Branch is actually taken; untrained predictor says not-taken, so
    // the wrong path (r3 = 111) executes transiently and must leave no
    // architectural trace.
    Program p;
    p.movi(1, 1);
    p.movi(2, 2);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0);
    p.movi(3, 111); // wrong path
    const unsigned tgt = p.alu(4, 3, kNoReg, 1); // r4 = r3 + 1
    p.halt();
    p.setBranchTarget(br, tgt);
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.squashes, 1u);
    EXPECT_EQ(core.archReg(3), 0u);
    EXPECT_EQ(core.archReg(4), 1u); // r3's *architectural* value is 0
}

TEST_F(CoreTest, CounterLoopExecutes)
{
    // r1 counts 0..9 via a backward branch; the predictor warms up.
    Program p;
    p.movi(1, 0);
    p.movi(2, 10);
    const unsigned top = p.alu(1, 1, kNoReg, 1); // r1 += 1
    p.branch(BranchCond::LT, 1, 2, top);
    p.halt();
    const CoreStats s = core.run(p);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(core.archReg(1), 10u);
    EXPECT_GE(s.branches, 10u);
}

TEST_F(CoreTest, MaxCyclesGuardFires)
{
    Program p;
    p.movi(1, 0);
    const unsigned top = p.alu(1, 1, kNoReg, 0); // r1 unchanged
    p.branch(BranchCond::GE, 1, 1, top);         // always taken
    p.halt();
    CoreConfig c = cfg();
    c.maxCycles = 2000;
    Core small(c, 0, hier, mem);
    const CoreStats s = small.run(p);
    EXPECT_FALSE(s.finished);
    EXPECT_EQ(s.cycles, 2000u);
}

TEST_F(CoreTest, NonPipelinedUnitSerialisesIndependentOps)
{
    // Two independent sqrts contend for the single non-pipelined port-0
    // unit: the second starts only after the first completes.
    Program p;
    p.movi(1, 4);
    p.movi(2, 9);
    p.sqrt(3, 1, "s1");
    p.sqrt(4, 2, "s2");
    p.halt();
    core.run(p);
    const auto *s1 = core.traceEntry("s1");
    const auto *s2 = core.traceEntry("s2");
    ASSERT_NE(s1, nullptr);
    ASSERT_NE(s2, nullptr);
    const Tick lat = opTraits(Op::FpSqrt).latency;
    EXPECT_GE(std::max(s1->issuedAt, s2->issuedAt),
              std::min(s1->issuedAt, s2->issuedAt) + lat);
}

TEST_F(CoreTest, PipelinedUnitsDoNotSerialise)
{
    Program p;
    p.movi(1, 4);
    p.movi(2, 9);
    p.mul(3, 1, kNoReg, 0, "m1");
    p.mul(4, 2, kNoReg, 0, "m2");
    p.halt();
    core.run(p);
    const auto *m1 = core.traceEntry("m1");
    const auto *m2 = core.traceEntry("m2");
    ASSERT_NE(m1, nullptr);
    ASSERT_NE(m2, nullptr);
    // Port 1 accepts one mul per cycle: gap of 1, not the full latency.
    EXPECT_LE(std::max(m1->issuedAt, m2->issuedAt),
              std::min(m1->issuedAt, m2->issuedAt) + 1);
}

TEST_F(CoreTest, AgeOrderedIssuePrefersOlder)
{
    // Both sqrts become ready the same cycle; the older one must issue
    // first on the shared non-pipelined unit.
    Program p;
    p.movi(1, 4);
    p.sqrt(2, 1, "older");
    p.sqrt(3, 1, "younger");
    p.halt();
    core.run(p);
    EXPECT_LT(core.traceEntry("older")->issuedAt,
              core.traceEntry("younger")->issuedAt);
}

TEST_F(CoreTest, CdbWidthLimitsWritebackThroughput)
{
    // 16 independent 1-cycle ALUs; with cdbWidth=1 their writebacks
    // serialise and the program takes visibly longer.
    Program p;
    for (unsigned i = 0; i < 16; ++i)
        p.alu(static_cast<RegId>(8 + i), kNoReg, kNoReg, i);
    p.halt();

    CoreConfig wide = cfg();
    wide.cdbWidth = 8;
    CoreConfig narrow = cfg();
    narrow.cdbWidth = 1;

    Hierarchy h1(HierarchyConfig::small()), h2(HierarchyConfig::small());
    MainMemory m1, m2;
    // Pre-warm the code lines so cold I-fetch misses do not mask the
    // writeback bottleneck.
    for (unsigned pc = 0; pc < p.size(); ++pc) {
        h1.access(0, p.instLine(pc), AccessType::Instr, 0);
        h2.access(0, p.instLine(pc), AccessType::Instr, 0);
    }
    Core cw(wide, 0, h1, m1), cn(narrow, 0, h2, m2);
    const auto sw = cw.run(p);
    const auto sn = cn.run(p);
    EXPECT_GT(sn.cycles, sw.cycles);
}

TEST_F(CoreTest, MshrLimitDelaysExtraMisses)
{
    // More concurrent independent misses than MSHRs: with 2 MSHRs the
    // later loads wait a full memory round-trip longer.
    Program p;
    for (unsigned i = 0; i < 6; ++i)
        p.load(static_cast<RegId>(8 + i), kNoReg,
               0x100000 + 0x10000 * i, 1, "ld" + std::to_string(i));
    p.halt();

    CoreConfig few = cfg();
    few.mshrs = 2;
    Hierarchy h1(HierarchyConfig::small());
    MainMemory m1;
    Core c1(few, 0, h1, m1);
    c1.run(p);
    const Tick t_first = c1.traceEntry("ld0")->issuedAt;
    const Tick t_last = c1.traceEntry("ld5")->issuedAt;
    EXPECT_GE(t_last, t_first + h1.config().memLatency);

    CoreConfig many = cfg();
    many.mshrs = 16;
    Hierarchy h2(HierarchyConfig::small());
    MainMemory m2;
    Core c2(many, 0, h2, m2);
    c2.run(p);
    EXPECT_LT(c2.traceEntry("ld5")->issuedAt,
              t_first + h2.config().memLatency);
}

TEST_F(CoreTest, FenceIssuesOnlyAtRobHead)
{
    Program p;
    p.load(1, kNoReg, 0x9000, 1, "slow"); // cold miss
    p.fence("fence");
    p.alu(2, kNoReg, kNoReg, 1, "after");
    p.halt();
    core.run(p);
    const auto *slow = core.traceEntry("slow");
    const auto *fence = core.traceEntry("fence");
    ASSERT_NE(slow, nullptr);
    ASSERT_NE(fence, nullptr);
    EXPECT_GE(fence->issuedAt, slow->completeAt);
}

TEST_F(CoreTest, WrongPathLoadsLeaveCacheState)
{
    // Baseline (unsafe) semantics: a transient load fills the cache —
    // this is exactly what Spectre exploits and what the schemes under
    // test must prevent.
    mem.write(0x5000, 1); // secret = 1
    mem.write(0x6000, 0x6100);
    mem.write(0x6100, 2); // N = 2, reached via a cold pointer chase
    Program p;
    p.movi(1, 5);
    p.load(2, kNoReg, 0x6000); // slow predicate: branch resolves late
    p.load(2, 2, 0);
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0); // 5<2: no
    p.halt(); // correct path
    const unsigned wrong = p.load(3, kNoReg, 0x5000, 1, "secret");
    p.load(4, 3, 0x700000, 64); // transmit: fills 0x700000+secret*64
    p.halt();
    p.setBranchTarget(br, wrong);
    // Warm the secret's line so the transient access is fast (Spectre
    // assumes the secret itself is cached).
    hier.access(0, 0x5000, AccessType::Data, 0);
    core.predictor().train(br, true, 4); // mistrain: predict taken
    const CoreStats s = core.run(p);
    EXPECT_GE(s.squashes, 1u);
    EXPECT_EQ(core.archReg(3), 0u); // squashed architecturally
    EXPECT_TRUE(hier.llcContains(0x700000 + 64)); // ...but cache leaks
    EXPECT_FALSE(hier.llcContains(0x700000));
}

TEST_F(CoreTest, TraceRecordsLabeledTimings)
{
    Program p;
    p.movi(1, 3, "a");
    p.alu(2, 1, kNoReg, 1, "b");
    p.halt();
    core.run(p);
    const auto *a = core.traceEntry("a");
    const auto *b = core.traceEntry("b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_LE(a->dispatchedAt, a->issuedAt);
    EXPECT_LT(a->issuedAt, a->completeAt);
    EXPECT_LE(a->completeAt, a->retiredAt);
    EXPECT_GT(b->completeAt, a->completeAt); // dependency
    EXPECT_TRUE(core.completedBefore("a", "b"));
}

TEST_F(CoreTest, RerunResetsPipelineState)
{
    Program p;
    p.movi(1, 9);
    p.halt();
    core.run(p);
    Program q;
    q.alu(1, 1, kNoReg, 1); // reads initial r1 = 0
    q.halt();
    core.run(q);
    EXPECT_EQ(core.archReg(1), 1u);
}

// ---------------------------------------------------------------------
// Per-slot sets: ring slots walked from the head slot come out in age
// order, across the wrap and across bitmap words
// ---------------------------------------------------------------------

/** Seqs of @p set's members, walked oldest first from @p rob's head. */
std::vector<SeqNum>
walkByAge(const Rob &rob, const SlotSet &set)
{
    std::vector<SeqNum> seqs;
    for (std::size_t age = set.nextByAge(rob.headSlot(), 0);
         age != SlotSet::kNone; age = set.nextByAge(rob.headSlot(), age + 1))
        seqs.push_back(rob.at(age)->seq);
    return seqs;
}

/** A ROB of @p capacity whose head sits at slot @p head_slot, holding
 *  @p live entries with seqs 1000, 1001, ... */
void
fillWrapped(Rob &rob, std::size_t head_slot, std::size_t live)
{
    for (std::size_t i = 0; i < head_slot; ++i) {
        rob.allocTail(i);
        rob.popHead();
    }
    for (std::size_t i = 0; i < live; ++i)
        rob.allocTail(1000 + i);
}

TEST(SlotSetTest, WalksMembersOldestFirstAcrossTheRingWrap)
{
    // Six slots, head at slot 4: seqs 1000-1004 live in slots 4, 5,
    // 0, 1, 2.
    Rob rob(6);
    fillWrapped(rob, 4, 5);
    ASSERT_EQ(rob.headSlot(), 4u);
    SlotSet set(rob.capacity());
    for (SeqNum s : {1004u, 1001u, 1002u})
        set.insert(rob.slotOf(*rob.find(s)));
    EXPECT_EQ(walkByAge(rob, set), (std::vector<SeqNum>{1001, 1002, 1004}));

    set.erase(rob.slotOf(*rob.find(1002)));
    EXPECT_FALSE(set.contains(rob.slotOf(*rob.find(1002))));
    EXPECT_EQ(walkByAge(rob, set), (std::vector<SeqNum>{1001, 1004}));
    set.clear();
    EXPECT_EQ(set.nextByAge(rob.headSlot(), 0), SlotSet::kNone);
}

TEST(SlotSetTest, WalksMembersOldestFirstAcrossBitmapWords)
{
    // 130 slots (three words), head at slot 100: ages 0-29 sit in
    // slots 100-129, ages 30-59 in slots 0-29.
    Rob rob(130);
    fillWrapped(rob, 100, 60);
    SlotSet set(rob.capacity());
    for (SeqNum s : {1059u, 1030u, 1029u, 1000u, 1027u, 1033u})
        set.insert(rob.slotOf(*rob.find(s)));
    EXPECT_EQ(walkByAge(rob, set),
              (std::vector<SeqNum>{1000, 1027, 1029, 1030, 1033, 1059}));
}

// ---------------------------------------------------------------------
// Safe points as one age: safeUpTo() against the per-entry rule it
// replaced, a running shadow folded over the window oldest first
// ---------------------------------------------------------------------

TEST(ThreadContextTest, SafeUpToMatchesThePerEntryRule)
{
    // Windows of ages 0-7, oldest first: 'B' an unresolved branch, 'L'
    // an incomplete load, 'S' an incomplete store, '.' anything else.
    const std::string windows[] = {"........", "B.......", "...B....",
                                   ".L......", "..S.....", "B..L..S.",
                                   "S..B..L.", ".L.B....", "......LB",
                                   ".......S"};
    const SafePoint points[] = {SafePoint::Always,
                                SafePoint::BranchesResolved,
                                SafePoint::TSO, SafePoint::RobHead};
    for (const std::string &w : windows) {
        const auto oldest = [&w](const char *kinds) {
            const std::size_t a = w.find_first_of(kinds);
            return a == std::string::npos ? SlotSet::kNone : a;
        };
        Frontiers f;
        f.branch = oldest("B");
        f.load = oldest("L");
        f.store = oldest("S");
        for (const SafePoint sp : points) {
            // Shadows cast by strictly older entries.
            bool older_branch = false;
            bool older_mem = false;
            for (std::size_t age = 0; age < w.size(); ++age) {
                bool safe = false;
                switch (sp) {
                  case SafePoint::Always:
                    safe = true;
                    break;
                  case SafePoint::BranchesResolved:
                    safe = !older_branch;
                    break;
                  case SafePoint::TSO:
                    safe = !older_branch && !older_mem;
                    break;
                  case SafePoint::RobHead:
                    safe = age == 0;
                    break;
                }
                EXPECT_EQ(age <= safeUpTo(f, sp), safe)
                    << w << " safe point " << static_cast<int>(sp)
                    << " age " << age;
                older_branch |= w[age] == 'B';
                older_mem |= w[age] == 'L' || w[age] == 'S';
            }
        }
    }
}

TEST(ThreadContextTest, IssueGateMatchesTheFenceRule)
{
    // Windows of ages 0-7, oldest first: 'B' an unresolved branch, 'L'
    // an incomplete load, 'S' an incomplete store, '.' an ALU op. An
    // entry is gated iff an older entry is one its scheme's fence waits
    // on: branches under Fence (Spectre), branches and loads but never
    // stores under Fence (Futuristic) — although its TSO safe point
    // counts the store frontier. No other scheme gates an entry that
    // is neither parked until safe nor a fence instruction.
    const std::string windows[] = {"........", "B.......", "...B....",
                                   ".L......", "S.......", "B..L..S.",
                                   "S..B..L.", ".S.L....", "..LS..B.",
                                   "......LB"};
    const struct
    {
        SchemeKind kind;
        const char *waitsOn;
    } schemes[] = {
        {SchemeKind::FenceSpectre, "B"},
        {SchemeKind::FenceFuturistic, "BL"},
        {SchemeKind::Unsafe, ""},
        {SchemeKind::DomTso, ""},
        {SchemeKind::InvisiSpecFuturistic, ""},
        {SchemeKind::AdvancedDefense, ""},
    };
    CoreConfig cfg;
    cfg.robSize = 8;
    StaticInst branch, load, store, alu;
    branch.op = Op::Branch;
    load.op = Op::Load;
    store.op = Op::Store;
    alu.op = Op::IntAlu;
    for (const auto &sc : schemes) {
        for (const std::string &w : windows) {
            ThreadContext th(cfg, 0);
            th.scheme = makeScheme(sc.kind);
            for (std::size_t age = 0; age < w.size(); ++age) {
                DynInst &d = th.rob.allocTail(age);
                const std::size_t slot = th.rob.slotOf(d);
                switch (w[age]) {
                  case 'B':
                    d.setStaticInst(&branch);
                    th.unresolvedBranches.insert(slot);
                    break;
                  case 'L':
                    d.setStaticInst(&load);
                    th.incompleteLoads.insert(slot);
                    break;
                  case 'S':
                    d.setStaticInst(&store);
                    th.incompleteStores.insert(slot);
                    break;
                  default:
                    d.setStaticInst(&alu);
                }
            }
            const Frontiers f = th.frontiers();
            const std::size_t safe = safeUpTo(f, th.scheme.safePoint());
            bool waiting = false;
            for (std::size_t age = 0; age < w.size(); ++age) {
                EXPECT_EQ(th.issueGated(*th.rob.at(age), age, f, safe),
                          waiting)
                    << schemeName(sc.kind) << " " << w << " age " << age;
                waiting |= std::string(sc.waitsOn).find(w[age]) !=
                           std::string::npos;
            }
        }
    }
}

TEST(ThreadContextTest, StoreWaitMatchesTheOlderStoreWalk)
{
    // Windows of ages 0-7, oldest first: 'S' a store not written back
    // (its address unknown), 's' a written-back store, 'L' a load, '.'
    // an ALU op. Each is laid out from every head slot of an 8-entry
    // ring, so the frontier is also read across the wrap.
    const std::string windows[] = {"L.......", "S.L.....", "s.L.....",
                                   "sSL.L...", "LsL.S.L.", "ssssLLLL",
                                   "s.s.S.L.", "L.S.s.sL", ".....SsL",
                                   "SLSLsLsL"};
    CoreConfig cfg;
    cfg.robSize = 8;
    StaticInst load, store, alu;
    load.op = Op::Load;
    store.op = Op::Store;
    alu.op = Op::IntAlu;
    for (const std::string &w : windows) {
        for (SeqNum head = 0; head < cfg.robSize; ++head) {
            ThreadContext th(cfg, 0);
            for (SeqNum seq = 0; seq < head; ++seq) {
                th.rob.allocTail(seq);
                th.rob.popHead();
            }
            for (std::size_t age = 0; age < w.size(); ++age) {
                DynInst &d = th.rob.allocTail(head + age);
                d.setStaticInst(w[age] == 'L'   ? &load
                                : w[age] == '.' ? &alu
                                                : &store);
                if (w[age] == 's')
                    d.state = InstState::WrittenBack;
                if (w[age] == 'S')
                    th.incompleteStores.insert(th.rob.slotOf(d));
            }
            const Frontiers f = th.frontiers();
            for (std::size_t age = 0; age < w.size(); ++age) {
                const DynInst &inst = *th.rob.at(age);
                // The reference: walk the older entries; a load waits
                // iff one of them is a store not written back.
                bool blocked = false;
                for (std::size_t older = 0; older < age; ++older) {
                    const DynInst &o = *th.rob.at(older);
                    if (o.isStore() && !o.writtenBack())
                        blocked = true;
                }
                EXPECT_EQ(waitsOnStore(inst, age, f),
                          inst.isLoad() && blocked)
                    << w << " head " << head << " age " << age;
            }
        }
    }
}

} // namespace
} // namespace specint
