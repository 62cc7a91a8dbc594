/**
 * @file
 * Synthetic workload generator implementation: seeded program
 * synthesis across the SPEC CPU2017-archetype behavioural axes (MLP,
 * branch behaviour, ALU/FP mix, footprint).
 */

#include "workload/generator.hh"

#include <algorithm>

#include "sim/rng.hh"

namespace specint
{

namespace
{

constexpr Addr kDataBase = 0x08000000;
constexpr Addr kRingBase = 0x0c000000;

/** Registers reserved by the generator. */
constexpr RegId rChase = 1;  ///< pointer-chase cursor
constexpr RegId rData = 2;   ///< last loaded value (branch fodder)
constexpr RegId rFirstTmp = 8;
constexpr unsigned kTmpRegs = 24;

} // namespace

GeneratedWorkload
generateWorkload(const WorkloadSpec &spec)
{
    GeneratedWorkload out;
    Rng rng(spec.seed);
    Program &prog = out.prog;
    if (spec.codeBase)
        prog = Program(spec.codeBase);
    // A branch block may overshoot the count by 4 (a predicate load, the
    // branch and 3 skipped ALU ops), and then comes the halt.
    prog.reserve(spec.instructions + 5);

    const unsigned footprint = std::max(1u, spec.footprintLines);
    // Same region split as the defaults (ring 64 MB past the data), so
    // dataBase == 0 reproduces the historical layout bit-for-bit.
    const Addr data_base = spec.dataBase ? spec.dataBase : kDataBase;
    const Addr ring_base = data_base + (kRingBase - kDataBase);

    // Chase loads walk the image's pointer ring from its first line.
    prog.setReg(rChase, ring_base);

    // Branch predicate data: word 0 of every footprint line holds a
    // uniform value in [0, 100), so predicate loads are as cold as the
    // workload's data stream and resolve as slowly.
    std::vector<std::uint8_t> predicates(footprint);
    for (std::uint8_t &p : predicates)
        p = static_cast<std::uint8_t>(rng.below(100));
    out.memInit = MemImage(ring_base, data_base, std::move(predicates));

    const std::int64_t taken_threshold =
        static_cast<std::int64_t>(spec.branchTakenProb * 100.0);

    // Every draw is its own statement, never one of several arguments
    // of a call: argument order is unspecified, and the seeded streams
    // (and the golden traces pinned on them) must not depend on the
    // compiler's choice. Where a builder takes several drawn operands,
    // the historical order is the last operand first (src2, src1, dst).
    auto tmp = [&]() -> RegId {
        return static_cast<RegId>(rFirstTmp + rng.below(kTmpRegs));
    };
    auto footprint_addr = [&]() -> std::int64_t {
        // Line-then-word is the historical order.
        const std::uint64_t line = rng.below(footprint);
        const std::uint64_t word = rng.below(8);
        return static_cast<std::int64_t>(data_base + 64ULL * line +
                                         8ULL * word);
    };
    // dst = src1 op src2 + 1 (IntAlu or IntMul) over three temporaries.
    auto arith = [&](Op op) {
        StaticInst si;
        si.op = op;
        si.src2 = tmp();
        si.src1 = tmp();
        si.dst = tmp();
        si.imm = 1;
        prog.add(si);
    };

    unsigned emitted = 0;
    while (emitted < spec.instructions) {
        const double roll = rng.uniform();
        double acc = spec.loadFrac;
        if (roll < acc) {
            if (rng.uniform() < spec.chaseFrac) {
                prog.load(rChase, rChase, 0);
            } else {
                prog.load(rData, kNoReg, footprint_addr());
            }
        } else if (roll < (acc += spec.storeFrac)) {
            const std::int64_t addr = footprint_addr();
            const RegId value = tmp();
            prog.store(kNoReg, value, addr);
        } else if (roll < (acc += spec.branchFrac)) {
            // Data-dependent forward branch over 1-3 instructions.
            // Half the branches load a fresh predicate word (taken iff
            // word < threshold in r63: hard to predict); the other
            // half compare the *last footprint load's* value — always
            // taken (footprint words are zero) and thus predictable,
            // but slow to resolve when that load missed. The second
            // kind is what makes fence-style defenses expensive on
            // memory-bound workloads (Fig. 12).
            RegId pred;
            unsigned extra = 0;
            if (rng.chance(0.5)) {
                pred = tmp();
                prog.load(pred, kNoReg,
                          static_cast<std::int64_t>(
                              data_base + 64ULL * rng.below(footprint)));
                extra = 1;
            } else {
                // A branch on rChase compares the pointer (nonzero)
                // conservatively: rChase >= threshold, so LT is
                // not-taken.
                pred = spec.chaseFrac > 0 && rng.chance(spec.chaseFrac)
                           ? rChase
                           : rData;
            }
            const unsigned br =
                prog.branch(BranchCond::LT, pred, 63, 0);
            const unsigned skip = 1 + static_cast<unsigned>(
                                          rng.below(3));
            for (unsigned k = 0; k < skip; ++k)
                arith(Op::IntAlu);
            prog.setBranchTarget(br,
                                 static_cast<std::uint32_t>(
                                     prog.size()));
            emitted += skip + 1 + extra;
            continue;
        } else if (roll < (acc += spec.mulFrac)) {
            arith(Op::IntMul);
        } else if (roll < (acc += spec.sqrtFrac)) {
            const RegId src1 = tmp();
            const RegId dst = tmp();
            prog.sqrt(dst, src1);
        } else {
            arith(Op::IntAlu);
        }
        ++emitted;
    }
    prog.halt();
    prog.setReg(63, static_cast<std::uint64_t>(taken_threshold));
    return out;
}

std::vector<WorkloadSpec>
spec2017Archetypes(unsigned instructions)
{
    auto mk = [&](std::string name, double load, double store,
                  double branch, double mul, double sqrt, double chase,
                  unsigned footprint, double taken,
                  std::uint64_t seed) {
        WorkloadSpec s;
        s.name = std::move(name);
        s.instructions = instructions;
        s.loadFrac = load;
        s.storeFrac = store;
        s.branchFrac = branch;
        s.mulFrac = mul;
        s.sqrtFrac = sqrt;
        s.chaseFrac = chase;
        s.footprintLines = footprint;
        s.branchTakenProb = taken;
        s.seed = seed;
        return s;
    };
    return {
        // name            ld    st    br    mul   sqrt  chase  foot   p(t)  seed
        mk("perlbench_r", 0.28, 0.10, 0.12, 0.02, 0.00, 0.05, 512, 0.12, 101),
        mk("gcc_r",       0.25, 0.08, 0.18, 0.02, 0.00, 0.05, 1024, 0.30, 102),
        mk("mcf_r",       0.35, 0.05, 0.10, 0.02, 0.00, 0.60, 16384, 0.20, 103),
        mk("omnetpp_r",   0.30, 0.08, 0.12, 0.02, 0.00, 0.35, 8192, 0.15, 104),
        mk("xalancbmk_r", 0.32, 0.06, 0.14, 0.02, 0.00, 0.15, 4096, 0.20, 105),
        mk("x264_r",      0.22, 0.08, 0.05, 0.12, 0.00, 0.00, 1024, 0.05, 106),
        mk("deepsjeng_r", 0.24, 0.06, 0.15, 0.04, 0.00, 0.10, 2048, 0.35, 107),
        mk("leela_r",     0.22, 0.05, 0.14, 0.06, 0.00, 0.10, 1024, 0.25, 108),
        mk("exchange2_r", 0.12, 0.04, 0.10, 0.04, 0.00, 0.00, 64, 0.08, 109),
        mk("lbm_r",       0.30, 0.15, 0.02, 0.06, 0.02, 0.00, 16384, 0.02, 110),
        mk("imagick_r",   0.18, 0.06, 0.04, 0.14, 0.08, 0.00, 512, 0.04, 111),
        mk("nab_r",       0.22, 0.07, 0.06, 0.10, 0.04, 0.05, 1024, 0.08, 112),
    };
}

} // namespace specint
