/**
 * @file
 * The shared victim/probe channel core: the victim prefix, calibration
 * and the majority-vote transmission loop.
 */

#include "attack/probe_channel.hh"

#include <string>

#include "cpu/pipeline/engine.hh"
#include "sim/log.hh"

namespace specint
{

Addr
buildVictimPrefix(ProbeAttack &atk, Addr base, unsigned predicate_depth)
{
    if (predicate_depth == 0)
        fatal("buildVictimPrefix: predicateDepth must be nonzero");

    std::vector<Addr> n_nodes;
    for (unsigned d = 0; d < predicate_depth; ++d)
        n_nodes.push_back(base + static_cast<Addr>(kLineBytes) * d);
    const Addr t_base = base + static_cast<Addr>(kLineBytes) *
                                   predicate_depth;

    // Predicate chase: LLC-resident links. Each costs an L1+L2 miss and
    // an LLC hit, so the branch resolves (and the squash lands)
    // ~predicate_depth * llcLatency cycles in — the width of the window
    // in which the gadget's interference is observable.
    for (unsigned d = 0; d + 1 < predicate_depth; ++d)
        atk.memInit.emplace_back(n_nodes[d], n_nodes[d + 1]);
    atk.memInit.emplace_back(n_nodes[predicate_depth - 1], 1);
    for (Addr a : n_nodes)
        atk.llcWarmLines.push_back(a);

    atk.secretSlot = t_base;
    atk.warmLines.push_back(t_base);

    Program &v = atk.victim;
    v.setReg(kIndexReg, 5);
    v.load(kPredicateReg, kNoReg, static_cast<std::int64_t>(n_nodes[0]), 1,
           "n0");
    for (unsigned d = 1; d < predicate_depth; ++d)
        v.load(kPredicateReg, kPredicateReg, 0, 1, "n" + std::to_string(d));

    // Mis-trained: predicted taken (gadget), architecturally not-taken
    // (index 5 >= predicate 1).
    atk.branchPc = v.branch(BranchCond::LT, kIndexReg, kPredicateReg, 0,
                            "branch");
    v.halt();
    v.setBranchTarget(atk.branchPc, static_cast<unsigned>(v.size()));
    v.load(kSecretReg, kNoReg, static_cast<std::int64_t>(t_base), 1,
           "access");
    return t_base + kLineBytes;
}

ProbeCalibration
ProbeHarness::calibrate(std::uint64_t min_gap)
{
    // The known-secret runs must be noiseless or a borderline gap
    // could randomly fall under min_gap: suspend any installed noise
    // model for the two calibration trials.
    PipelineEngine &victim = victimEngine();
    NoiseModel *saved = victim.noiseModel();
    victim.setNoise(nullptr);
    std::uint64_t score[2] = {0, 0};
    for (unsigned secret = 0; secret < 2; ++secret) {
        prepare(secret);
        score[secret] = runTrial().score;
    }
    victim.setNoise(saved);

    ProbeCalibration cal;
    cal.score0 = score[0];
    cal.score1 = score[1];
    cal.oneIsHigh = score[1] > score[0];
    const std::uint64_t gap = cal.oneIsHigh ? score[1] - score[0]
                                            : score[0] - score[1];
    cal.usable = gap >= min_gap;
    cal.threshold =
        (static_cast<double>(score[0]) + static_cast<double>(score[1])) /
        2.0;
    return cal;
}

ProbeChannelResult
ProbeHarness::transmit(const std::vector<std::uint8_t> &bits,
                       const ProbeChannelConfig &cfg)
{
    NoiseModel noise(cfg.noise, cfg.seed);
    victimEngine().setNoise(&noise);

    ProbeChannelResult res;
    res.calibration = calibrate(cfg.minCalibrationGap);
    for (std::uint8_t bit : bits) {
        // A closed channel runs no trial: every bit decodes as 0.
        unsigned votes[2] = {0, 0};
        for (unsigned t = 0;
             res.calibration.usable && t < cfg.trialsPerBit; ++t) {
            prepare(bit, &noise);
            const ProbeTrialOutcome out = runTrial();
            res.channel.totalCycles += out.cycles + cfg.perTrialOverheadCycles;
            ++votes[res.calibration.decode(out.score)];
        }
        const unsigned decoded = votes[1] > votes[0] ? 1u : 0u;
        ++res.channel.bitsSent;
        if (decoded != bit)
            ++res.channel.bitErrors;
    }
    victimEngine().setNoise(nullptr);
    return res;
}

} // namespace specint
