/**
 * @file
 * attack_trials: every Table 1 cell (evaluateCell over
 * tableOneCombos() x allSchemes()), plus Fig. 11 D-Cache (QLRU
 * receiver) and I-Cache (Flush+Reload) channel trials under DoM with
 * calibrated noise. The channel loop mirrors runDCacheChannel /
 * runICacheChannel call for call, so fixture acquisition, sender
 * build, prepare, the victim run and each receiver call get their
 * own span. Units are ~300-cycle victim trials, so per-trial overheads
 * are a large share of host time.
 *
 * Before the first pass (untimed) every channel run is also made once
 * through the library's own runDCacheChannel / runICacheChannel. Each
 * pass compares its tallies (bits sent, bit errors, discarded trials)
 * with those results, so a copy that drifts from the library shows as
 * failed units.
 */

#include <optional>
#include <vector>

#include "attack/channel.hh"
#include "attack/matrix.hh"
#include "attack/receiver.hh"
#include "attack/trial_fixture.hh"
#include "memory/eviction_set.hh"
#include "sim/experiment/scenario.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace specint;

constexpr unsigned kRunsPerChannel = 8;
constexpr unsigned kBitsPerRun = 8;
constexpr unsigned kTrialsPerBit = 3;

struct ChannelRun
{
    std::vector<std::uint8_t> bits;
    std::uint64_t noiseSeed = 0;
    /** The library's result for the same bits and noise seed. */
    ChannelResult library;
};

bool
sameTally(const ChannelResult &a, const ChannelResult &b)
{
    return a.bitsSent == b.bitsSent && a.bitErrors == b.bitErrors &&
           a.discardedTrials == b.discardedTrials;
}

class AttackTrials : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        for (unsigned c = 0; c < 2; ++c) {
            for (unsigned r = 0; r < kRunsPerChannel; ++r) {
                ChannelRun &run = runs_[c][r];
                const std::uint64_t k = c * kRunsPerChannel + r;
                run.bits = randomBits(kBitsPerRun,
                                      experiment::splitSeed(seed, 2 * k));
                run.noiseSeed = experiment::splitSeed(seed, 2 * k + 1);
            }
        }
        // The first acquisition constructs the pooled substrate; later
        // ones only reset it.
        const ChannelConfig cfg;
        const Span span("attack.fixture");
        acquireAttackFixture(cfg.core, cfg.hier);
        libraryChecked_ = false;
    }

    void
    beforePass() override
    {
        if (libraryChecked_)
            return;
        for (unsigned c = 0; c < 2; ++c) {
            for (ChannelRun &run : runs_[c]) {
                ChannelConfig cfg;
                cfg.seed = run.noiseSeed;
                cfg.trialsPerBit = kTrialsPerBit;
                run.library = c == 0 ? runDCacheChannel(run.bits, cfg)
                                     : runICacheChannel(run.bits, cfg);
            }
        }
        libraryChecked_ = true;
    }

    void
    runPass(UnitSink &sink) override
    {
        counters_.clear();
        runCells(sink);
        for (unsigned r = 0; r < kRunsPerChannel; ++r)
            runDCache(sink, runs_[0][r], r);
        for (unsigned r = 0; r < kRunsPerChannel; ++r)
            runICache(sink, runs_[1][r], r);
        cycles_ = static_cast<std::uint64_t>(counters_["cpu.sim_cycles"]);
    }

    Counters counters() const override { return counters_; }
    std::uint64_t cyclesPerPass() const override { return cycles_; }

  private:
    void
    runCells(UnitSink &sink)
    {
        for (const auto &[g, o] : tableOneCombos()) {
            for (SchemeKind s : allSchemes()) {
                SpanRecorder::setUnit(sink.nextUnitId());
                const std::int64_t t0 = nowNs();
                MatrixCell cell;
                {
                    const Span span("attack.cell");
                    cell = evaluateCell(g, o, s);
                }
                const std::int64_t dt = nowNs() - t0;
                UnitResult u;
                u.label = "cell/" + gadgetName(g) + "/" + orderingName(o) +
                          "/" + schemeName(s);
                u.output = strf("vulnerable=%d signal0=%d signal1=%d",
                                cell.vulnerable ? 1 : 0, cell.signal0,
                                cell.signal1);
                // Table 1 agreement, up to the documented deviations.
                u.invariantsOk = cell.vulnerable ==
                                 (expectedVulnerable(g, o, s) !=
                                  knownDeviation(g, o, s));
                sink.add(u, dt);
            }
        }
    }

    /** Majority vote over one bit's trials, as the channels decode. */
    void
    countBit(std::uint8_t bit, const unsigned votes[2])
    {
        const std::uint8_t decoded =
            votes[1] > votes[0] ? 1 : (votes[0] > votes[1] ? 0 : 2);
        ++tally_.bitsSent;
        if (decoded != bit) {
            ++tally_.bitErrors;
            counters_["attack.bit_errors"] += 1;
        }
    }

    /** Start a channel run: its units are held until the run's tally
     *  can be compared with the library's. */
    void
    beginRun(UnitSink &sink)
    {
        tally_ = ChannelResult{};
        pending_.clear();
        unitBase_ = sink.nextUnitId();
        SpanRecorder::setUnit(unitBase_);
    }

    void
    addTrial(std::int64_t &t0, const char *channel, unsigned run,
             unsigned bit_index, unsigned trial, std::uint8_t bit,
             int decode, const TrialResult &tr)
    {
        const std::int64_t now = nowNs();
        Pending p;
        p.unit.label = strf("%s/run%u/bit%u/trial%u", channel, run,
                            bit_index, trial);
        p.unit.output = strf("bit=%u decode=%d cycles=%llu finished=%d",
                             bit, decode,
                             static_cast<unsigned long long>(tr.cycles),
                             tr.finished ? 1 : 0);
        p.unit.invariantsOk = tr.finished;
        p.ns = now - t0;
        pending_.push_back(std::move(p));
        counters_["cpu.sim_cycles"] += tr.cycles;
        counters_["attack.trials"] += 1;
        if (decode >= 0)
            counters_["attack.clear_decodes"] += 1;
        else
            ++tally_.discardedTrials;
        t0 = nowNs();
        SpanRecorder::setUnit(unitBase_ + pending_.size());
    }

    /** Report the run's units; every one fails if the run's tally
     *  differs from the library's. */
    void
    endRun(UnitSink &sink, const ChannelRun &run)
    {
        const bool agrees = sameTally(tally_, run.library);
        for (Pending &p : pending_) {
            p.unit.invariantsOk = p.unit.invariantsOk && agrees;
            sink.add(p.unit, p.ns);
        }
        pending_.clear();
    }

    /** One D-Cache channel run. The first trial's unit also carries
     *  the run's fixture, sender and receiver set-up. */
    void
    runDCache(UnitSink &sink, const ChannelRun &run, unsigned r)
    {
        beginRun(sink);
        std::int64_t t0 = nowNs();
        ChannelConfig cfg;
        cfg.noise = NoiseConfig::calibrated();
        SenderParams params = cfg.sender;
        params.gadget = GadgetKind::Npeu;
        params.ordering = OrderingKind::VdVd;

        AttackFixture *fx;
        {
            const Span span("attack.fixture");
            fx = &acquireAttackFixture(cfg.core, cfg.hier);
        }
        NoiseModel noise(cfg.noise, run.noiseSeed);
        fx->victim.setScheme(makeScheme(cfg.scheme));
        fx->victim.setNoise(&noise);
        SenderProgram sender;
        {
            const Span span("attack.sender_build");
            sender = buildSender(params, fx->hier);
        }
        std::optional<QlruReceiver> receiver;
        Addr stray;
        {
            const Span span("memory.receiver");
            receiver.emplace(fx->hier, fx->attacker, sender.addrA,
                             sender.addrB);
            stray = findCongruentAddr(fx->hier, sender.addrA, 0x60000000,
                                      {sender.addrA, sender.addrB});
        }

        for (unsigned b = 0; b < run.bits.size(); ++b) {
            const std::uint8_t bit = run.bits[b];
            unsigned votes[2] = {0, 0};
            for (unsigned t = 0; t < kTrialsPerBit; ++t) {
                {
                    const Span span("attack.prepare");
                    fx->harness.prepare(sender, bit, &noise,
                                        /*flush_monitored=*/false);
                }
                {
                    const Span span("memory.receiver");
                    receiver->prime();
                }
                TrialResult tr;
                {
                    const Span span("attack.trial_run");
                    tr = fx->harness.run(sender);
                }
                OrderDecode d;
                {
                    const Span span("memory.receiver");
                    if (noise.strayEviction())
                        fx->attacker.access(stray);
                    d = receiver->decode();
                }
                if (d != OrderDecode::Unclear)
                    ++votes[static_cast<int>(d)];
                addTrial(t0, "dcache", r, b, t, bit, static_cast<int>(d),
                         tr);
            }
            countBit(bit, votes);
        }
        endRun(sink, run);
    }

    /** One I-Cache channel run (set-up carried by the first trial). */
    void
    runICache(UnitSink &sink, const ChannelRun &run, unsigned r)
    {
        beginRun(sink);
        std::int64_t t0 = nowNs();
        ChannelConfig cfg;
        cfg.noise = NoiseConfig::calibrated();
        SenderParams params = cfg.sender;
        params.gadget = GadgetKind::Rs;
        params.ordering = OrderingKind::Presence;

        AttackFixture *fx;
        {
            const Span span("attack.fixture");
            fx = &acquireAttackFixture(cfg.core, cfg.hier);
        }
        NoiseModel noise(cfg.noise, run.noiseSeed);
        fx->victim.setScheme(makeScheme(cfg.scheme));
        fx->victim.setNoise(&noise);
        SenderProgram sender;
        {
            const Span span("attack.sender_build");
            sender = buildSender(params, fx->hier);
        }
        FlushReloadReceiver receiver(fx->hier, fx->attacker,
                                     sender.icacheTarget);

        for (unsigned b = 0; b < run.bits.size(); ++b) {
            const std::uint8_t bit = run.bits[b];
            unsigned votes[2] = {0, 0};
            for (unsigned t = 0; t < kTrialsPerBit; ++t) {
                {
                    const Span span("attack.prepare");
                    fx->harness.prepare(sender, bit, &noise);
                }
                {
                    const Span span("memory.receiver");
                    receiver.flushTarget();
                }
                TrialResult tr;
                {
                    const Span span("attack.trial_run");
                    tr = fx->harness.run(sender);
                }
                std::uint8_t guess;
                {
                    const Span span("memory.receiver");
                    if (noise.strayEviction())
                        receiver.flushTarget();
                    // Present => transmitter hit => secret bit 0.
                    guess = receiver.probePresent() ? 0 : 1;
                }
                ++votes[guess];
                addTrial(t0, "icache", r, b, t, bit, guess, tr);
            }
            countBit(bit, votes);
        }
        endRun(sink, run);
    }

    /** A trial's unit, held until its channel run ends. */
    struct Pending
    {
        UnitResult unit;
        std::int64_t ns = 0;
    };

    ChannelRun runs_[2][kRunsPerChannel];
    bool libraryChecked_ = false;
    ChannelResult tally_;
    std::vector<Pending> pending_;
    std::uint64_t unitBase_ = 0;
    Counters counters_;
    std::uint64_t cycles_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeAttackTrials()
{
    return std::make_unique<AttackTrials>();
}

} // namespace perfbench
