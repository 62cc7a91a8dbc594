/**
 * @file
 * Scenario: the four cross-core channels — eviction and occupancy
 * (shared-LLC state/bandwidth, cross_core_probe.hh) next to the two
 * opened by the memory model's coherence and prefetcher layers:
 * coherence invalidation and prefetcher training (coherence_probe.hh)
 * — across every defense scheme. One point per combination; the
 * per-scheme verdict (LEAKS/closed) propagates through the experiment
 * harness.
 */

#include "scenarios/scenarios.hh"
#include "scenarios/util.hh"

#include <cstdio>

#include "attack/coherence_probe.hh"
#include "sim/experiment/report.hh"

namespace specint::scenarios
{

namespace
{

using namespace experiment;

/** Transmit @p bits over @p channel against @p scheme; @p clock_ghz
 *  receives the channel's nominal clock. */
ProbeChannelResult
runOne(SchemeKind scheme, const std::string &channel, unsigned trials,
       const std::vector<std::uint8_t> &bits, double &clock_ghz)
{
    if (channel == "eviction" || channel == "occupancy") {
        CrossCoreChannelConfig cfg;
        cfg.scheme = scheme;
        cfg.attack.kind = channel == "occupancy"
                              ? CrossCoreChannelKind::Occupancy
                              : CrossCoreChannelKind::Eviction;
        cfg.trialsPerBit = trials;
        clock_ghz = cfg.clockGhz;
        return runCrossCoreChannel(bits, cfg);
    }
    CoherenceChannelConfig cfg;
    cfg.scheme = scheme;
    cfg.attack.kind = channel == "coherence"
                          ? CoherenceChannelKind::Invalidation
                          : CoherenceChannelKind::PrefetchTraining;
    cfg.trialsPerBit = trials;
    clock_ghz = cfg.clockGhz;
    return runCoherenceChannel(bits, cfg);
}

PointResult
runPoint(const PointContext &ctx, const RunOptions &options)
{
    const SchemeKind scheme = schemeFromName(ctx.point.at("scheme"));
    const std::string &channel = ctx.point.at("channel");

    const std::vector<std::uint8_t> bits = randomBits(
        static_cast<unsigned>(options.extraOr("bits", 12)),
        ctx.baseSeed);

    double clock_ghz = 0.0;
    const ProbeChannelResult res =
        runOne(scheme, channel, ctx.trials, bits, clock_ghz);
    const ProbeCalibration &cal = res.calibration;
    const double err = res.channel.errorRate();
    const double bps =
        cal.usable ? res.channel.bitsPerSecond(clock_ghz) : 0.0;
    const char *verdict = cal.usable ? "LEAKS" : "closed";

    PointResult out;
    out.rows.push_back(
        {Value::str(schemeName(scheme)), Value::str(channel),
         Value::uinteger(cal.score0), Value::uinteger(cal.score1),
         Value::boolean(cal.usable),
         Value::uinteger(res.channel.bitsSent),
         Value::uinteger(res.channel.bitErrors), Value::real(err, 4),
         Value::real(bps, 0), Value::str(verdict)});
    out.legacy = strf(
        "%-24s %-10s %8llu %8llu %-7s %8.1f%% %10.0f\n",
        schemeName(scheme).c_str(), channel.c_str(),
        static_cast<unsigned long long>(cal.score0),
        static_cast<unsigned long long>(cal.score1), verdict,
        err * 100.0, bps);
    return out;
}

int
renderLegacy(const Report &report, const RunOptions &, std::FILE *out)
{
    std::fprintf(out, "=== Cross-core interference: defense x channel "
                      "ablation (eviction/occupancy/coherence/"
                      "prefetch) ===\n\n");
    std::fprintf(out, "%-24s %-10s %8s %8s %-7s %9s %10s\n", "scheme",
                 "channel", "score0", "score1", "verdict", "err-rate",
                 "bps");

    std::string current_scheme;
    for (const ReportPoint &p : report.points) {
        const std::string &scheme = p.point.at("scheme");
        if (!current_scheme.empty() && scheme != current_scheme)
            std::fprintf(out, "\n");
        current_scheme = scheme;
        std::fputs(p.legacy.c_str(), out);
    }
    std::fprintf(out, "\n");

    std::fprintf(
        out,
        "Reading: LEAKS means probe calibration found a decodable "
        "timing gap.\nEviction (cache state) is closed by every "
        "invisible-speculation scheme; occupancy\n(shared bandwidth), "
        "coherence (a speculative store's RFO invalidates the\n"
        "probe's Shared copy before the squash) and prefetch (a "
        "speculative load\ntrains a visible next-line prefetch) all "
        "pierce them — invisibility hides\ncache state, not the "
        "request's side effects. DoM-style and fence defenses,\n"
        "whose speculative requests never leave the core, close all "
        "four.\n");
    return 0;
}

} // namespace

void
registerAblationCoherence(experiment::ScenarioRegistry &r)
{
    Scenario sc;
    sc.name = "ablation_coherence";
    sc.description = "cross-core eviction/occupancy/coherence/prefetch "
                     "channels vs every scheme";
    sc.paperRef = "§2.1 (CrossCore), coherence/prefetch extension";
    sc.defaultTrials = 1;
    sc.defaultSeed = 2021;
    sc.trialsMeaning = "trials per transmitted bit (majority vote)";
    sc.extraFlags = {{"bits", "bits per channel run", 12}};
    sc.columns = {"scheme", "channel", "score0", "score1", "open",
                  "bits", "errors", "error_rate", "bps", "verdict"};
    sc.sweep = [](const RunOptions &) {
        SweepSpec spec;
        spec.axis("scheme", allSchemeNames())
            .axis("channel",
                  {"eviction", "occupancy", "coherence", "prefetch"});
        return spec;
    };
    sc.run = runPoint;
    sc.renderLegacy = renderLegacy;
    r.add(std::move(sc));
}

} // namespace specint::scenarios
