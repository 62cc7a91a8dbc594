/**
 * @file
 * Scenario: the SMT sibling-thread contention channel across every
 * defense scheme x resource-sharing policy x channel kind. One point
 * per combination (72 fully independent channel runs).
 *
 * --bits sets the message length, --trials the trials-per-bit
 * majority vote, --seed the transmitted bit string.
 */

#include "scenarios/scenarios.hh"
#include "scenarios/util.hh"

#include <cstdio>

#include "attack/smt_probe.hh"
#include "sim/experiment/report.hh"

namespace specint::scenarios
{

namespace
{

using namespace experiment;

struct PolicyPoint
{
    const char *name;
    SharingPolicy window; ///< ROB/RS/LQ/SQ policy
    FetchPolicy fetch;
};

constexpr PolicyPoint kPolicies[] = {
    {"shared+icount", SharingPolicy::Shared, FetchPolicy::ICount},
    {"shared+rr", SharingPolicy::Shared, FetchPolicy::RoundRobin},
    {"partitioned+icount", SharingPolicy::Partitioned,
     FetchPolicy::ICount},
};

PointResult
runPoint(const PointContext &ctx, const RunOptions &options)
{
    const SchemeKind scheme = schemeFromName(ctx.point.at("scheme"));
    const SmtChannelKind kind = ctx.point.at("channel") == "port"
                                    ? SmtChannelKind::Port
                                    : SmtChannelKind::Mshr;
    const PolicyPoint *pp = nullptr;
    for (const PolicyPoint &p : kPolicies)
        if (ctx.point.at("policy") == p.name)
            pp = &p;

    SmtChannelConfig cfg;
    cfg.scheme = scheme;
    cfg.attack.kind = kind;
    cfg.smt.robPolicy = cfg.smt.rsPolicy = cfg.smt.lqPolicy =
        cfg.smt.sqPolicy = pp->window;
    cfg.smt.fetchPolicy = pp->fetch;
    cfg.trialsPerBit = ctx.trials;

    const std::vector<std::uint8_t> bits = randomBits(
        static_cast<unsigned>(options.extraOr("bits", 24)),
        ctx.baseSeed);

    const ProbeChannelResult res = runSmtContentionChannel(bits, cfg);
    const double err = res.channel.errorRate();
    const double bps =
        res.calibration.usable
            ? res.channel.bitsPerSecond(cfg.clockGhz)
            : 0.0;

    PointResult out;
    out.rows.push_back(
        {Value::str(schemeName(scheme)),
         Value::str(smtChannelKindName(kind)), Value::str(pp->name),
         Value::uinteger(res.calibration.score0),
         Value::uinteger(res.calibration.score1),
         Value::boolean(res.calibration.usable),
         Value::uinteger(res.channel.bitsSent),
         Value::uinteger(res.channel.bitErrors), Value::real(err, 4),
         Value::real(bps, 0)});
    out.legacy = strf(
        "%-24s %-7s %-19s %7llu %7llu %-7s %8.1f%% %10.0f\n",
        schemeName(scheme).c_str(),
        smtChannelKindName(kind).c_str(), pp->name,
        static_cast<unsigned long long>(res.calibration.score0),
        static_cast<unsigned long long>(res.calibration.score1),
        res.calibration.usable ? "OPEN" : "closed", err * 100.0, bps);
    return out;
}

int
renderLegacy(const Report &report, const RunOptions &, std::FILE *out)
{
    std::fprintf(out, "=== SMT sibling-thread contention channel: "
                      "defense x sharing-policy ablation ===\n\n");
    std::fprintf(out, "%-24s %-7s %-19s %7s %7s %-7s %9s %10s\n",
                 "scheme", "channel", "policy", "score0", "score1",
                 "state", "err-rate", "bps");

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
        "Reading: OPEN means the probe's calibration found a "
        "decodable contention gap.\nPartitioning ROB/RS/LQ/SQ never "
        "closes the channel (ports/MSHRs stay shared);\nonly "
        "defenses that keep the mis-speculated gadget from issuing "
        "do.\n");
    return 0;
}

} // namespace

void
registerAblationSmt(experiment::ScenarioRegistry &r)
{
    Scenario sc;
    sc.name = "ablation_smt";
    sc.description = "SMT sibling-thread port-0/MSHR contention "
                     "channel vs every scheme x sharing policy";
    sc.paperRef = "§2.1 (SMT)";
    sc.defaultTrials = 1;
    sc.defaultSeed = 2021;
    sc.trialsMeaning = "trials per transmitted bit (majority vote)";
    sc.extraFlags = {{"bits", "bits per channel run", 24}};
    sc.columns = {"scheme", "channel", "policy", "score0", "score1",
                  "open", "bits", "errors", "error_rate", "bps"};
    sc.sweep = [](const RunOptions &) {
        std::vector<std::string> policies;
        for (const PolicyPoint &p : kPolicies)
            policies.push_back(p.name);
        SweepSpec spec;
        spec.axis("scheme", allSchemeNames())
            .axis("channel", {"port", "mshr"})
            .axis("policy", std::move(policies));
        return spec;
    };
    sc.run = runPoint;
    sc.renderLegacy = renderLegacy;
    r.add(std::move(sc));
}

} // namespace specint::scenarios
