/**
 * @file
 * Scenario: Fig. 8, the QLRU_H11_M1_R0_U0 state walk of the targeted
 * LLC set. Two independent points — victim order A-B and B-A — each
 * rebuilding its cache from scratch.
 */

#include "scenarios/scenarios.hh"
#include "scenarios/util.hh"

#include <cstdio>

#include "memory/cache.hh"
#include "sim/experiment/report.hh"

namespace specint::scenarios
{

namespace
{

using namespace experiment;

constexpr unsigned kSets = 8;
constexpr unsigned kWays = 16;
constexpr unsigned kSet = 3;

Addr
lineInSet(unsigned k)
{
    return (static_cast<Addr>(k) * kSets + kSet) << kLineShift;
}

void
access(CacheArray &c, Addr a)
{
    if (!c.touch(a))
        c.fill(a);
}

std::string
show(const CacheArray &c, Addr A, Addr B, const char *tag)
{
    std::string out = strf("%-18s", tag);
    for (const auto &w : c.snapshotSet(kSet)) {
        std::string name = "--";
        if (w.valid) {
            if (w.lineAddr == A)
                name = "A";
            else if (w.lineAddr == B)
                name = "B";
            else
                name = "EV";
        }
        out += strf(" %2s/%u", name.c_str(), w.valid ? w.age : 9);
    }
    out += "\n";
    return out;
}

PointResult
runPoint(const PointContext &ctx, const RunOptions &)
{
    const bool order_ab = ctx.point.at("order") == "A-B";

    const Addr A = lineInSet(0);
    const Addr B = lineInSet(1);

    CacheGeometry geo{"llc", kSets, kWays, ReplKind::Qlru};
    CacheArray cache(geo);

    PointResult res;
    res.legacy += strf("--- victim order %s ---\n",
                       order_ab ? "A-B" : "B-A");

    // Prime: EVS1 into ways 0..14, A into way 15, saturate at 0.
    for (int round = 0; round < 4; ++round) {
        for (unsigned k = 0; k < kWays - 1; ++k)
            access(cache, lineInSet(2 + k));
        access(cache, A);
    }
    res.legacy += show(cache, A, B, "after prime");

    if (order_ab) {
        access(cache, A);
        access(cache, B);
    } else {
        access(cache, B);
        access(cache, A);
    }
    res.legacy += show(cache, A, B, "after victim");

    for (unsigned k = 0; k < kWays - 1; ++k)
        access(cache, lineInSet(2 + kWays - 1 + k));
    res.legacy += show(cache, A, B, "after probe");

    const bool a_res = cache.contains(A);
    const bool b_res = cache.contains(B);
    res.legacy += strf(
        "survivor: %s   (attacker decodes order %s)\n\n",
        a_res ? "A" : (b_res ? "B" : "none"),
        a_res ? "B-A" : (b_res ? "A-B" : "?"));
    const bool ok =
        order_ab ? (!a_res && b_res) : (a_res && !b_res);

    res.rows.push_back(
        {Value::str(order_ab ? "A-B" : "B-A"),
         Value::str(a_res ? "A" : (b_res ? "B" : "none")),
         Value::str(a_res ? "B-A" : (b_res ? "A-B" : "?")),
         Value::boolean(ok)});
    return res;
}

int
renderLegacy(const Report &report, const RunOptions &, std::FILE *out)
{
    std::fprintf(out,
                 "=== Fig. 8: QLRU_H11_M1_R0_U0 state walk (16-way "
                 "set) ===\n");
    std::fprintf(out, "entries are line/age; EV = eviction-set line\n\n");

    bool ok = true;
    for (const ReportPoint &p : report.points) {
        std::fputs(p.legacy.c_str(), out);
        for (const Row &row : p.rows)
            ok = ok && row[3].truthy();
    }

    std::fprintf(out,
                 "shape check: second-accessed line survives in both "
                 "orders: %s\n",
                 ok ? "YES (matches Fig. 8)" : "NO");
    return ok ? 0 : 1;
}

} // namespace

void
registerFig8(experiment::ScenarioRegistry &r)
{
    Scenario sc;
    sc.name = "fig8";
    sc.description = "QLRU state of the monitored LLC set after prime "
                     "/ victim (A-B vs B-A) / probe";
    sc.paperRef = "Fig. 8";
    sc.defaultTrials = 1;
    sc.defaultSeed = 0;
    sc.trialsMeaning = "unused (the state walk is deterministic)";
    sc.columns = {"order", "survivor", "decoded_order", "matches"};
    sc.sweep = [](const RunOptions &) {
        SweepSpec spec;
        spec.axis("order", {"A-B", "B-A"});
        return spec;
    };
    sc.run = runPoint;
    sc.renderLegacy = renderLegacy;
    r.add(std::move(sc));
}

} // namespace specint::scenarios
