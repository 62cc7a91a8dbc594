/**
 * @file
 * Attack-fixture pooling: the full configuration key and the
 * thread-local cache binding.
 */

#include "attack/trial_fixture.hh"

#include <memory>

#include "sim/experiment/fixture_pool.hh"

namespace specint
{

namespace
{

void
appendGeometry(std::string &out, const CacheGeometry &g)
{
    out += g.name;
    out += ':' + std::to_string(g.sets) + 'x' + std::to_string(g.ways);
    out += ':' + std::to_string(static_cast<int>(g.policy));
    out += ';';
}

} // namespace

std::string
attackFixtureKey(const CoreConfig &core, const HierarchyConfig &hier)
{
    std::string k;
    k.reserve(256);

    auto num = [&k](std::uint64_t v) {
        k += std::to_string(v);
        k += ',';
    };

    k += "core{";
    num(core.fetchWidth);
    num(core.decodeQueue);
    num(core.dispatchWidth);
    num(core.issueWidth);
    num(core.retireWidth);
    num(core.robSize);
    num(core.rsSize);
    num(core.lqSize);
    num(core.sqSize);
    num(core.mshrs);
    num(core.cdbWidth);
    num(core.squashPenalty);
    num(core.storeForwardLatency);
    num(core.maxCycles);

    k += "}hier{";
    num(hier.cores);
    appendGeometry(k, hier.l1i);
    appendGeometry(k, hier.l1d);
    appendGeometry(k, hier.l2);
    appendGeometry(k, hier.llcSlice);
    num(hier.llcSlices);
    num(hier.l1Latency);
    num(hier.l2Latency);
    num(hier.llcLatency);
    num(hier.memLatency);
    num(hier.llcPortBusy);
    num(hier.llcMshrs);
    num(hier.coherence.enabled);
    num(hier.coherence.invalidateLatency);
    num(hier.coherence.writebackLatency);
    num(static_cast<std::uint64_t>(hier.prefetch.kind));
    num(hier.prefetch.degree);
    k += '}';
    return k;
}

AttackFixture &
acquireAttackFixture(const CoreConfig &core, const HierarchyConfig &hier)
{
    return experiment::FixtureCache<AttackFixture>::acquire(
        attackFixtureKey(core, hier), [&] {
            return std::make_unique<AttackFixture>(core, hier);
        });
}

} // namespace specint
