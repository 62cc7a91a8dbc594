/**
 * @file
 * MESI directory implementation: read/write-intent transitions,
 * sharer bookkeeping and per-core stats.
 */

#include "memory/coherence.hh"

#include <algorithm>
#include <cassert>

namespace specint
{

CoherenceDirectory::CoherenceDirectory(unsigned clients,
                                       CoherenceParams params)
    : params_(params), stats_(clients)
{
}

bool
CoherenceDirectory::holds(const LineInfo &info, CoreId core)
{
    return std::find(info.holders.begin(), info.holders.end(), core) !=
           info.holders.end();
}

CoherenceDirectory::ReadOutcome
CoherenceDirectory::read(CoreId core, Addr line, bool join)
{
    assert(core < stats_.size());
    line = lineAlign(line);
    ReadOutcome out;
    LineInfo &info = lines_[line];

    if (holds(info, core)) {
        // Already a holder: reading S/E/M data is hit-path silent.
        out.granted = state(core, line);
        return out;
    }

    // A remote owner must surrender exclusivity before the data can be
    // shared; a dirty (Modified) owner also writes the line back,
    // which the requester waits for.
    if ((info.modified || info.exclusive) && !info.holders.empty()) {
        if (info.modified)
            out.extraLatency = params_.writebackLatency;
        ++stats_[info.owner].downgradesReceived;
        info.modified = false;
        info.exclusive = false;
    }

    if (!join) {
        // Direct LLC client: serves the (now clean) data but tracks no
        // private copy.
        return out;
    }

    info.holders.push_back(core);
    if (info.holders.size() == 1) {
        info.owner = core;
        info.exclusive = true;
        out.granted = MesiState::Exclusive;
        ++stats_[core].exclusiveGrants;
    } else {
        out.granted = MesiState::Shared;
    }
    return out;
}

CoherenceDirectory::WriteOutcome
CoherenceDirectory::write(CoreId core, Addr line, bool take_ownership)
{
    assert(core < stats_.size());
    line = lineAlign(line);
    WriteOutcome out;
    LineInfo &info = lines_[line];

    // Silent upgrade: a sole Exclusive/Modified owner writes for free.
    const bool sole_owner = info.holders.size() == 1 &&
                            info.holders.front() == core &&
                            (info.modified || info.exclusive);
    if (!sole_owner) {
        for (CoreId holder : info.holders) {
            if (holder == core)
                continue;
            out.invalidate.push_back(holder);
            ++stats_[core].invalidationsSent;
            ++stats_[holder].invalidationsReceived;
        }
        if (!out.invalidate.empty()) {
            out.extraLatency = params_.invalidateLatency;
            // Invalidating a dirty remote owner also transfers the
            // modified data — the same writeback a reader would pay.
            if (info.modified)
                out.extraLatency += params_.writebackLatency;
        }
    }

    if (take_ownership) {
        info.holders.clear();
        info.holders.push_back(core);
        info.owner = core;
        info.exclusive = false;
        if (!(sole_owner && info.modified))
            ++stats_[core].upgrades;
        info.modified = true;
    } else {
        // Deferred upgrade (speculative RFO): the invalidations above
        // already happened — the request's irreversible side effect —
        // but the requester's own M state waits for the safe,
        // retirement-time write. Remote holders were dropped so they
        // re-fetch through the directory.
        info.holders.erase(
            std::remove_if(info.holders.begin(), info.holders.end(),
                           [&](CoreId c) { return c != core; }),
            info.holders.end());
        if (info.holders.empty()) {
            info.modified = false;
            info.exclusive = false;
        }
    }
    return out;
}

MesiState
CoherenceDirectory::state(CoreId core, Addr line) const
{
    line = lineAlign(line);
    const auto it = lines_.find(line);
    if (it == lines_.end() || !holds(it->second, core))
        return MesiState::Invalid;
    const LineInfo &info = it->second;
    if (info.owner == core && info.modified)
        return MesiState::Modified;
    if (info.owner == core && info.exclusive)
        return MesiState::Exclusive;
    return MesiState::Shared;
}

bool
CoherenceDirectory::remoteModified(CoreId core, Addr line) const
{
    const auto it = lines_.find(lineAlign(line));
    return it != lines_.end() && it->second.modified &&
           it->second.owner != core && !it->second.holders.empty();
}

std::vector<CoreId>
CoherenceDirectory::sharers(Addr line) const
{
    const auto it = lines_.find(lineAlign(line));
    return it == lines_.end() ? std::vector<CoreId>{}
                              : it->second.holders;
}

void
CoherenceDirectory::dropLine(Addr line)
{
    lines_.erase(lineAlign(line));
}

void
CoherenceDirectory::reset()
{
    lines_.clear();
    std::fill(stats_.begin(), stats_.end(), CoherenceStats{});
}

} // namespace specint
