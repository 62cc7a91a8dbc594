/**
 * @file
 * Cache hierarchy implementation: the request walks over per-core
 * L1-I/L1-D/L2 and the sliced inclusive LLC, visible access tracing,
 * invisible requests, the MESI coherence hooks, the prefetcher
 * layer and the flush/warm helpers the attack harness uses.
 */

#include "memory/hierarchy.hh"

#include <algorithm>
#include <cassert>

#include "sim/log.hh"
#include "sim/obs/metrics.hh"
#include "sim/obs/trace.hh"

namespace specint
{

const char *
servedByName(ServedBy s)
{
    switch (s) {
      case ServedBy::L1: return "L1";
      case ServedBy::L2: return "L2";
      case ServedBy::Llc: return "LLC";
      case ServedBy::Mem: return "mem";
    }
    return "?";
}

std::string
HierarchyConfig::validate() const
{
    if (cores == 0)
        return "cores must be nonzero";
    for (const CacheGeometry *g : {&l1i, &l1d, &l2, &llcSlice}) {
        if (g->sets == 0 || g->ways == 0) {
            return g->name +
                   " geometry must have nonzero sets and ways";
        }
        if (g->ways > kMaxCacheWays) {
            return g->name + " geometry has " + std::to_string(g->ways) +
                   " ways; at most " + std::to_string(kMaxCacheWays) +
                   " are supported";
        }
        if ((g->sets & (g->sets - 1)) != 0) {
            return g->name + " geometry has " + std::to_string(g->sets) +
                   " sets; the set count must be a power of two";
        }
    }
    if (llcSlices == 0 || (llcSlices & (llcSlices - 1)) != 0)
        return "llcSlices must be a nonzero power of two";
    if (!(l1Latency < l2Latency && l2Latency < llcLatency &&
          llcLatency < memLatency)) {
        return "latencies must be ordered "
               "l1Latency < l2Latency < llcLatency < memLatency";
    }
    if (prefetch.kind != PrefetchKind::None && prefetch.degree == 0)
        return "prefetch.degree must be nonzero when a prefetcher is "
               "enabled";
    return "";
}

HierarchyConfig
HierarchyConfig::small()
{
    HierarchyConfig cfg;
    cfg.cores = 2;
    cfg.l1i = {"l1i", 16, 4, ReplKind::Lru};
    cfg.l1d = {"l1d", 16, 4, ReplKind::Lru};
    cfg.l2 = {"l2", 64, 4, ReplKind::Lru};
    cfg.llcSlice = {"llc", 64, 16, ReplKind::Qlru};
    cfg.llcSlices = 2;
    return cfg;
}

HierarchyConfig
HierarchyConfig::kabyLake()
{
    HierarchyConfig cfg;
    cfg.cores = 2;
    // 32 KB 8-way L1s, 256 KB 4-way L2, 8 MB 16-way LLC in 4 slices.
    cfg.l1i = {"l1i", 64, 8, ReplKind::Lru};
    cfg.l1d = {"l1d", 64, 8, ReplKind::Lru};
    cfg.l2 = {"l2", 1024, 4, ReplKind::Lru};
    cfg.llcSlice = {"llc", 2048, 16, ReplKind::Qlru};
    cfg.llcSlices = 4;
    return cfg;
}

std::uint64_t
MainMemory::read(Addr addr) const
{
    const auto it = words_.find(addr & ~static_cast<Addr>(7));
    return it == words_.end() ? 0 : it->second;
}

void
MainMemory::write(Addr addr, std::uint64_t value)
{
    words_[addr & ~static_cast<Addr>(7)] = value;
}

Hierarchy::Hierarchy(HierarchyConfig cfg)
    : cfg_(std::move(cfg)),
      directory_(
          [this] {
              const std::string err = cfg_.validate();
              if (!err.empty())
                  fatal("HierarchyConfig: " + err);
              // One client per core plus the spare direct-LLC id the
              // attack harnesses use (accessDirect with id == cores),
              // so a standalone Hierarchy honours that convention too.
              return CoherenceDirectory(cfg_.cores + 1,
                                        cfg_.coherence);
          }())
{
    l1i_.reserve(cfg_.cores);
    l1d_.reserve(cfg_.cores);
    l2_.reserve(cfg_.cores);
    prefetchers_.reserve(cfg_.cores);
    llc_.reserve(cfg_.llcSlices);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        l1i_.emplace_back(cfg_.l1i);
        l1d_.emplace_back(cfg_.l1d);
        l2_.emplace_back(cfg_.l2);
        prefetchers_.emplace_back(cfg_.prefetch);
    }
    for (unsigned s = 0; s < cfg_.llcSlices; ++s)
        llc_.emplace_back(cfg_.llcSlice);
    slicePortFreeAt_.assign(cfg_.llcSlices, 0);
    llcStats_.assign(cfg_.cores, LlcContentionStats{});
    memTraceTracks_.assign(cfg_.cores, 0);
    llcPublished_.assign(cfg_.cores, LlcContentionStats{});
    cohPublished_.assign(cfg_.cores + 1, CoherenceStats{});
    pfPublished_.assign(cfg_.cores, PrefetchStats{});
}

std::int64_t
Hierarchy::sharedLevelDelay(CoreId core, Addr addr, Tick now,
                            bool llc_miss)
{
    if (cfg_.llcPortBusy == 0 && cfg_.llcMshrs == 0)
        return 0; // contention unmodelled: exact pre-System latencies

    assert(core < llcStats_.size());
    LlcContentionStats &st = llcStats_[core];
    ++st.requests;
    Tick start = now;

    // Slice port: one request per llcPortBusy cycles.
    if (cfg_.llcPortBusy > 0) {
        Tick &free_at = slicePortFreeAt_[llcSliceIndex(addr)];
        if (free_at > start)
            start = free_at;
        free_at = start + cfg_.llcPortBusy;
    }
    std::int64_t extra = static_cast<std::int64_t>(start - now);

    // Shared LLC-to-memory MSHRs: an LLC miss needs an entry for the
    // full memory latency; a request to a line already in flight
    // coalesces and completes with that fill.
    if (llc_miss && cfg_.llcMshrs > 0) {
        const Addr line = lineAlign(addr);
        llcMshrs_.erase(
            std::remove_if(llcMshrs_.begin(), llcMshrs_.end(),
                           [&](const LlcMshrEntry &e) {
                               return e.readyAt <= start;
                           }),
            llcMshrs_.end());
        const auto hit = std::find_if(
            llcMshrs_.begin(), llcMshrs_.end(),
            [&](const LlcMshrEntry &e) { return e.line == line; });
        if (hit != llcMshrs_.end()) {
            // Coalesced: done when the in-flight fill returns, which
            // is sooner than a fresh memory fetch.
            extra += static_cast<std::int64_t>(hit->readyAt - start) -
                     static_cast<std::int64_t>(cfg_.memLatency);
        } else if (llcMshrs_.size() < cfg_.llcMshrs) {
            llcMshrs_.push_back({line, start + cfg_.memLatency});
        } else {
            // File full: wait for the earliest outstanding fill.
            auto earliest = llcMshrs_.begin();
            for (auto it = std::next(earliest); it != llcMshrs_.end();
                 ++it) {
                if (it->readyAt < earliest->readyAt)
                    earliest = it;
            }
            const Tick wait_until = earliest->readyAt;
            extra += static_cast<std::int64_t>(wait_until - start);
            *earliest = {line, wait_until + cfg_.memLatency};
        }
    }

    if (extra > 0) {
        ++st.queued;
        st.queueDelay += static_cast<Tick>(extra);
    }
    return extra;
}

void
Hierarchy::applyQueueDelay(MemAccessResult &res, std::int64_t extra)
{
    res.queueDelay = static_cast<Tick>(extra > 0 ? extra : 0);
    res.latency =
        static_cast<Tick>(static_cast<std::int64_t>(res.latency) + extra);
}

unsigned
Hierarchy::llcSliceIndex(Addr addr) const
{
    // XOR-folded slice hash over the line number: the standard
    // academic stand-in for Intel's undocumented complex hash. All
    // line-number bits influence the slice, as on real hardware.
    std::uint64_t h = lineNumber(addr);
    h ^= h >> 17;
    h ^= h >> 9;
    h ^= h >> 5;
    return static_cast<unsigned>(h & (cfg_.llcSlices - 1));
}

unsigned
Hierarchy::llcSetIndex(Addr addr) const
{
    return llc_[0].setIndex(addr);
}

bool
Hierarchy::llcContains(Addr addr) const
{
    return llc_[llcSliceIndex(addr)].contains(addr);
}

void
Hierarchy::invalidatePrivate(CoreId core, Addr line_addr)
{
    l1d_[core].invalidate(line_addr);
    l2_[core].invalidate(line_addr);
}

void
Hierarchy::backInvalidate(Addr line_addr)
{
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        l1i_[c].invalidate(line_addr);
        l1d_[c].invalidate(line_addr);
        l2_[c].invalidate(line_addr);
    }
    if (cfg_.coherence.enabled)
        directory_.dropLine(line_addr);
}

void
Hierarchy::llcFill(Addr addr)
{
    const Addr evicted = llc_[llcSliceIndex(addr)].fill(addr);
    if (evicted != kAddrInvalid)
        backInvalidate(evicted);
}

void
Hierarchy::finishRequest(CoreId core, Addr addr, Tick now,
                         const MemAccessResult &res, TxnSource source,
                         const char *cat, bool train)
{
    if (obs::tracingEnabled()) {
        obs::EventTracer &tracer = obs::EventTracer::global();
        std::uint32_t &track = source == TxnSource::Direct
                                   ? directTraceTrack_
                                   : memTraceTracks_[core];
        if (track == 0) {
            track = tracer.track(source == TxnSource::Direct
                                     ? std::string("llc.direct")
                                     : "core" + std::to_string(core) +
                                           ".mem");
        }
        // Span name = the level that served the request, so the
        // Perfetto timeline reads as the walk's outcome.
        tracer.complete(track, servedByName(res.servedBy), cat, now,
                        res.latency, "addr", addr, "queue_delay",
                        res.queueDelay);
    }
    if (train && prefetchEnabled())
        trainPrefetcher(core, addr, now, res.servedBy);
}

void
Hierarchy::coherenceWrite(CoreId core, Addr addr, Tick now,
                          bool take_ownership, MemAccessResult &res)
{
    const CoherenceDirectory::WriteOutcome out =
        directory_.write(core, addr, take_ownership);
    for (CoreId victim : out.invalidate)
        invalidatePrivate(victim, lineAlign(addr));
    if (!out.invalidate.empty() && obs::tracingEnabled()) {
        obs::EventTracer &tracer = obs::EventTracer::global();
        if (cohTraceTrack_ == 0)
            cohTraceTrack_ = tracer.track("llc.coherence");
        tracer.instant(cohTraceTrack_, "invalidate", "coherence", now,
                       "addr", lineAlign(addr), "victims",
                       out.invalidate.size());
    }
    res.latency += out.extraLatency;
    res.coherenceDelay += out.extraLatency;
    res.invalidations += static_cast<unsigned>(out.invalidate.size());
}

MemAccessResult
Hierarchy::walkVisible(CoreId core, Addr addr, AccessType type,
                       MemIntent intent, TxnSource source, Tick now)
{
    assert(core < cfg_.cores);
    MemAccessResult res;

    CacheArray *l1 = nullptr;
    if (source == TxnSource::Demand) {
        // L1 stage.
        l1 = (type == AccessType::Instr) ? &l1i_[core] : &l1d_[core];
        res.latency = cfg_.l1Latency;
        if (l1->touch(addr)) {
            res.servedBy = ServedBy::L1;
            return res;
        }

        // L2 stage.
        res.latency += cfg_.l2Latency;
        if (l2_[core].touch(addr)) {
            res.servedBy = ServedBy::L2;
            l1->fill(addr);
            return res;
        }
    }
    // Prefetches start here: the prefetcher sits beside L2 and fills
    // L2/LLC, never L1.

    // LLC stage. The request reaches the shared level: this is a
    // visible access and enters the C(E) trace regardless of hit/miss
    // (both change LLC replacement state).
    trace_.push_back({core, lineAlign(addr), now, type, source});

    // Coherence: a read arriving at the shared level may have to
    // demote a remote owner (Modified owners add the writeback
    // latency) and joins the sharer set. A write settles ownership in
    // coherenceWrite() once the walk is done instead.
    if (cfg_.coherence.enabled && type == AccessType::Data &&
        intent == MemIntent::Read) {
        const CoherenceDirectory::ReadOutcome coh =
            directory_.read(core, addr, /*join=*/true);
        res.latency += coh.extraLatency;
        res.coherenceDelay += coh.extraLatency;
    }

    res.latency += cfg_.llcLatency;
    const bool hit = llc_[llcSliceIndex(addr)].touch(addr);
    if (!hit)
        res.latency += cfg_.memLatency; // memory stage
    applyQueueDelay(res, sharedLevelDelay(core, addr, now, !hit));
    res.servedBy = hit ? ServedBy::Llc : ServedBy::Mem;
    if (!hit)
        llcFill(addr);
    l2_[core].fill(addr);
    if (l1)
        l1->fill(addr);
    return res;
}

MemAccessResult
Hierarchy::walkInvisible(CoreId core, Addr addr, AccessType type,
                         Tick now)
{
    MemAccessResult res = peekLatency(core, addr, type);
    if (res.servedBy >= ServedBy::Llc) {
        // The invisible request still travelled to the shared level.
        // It pays a remote Modified owner's writeback (the data has to
        // be snooped even though no state changes) ...
        if (cfg_.coherence.enabled && type == AccessType::Data &&
            directory_.remoteModified(core, addr)) {
            res.latency += cfg_.coherence.writebackLatency;
            res.coherenceDelay += cfg_.coherence.writebackLatency;
        }
        // ... and its bandwidth/MSHR occupancy is charged (state stays
        // untouched).
        applyQueueDelay(res, sharedLevelDelay(
                                 core, addr, now,
                                 res.servedBy == ServedBy::Mem));
    }
    return res;
}

MemAccessResult
Hierarchy::walkDirect(CoreId core, Addr addr, Tick now)
{
    MemAccessResult res;
    trace_.push_back({core, lineAlign(addr), now, AccessType::Data,
                      TxnSource::Direct});

    // A direct client has no private caches: it never joins the sharer
    // set, but it still forces a dirty remote owner to write back.
    if (cfg_.coherence.enabled) {
        const CoherenceDirectory::ReadOutcome coh =
            directory_.read(core, addr, /*join=*/false);
        res.latency += coh.extraLatency;
        res.coherenceDelay += coh.extraLatency;
    }

    res.latency += cfg_.llcLatency;
    const bool hit = llc_[llcSliceIndex(addr)].touch(addr);
    if (!hit)
        res.latency += cfg_.memLatency;
    applyQueueDelay(res, sharedLevelDelay(core, addr, now, !hit));
    res.servedBy = hit ? ServedBy::Llc : ServedBy::Mem;
    if (!hit)
        llcFill(addr);
    return res;
}

void
Hierarchy::trainPrefetcher(CoreId core, Addr addr, Tick now,
                           ServedBy served)
{
    Prefetcher &pf = prefetchers_[core];
    prefetchCands_.clear();
    // "Miss" from the prefetcher's point of view: the demand request
    // left the private levels (served by the LLC or memory).
    pf.observe(addr, served >= ServedBy::Llc, prefetchCands_);
    for (Addr cand : prefetchCands_) {
        if (l1d_[core].contains(cand) || l2_[core].contains(cand)) {
            ++pf.stats().dropped;
            continue;
        }
        // A real request: fills L2/LLC, occupies slice ports and
        // shared MSHRs, appears in the C(E) trace — and is *visible*
        // even when the demand access that trained it was invisible.
        const MemAccessResult res =
            walkVisible(core, cand, AccessType::Data, MemIntent::Read,
                        TxnSource::Prefetch, now);
        finishRequest(core, cand, now, res, TxnSource::Prefetch,
                      "prefetch", false);
        ++pf.stats().issued;
        if (res.servedBy == ServedBy::Mem)
            ++pf.stats().llcFills;
    }
}

MemAccessResult
Hierarchy::access(CoreId core, Addr addr, AccessType type, Tick now,
                  MemIntent intent, bool train)
{
    MemAccessResult res =
        walkVisible(core, addr, type, intent, TxnSource::Demand, now);
    // A write acquires Modified ownership and invalidates remote
    // sharers, whichever level served it.
    if (cfg_.coherence.enabled && intent == MemIntent::Write &&
        type == AccessType::Data) {
        coherenceWrite(core, addr, now, /*take_ownership=*/true, res);
    }
    finishRequest(core, addr, now, res, TxnSource::Demand, "mem",
                  train && type == AccessType::Data);
    return res;
}

MemAccessResult
Hierarchy::accessInvisible(CoreId core, Addr addr, AccessType type,
                           Tick now, bool train)
{
    const MemAccessResult res = walkInvisible(core, addr, type, now);
    finishRequest(core, addr, now, res, TxnSource::Demand, "invisible",
                  train && type == AccessType::Data);
    return res;
}

MemAccessResult
Hierarchy::peekLatency(CoreId core, Addr addr, AccessType type) const
{
    assert(core < cfg_.cores);
    MemAccessResult res;
    const CacheArray &l1 =
        (type == AccessType::Instr) ? l1i_[core] : l1d_[core];

    res.latency = cfg_.l1Latency;
    if (l1.contains(addr)) {
        res.servedBy = ServedBy::L1;
        return res;
    }
    res.latency += cfg_.l2Latency;
    if (l2_[core].contains(addr)) {
        res.servedBy = ServedBy::L2;
        return res;
    }
    res.latency += cfg_.llcLatency;
    if (llc_[llcSliceIndex(addr)].contains(addr)) {
        res.servedBy = ServedBy::Llc;
        return res;
    }
    res.latency += cfg_.memLatency;
    res.servedBy = ServedBy::Mem;
    return res;
}

MemAccessResult
Hierarchy::accessDirect(CoreId core, Addr addr, Tick now)
{
    const MemAccessResult res = walkDirect(core, addr, now);
    finishRequest(core, addr, now, res, TxnSource::Direct, "mem", false);
    return res;
}

Tick
Hierarchy::specStoreUpgrade(CoreId core, Addr addr, Tick now,
                            bool take_ownership)
{
    if (!cfg_.coherence.enabled)
        return 0;
    MemAccessResult res;
    coherenceWrite(core, addr, now, take_ownership, res);
    return res.latency;
}

bool
Hierarchy::l1Probe(CoreId core, Addr addr) const
{
    return l1d_[core].contains(addr);
}

void
Hierarchy::l1DeferredTouch(CoreId core, Addr addr)
{
    l1d_[core].deferredTouch(addr);
}

void
Hierarchy::flushLine(Addr addr)
{
    const Addr line = lineAlign(addr);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        l1i_[c].invalidate(line);
        l1d_[c].invalidate(line);
        l2_[c].invalidate(line);
    }
    llc_[llcSliceIndex(line)].invalidate(line);
    if (cfg_.coherence.enabled)
        directory_.dropLine(line);
}

void
Hierarchy::reset()
{
    for (auto &c : l1i_)
        c.reset();
    for (auto &c : l1d_)
        c.reset();
    for (auto &c : l2_)
        c.reset();
    for (auto &c : llc_)
        c.reset();
    trace_.clear();
    directory_.reset();
    for (auto &pf : prefetchers_)
        pf.reset();
    cohPublished_.assign(cfg_.cores + 1, CoherenceStats{});
    pfPublished_.assign(cfg_.cores, PrefetchStats{});
    tracePublished_ = 0;
    resetContention();
}

void
Hierarchy::resetContention()
{
    slicePortFreeAt_.assign(cfg_.llcSlices, 0);
    llcMshrs_.clear();
    llcStats_.assign(cfg_.cores, LlcContentionStats{});
    llcPublished_.assign(cfg_.cores, LlcContentionStats{});
}

namespace
{

/** Delta since the last publication. Counters only move forward, so
 *  cur < last means the underlying stats were reset since then: the
 *  whole current value is new. Updates the baseline. */
std::uint64_t
publishDelta(std::uint64_t cur, std::uint64_t &last)
{
    const std::uint64_t d = cur >= last ? cur - last : cur;
    last = cur;
    return d;
}

} // namespace

void
Hierarchy::publishMetrics()
{
    if (!obs::metricsEnabled())
        return;
    obs::MetricRegistry &reg = obs::MetricRegistry::global();

    reg.counterAdd("llc.visible_accesses",
                   publishDelta(trace_.size(), tracePublished_));
    for (unsigned s = 0; s < cfg_.llcSlices; ++s) {
        // Occupancy is a point-in-time sample, not a cumulative
        // counter: record the valid-line count per slice as a
        // distribution (order-independent under parallel sweeps).
        std::uint64_t lines = 0;
        for (unsigned set = 0; set < cfg_.llcSlice.sets; ++set)
            lines += llc_[s].occupancy(set);
        reg.sampleAdd("llc.slice" + std::to_string(s) + ".occupancy",
                      static_cast<double>(lines));
    }
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        const std::string core = "core" + std::to_string(c) + ".";
        const LlcContentionStats &llc = llcStats_[c];
        LlcContentionStats &llcBase = llcPublished_[c];
        reg.counterAdd(core + "llc.requests",
                       publishDelta(llc.requests, llcBase.requests));
        reg.counterAdd(core + "llc.queued",
                       publishDelta(llc.queued, llcBase.queued));
        reg.counterAdd(core + "llc.queue_delay",
                       publishDelta(llc.queueDelay,
                                    llcBase.queueDelay));
        if (prefetchEnabled()) {
            const PrefetchStats &pf = prefetchStats(c);
            PrefetchStats &pfBase = pfPublished_[c];
            reg.counterAdd(core + "prefetch.trained",
                           publishDelta(pf.trained, pfBase.trained));
            reg.counterAdd(core + "prefetch.issued",
                           publishDelta(pf.issued, pfBase.issued));
            reg.counterAdd(core + "prefetch.dropped",
                           publishDelta(pf.dropped, pfBase.dropped));
            reg.counterAdd(core + "prefetch.llc_fills",
                           publishDelta(pf.llcFills, pfBase.llcFills));
        }
    }
    if (cfg_.coherence.enabled) {
        // Client cfg_.cores is the spare direct-LLC (attacker) id.
        for (unsigned c = 0; c <= cfg_.cores; ++c) {
            const std::string client =
                c < cfg_.cores ? "core" + std::to_string(c) +
                                     ".coherence."
                               : std::string("llc.direct.coherence.");
            const CoherenceStats &coh = directory_.stats(c);
            CoherenceStats &base = cohPublished_[c];
            reg.counterAdd(client + "invalidations_sent",
                           publishDelta(coh.invalidationsSent,
                                        base.invalidationsSent));
            reg.counterAdd(client + "invalidations_received",
                           publishDelta(coh.invalidationsReceived,
                                        base.invalidationsReceived));
            reg.counterAdd(client + "downgrades_received",
                           publishDelta(coh.downgradesReceived,
                                        base.downgradesReceived));
            reg.counterAdd(client + "upgrades",
                           publishDelta(coh.upgrades, base.upgrades));
            reg.counterAdd(client + "exclusive_grants",
                           publishDelta(coh.exclusiveGrants,
                                        base.exclusiveGrants));
        }
    }
}

} // namespace specint
