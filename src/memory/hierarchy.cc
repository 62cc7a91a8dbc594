/**
 * @file
 * Cache hierarchy implementation: the transaction walk over per-core
 * L1-I/L1-D/L2 and the sliced inclusive LLC, visible access tracing,
 * invisible transactions, the MESI coherence hooks, the prefetcher
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
    if (prefetch.kind == PrefetchKind::Stride &&
        prefetch.streamTableSize == 0) {
        return "prefetch.streamTableSize must be nonzero for the "
               "stride prefetcher";
    }
    return "";
}

HierarchyConfig
HierarchyConfig::small()
{
    HierarchyConfig cfg;
    cfg.cores = 2;
    cfg.l1i = {"l1i", 16, 4, ReplKind::Lru, QlruVariant::h11m1r0u0()};
    cfg.l1d = {"l1d", 16, 4, ReplKind::Lru, QlruVariant::h11m1r0u0()};
    cfg.l2 = {"l2", 64, 4, ReplKind::Lru, QlruVariant::h11m1r0u0()};
    cfg.llcSlice = {"llc", 64, 16, ReplKind::Qlru,
                    QlruVariant::h11m1r0u0()};
    cfg.llcSlices = 2;
    return cfg;
}

HierarchyConfig
HierarchyConfig::kabyLake()
{
    HierarchyConfig cfg;
    cfg.cores = 2;
    // 32 KB 8-way L1s, 256 KB 4-way L2, 8 MB 16-way LLC in 4 slices.
    cfg.l1i = {"l1i", 64, 8, ReplKind::Lru, QlruVariant::h11m1r0u0()};
    cfg.l1d = {"l1d", 64, 8, ReplKind::Lru, QlruVariant::h11m1r0u0()};
    cfg.l2 = {"l2", 1024, 4, ReplKind::Lru, QlruVariant::h11m1r0u0()};
    cfg.llcSlice = {"llc", 2048, 16, ReplKind::Qlru,
                    QlruVariant::h11m1r0u0()};
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
Hierarchy::applyQueueDelay(MemTransaction &txn, std::int64_t extra)
{
    txn.result.queueDelay = static_cast<Tick>(extra > 0 ? extra : 0);
    txn.result.latency = static_cast<Tick>(
        static_cast<std::int64_t>(txn.result.latency) + extra);
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
    if (evicted != kAddrInvalid && cfg_.inclusiveLlc)
        backInvalidate(evicted);
}

MemAccessResult
Hierarchy::execute(MemTransaction &txn)
{
    switch (txn.source) {
      case TxnSource::Direct:
        walkDirect(txn);
        break;
      case TxnSource::Demand:
      case TxnSource::Prefetch:
        if (txn.visibility == TxnVisibility::Visible)
            walkVisible(txn);
        else
            walkInvisible(txn);
        break;
    }
    if (obs::tracingEnabled())
        traceTxn(txn);
    if (txn.train && txn.source == TxnSource::Demand &&
        txn.type == AccessType::Data && prefetchEnabled()) {
        trainPrefetcher(txn);
    }
    return txn.result;
}

void
Hierarchy::traceTxn(const MemTransaction &txn)
{
    obs::EventTracer &tracer = obs::EventTracer::global();
    std::uint32_t track;
    if (txn.source == TxnSource::Direct) {
        if (directTraceTrack_ == 0)
            directTraceTrack_ = tracer.track("llc.direct");
        track = directTraceTrack_;
    } else {
        std::uint32_t &slot = memTraceTracks_[txn.core];
        if (slot == 0) {
            slot = tracer.track("core" + std::to_string(txn.core) +
                                ".mem");
        }
        track = slot;
    }
    // Span name = the level that served the request, so the Perfetto
    // timeline reads as the walk's outcome; the category separates
    // demand, prefetch and invisible traffic for filtering.
    const char *cat =
        txn.source == TxnSource::Prefetch
            ? "prefetch"
            : (txn.visibility == TxnVisibility::Invisible
                   ? "invisible"
                   : "mem");
    tracer.complete(track, servedByName(txn.result.servedBy), cat,
                    txn.issuedAt, txn.result.latency, "addr",
                    txn.addr, "queue_delay", txn.result.queueDelay);
}

void
Hierarchy::traceInvalidations(CoreId requester, std::size_t victims,
                              Addr addr, Tick now)
{
    (void)requester;
    obs::EventTracer &tracer = obs::EventTracer::global();
    if (cohTraceTrack_ == 0)
        cohTraceTrack_ = tracer.track("llc.coherence");
    tracer.instant(cohTraceTrack_, "invalidate", "coherence", now,
                   "addr", lineAlign(addr), "victims", victims);
}

void
Hierarchy::walkVisible(MemTransaction &txn)
{
    assert(txn.core < cfg_.cores);
    MemAccessResult &res = txn.result;
    const CoreId core = txn.core;
    const Addr addr = txn.addr;
    const Tick now = txn.issuedAt;

    CacheArray *l1 = nullptr;
    if (txn.source == TxnSource::Demand) {
        // L1 stage.
        l1 = (txn.type == AccessType::Instr) ? &l1i_[core]
                                             : &l1d_[core];
        res.latency = cfg_.l1Latency;
        if (l1->touch(addr)) {
            res.servedBy = ServedBy::L1;
            res.l1Hit = true;
            coherenceWriteFinish(txn);
            return;
        }

        // L2 stage.
        res.latency += cfg_.l2Latency;
        if (l2_[core].touch(addr)) {
            res.servedBy = ServedBy::L2;
            l1->fill(addr);
            coherenceWriteFinish(txn);
            return;
        }
    }
    // Prefetch transactions start here: the prefetcher sits beside L2
    // and fills L2/LLC, never L1.

    // LLC stage. The transaction reaches the shared level: this is a
    // visible access and enters the C(E) trace regardless of hit/miss
    // (both change LLC replacement state).
    trace_.push_back({core, lineAlign(addr), now, txn.type, txn.source});

    // Coherence: a read arriving at the shared level may have to
    // demote a remote owner (Modified owners add the writeback
    // latency) and joins the sharer set. Write-intent transactions
    // settle ownership in coherenceWriteFinish() instead.
    if (cfg_.coherence.enabled && txn.type == AccessType::Data &&
        txn.intent == MemIntent::Read) {
        const CoherenceDirectory::ReadOutcome coh =
            directory_.read(core, addr, now, /*join=*/true);
        res.latency += coh.extraLatency;
        res.coherenceDelay += coh.extraLatency;
    }

    res.latency += cfg_.llcLatency;
    CacheArray &slice = llc_[llcSliceIndex(addr)];
    if (slice.touch(addr)) {
        res.servedBy = ServedBy::Llc;
        res.llcHit = true;
        applyQueueDelay(txn, sharedLevelDelay(core, addr, now, false));
        l2_[core].fill(addr);
        if (l1)
            l1->fill(addr);
        coherenceWriteFinish(txn);
        return;
    }

    // Memory stage.
    res.latency += cfg_.memLatency;
    res.servedBy = ServedBy::Mem;
    applyQueueDelay(txn, sharedLevelDelay(core, addr, now, true));
    llcFill(addr);
    l2_[core].fill(addr);
    if (l1)
        l1->fill(addr);
    coherenceWriteFinish(txn);
}

void
Hierarchy::walkInvisible(MemTransaction &txn)
{
    txn.result = peekLatency(txn.core, txn.addr, txn.type);
    MemAccessResult &res = txn.result;
    if (res.servedBy >= ServedBy::Llc) {
        // The invisible request still travelled to the shared level.
        // It pays a remote Modified owner's writeback (the data has to
        // be snooped even though no state changes) ...
        if (cfg_.coherence.enabled && txn.type == AccessType::Data &&
            directory_.remoteModified(txn.core, txn.addr)) {
            res.latency += cfg_.coherence.writebackLatency;
            res.coherenceDelay += cfg_.coherence.writebackLatency;
        }
        // ... and its bandwidth/MSHR occupancy is charged (state stays
        // untouched).
        applyQueueDelay(txn, sharedLevelDelay(
                                 txn.core, txn.addr, txn.issuedAt,
                                 res.servedBy == ServedBy::Mem));
    }
}

void
Hierarchy::walkDirect(MemTransaction &txn)
{
    MemAccessResult &res = txn.result;
    const CoreId core = txn.core;
    const Addr addr = txn.addr;
    const Tick now = txn.issuedAt;

    trace_.push_back({core, lineAlign(addr), now, AccessType::Data,
                      TxnSource::Direct});

    // A direct client has no private caches: it never joins the sharer
    // set, but it still forces a dirty remote owner to write back.
    if (cfg_.coherence.enabled) {
        const CoherenceDirectory::ReadOutcome coh =
            directory_.read(core, addr, now, /*join=*/false);
        res.latency += coh.extraLatency;
        res.coherenceDelay += coh.extraLatency;
    }

    res.latency += cfg_.llcLatency;
    CacheArray &slice = llc_[llcSliceIndex(addr)];
    const bool hit = slice.touch(addr);
    if (!hit)
        res.latency += cfg_.memLatency;
    applyQueueDelay(txn, sharedLevelDelay(core, addr, now, !hit));
    if (hit) {
        res.servedBy = ServedBy::Llc;
        res.llcHit = true;
        return;
    }
    res.servedBy = ServedBy::Mem;
    llcFill(addr);
}

void
Hierarchy::coherenceWriteFinish(MemTransaction &txn)
{
    if (!cfg_.coherence.enabled || txn.intent != MemIntent::Write ||
        txn.type != AccessType::Data) {
        return;
    }
    const CoherenceDirectory::WriteOutcome out = directory_.write(
        txn.core, txn.addr, txn.issuedAt, /*take_ownership=*/true);
    for (CoreId victim : out.invalidate)
        invalidatePrivate(victim, lineAlign(txn.addr));
    if (!out.invalidate.empty() && obs::tracingEnabled()) {
        traceInvalidations(txn.core, out.invalidate.size(), txn.addr,
                           txn.issuedAt);
    }
    txn.result.latency += out.extraLatency;
    txn.result.coherenceDelay += out.extraLatency;
    txn.result.invalidations +=
        static_cast<unsigned>(out.invalidate.size());
}

void
Hierarchy::trainPrefetcher(const MemTransaction &txn)
{
    Prefetcher &pf = prefetchers_[txn.core];
    prefetchCands_.clear();
    // "Miss" from the prefetcher's point of view: the demand request
    // left the private levels (served by the LLC or memory).
    pf.observe(txn.addr, txn.result.servedBy >= ServedBy::Llc,
               prefetchCands_);
    for (Addr cand : prefetchCands_) {
        if (l1d_[txn.core].contains(cand) ||
            l2_[txn.core].contains(cand)) {
            ++pf.stats().dropped;
            continue;
        }
        // A real transaction: fills L2/LLC, occupies slice ports and
        // shared MSHRs, appears in the C(E) trace — and is *visible*
        // even when the demand access that trained it was invisible.
        MemTransaction &p = *txnPool_.acquire();
        p.core = txn.core;
        p.addr = cand;
        p.type = AccessType::Data;
        p.intent = MemIntent::Read;
        p.source = TxnSource::Prefetch;
        p.visibility = TxnVisibility::Visible;
        p.train = false;
        p.issuedAt = txn.issuedAt;
        execute(p);
        ++pf.stats().issued;
        if (p.result.servedBy == ServedBy::Mem)
            ++pf.stats().llcFills;
        txnPool_.release(&p);
    }
}

MemAccessResult
Hierarchy::access(CoreId core, Addr addr, AccessType type, Tick now,
                  MemIntent intent, bool train)
{
    MemTransaction &txn = *txnPool_.acquire();
    txn.core = core;
    txn.addr = addr;
    txn.type = type;
    txn.intent = intent;
    txn.source = TxnSource::Demand;
    txn.visibility = TxnVisibility::Visible;
    txn.train = train;
    txn.issuedAt = now;
    const MemAccessResult res = execute(txn);
    txnPool_.release(&txn);
    return res;
}

MemAccessResult
Hierarchy::accessInvisible(CoreId core, Addr addr, AccessType type,
                           Tick now, bool train)
{
    MemTransaction &txn = *txnPool_.acquire();
    txn.core = core;
    txn.addr = addr;
    txn.type = type;
    txn.intent = MemIntent::Read;
    txn.source = TxnSource::Demand;
    txn.visibility = TxnVisibility::Invisible;
    txn.train = train;
    txn.issuedAt = now;
    const MemAccessResult res = execute(txn);
    txnPool_.release(&txn);
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
        res.l1Hit = true;
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
        res.llcHit = true;
        return res;
    }
    res.latency += cfg_.memLatency;
    res.servedBy = ServedBy::Mem;
    return res;
}

MemAccessResult
Hierarchy::accessDirect(CoreId core, Addr addr, Tick now)
{
    MemTransaction &txn = *txnPool_.acquire();
    txn.core = core;
    txn.addr = addr;
    txn.type = AccessType::Data;
    txn.intent = MemIntent::Read;
    txn.source = TxnSource::Direct;
    txn.visibility = TxnVisibility::Visible;
    txn.train = false;
    txn.issuedAt = now;
    const MemAccessResult res = execute(txn);
    txnPool_.release(&txn);
    return res;
}

Tick
Hierarchy::specStoreUpgrade(CoreId core, Addr addr, Tick now,
                            bool take_ownership)
{
    if (!cfg_.coherence.enabled)
        return 0;
    const CoherenceDirectory::WriteOutcome out =
        directory_.write(core, addr, now, take_ownership);
    for (CoreId victim : out.invalidate)
        invalidatePrivate(victim, lineAlign(addr));
    if (!out.invalidate.empty() && obs::tracingEnabled())
        traceInvalidations(core, out.invalidate.size(), addr, now);
    return out.extraLatency;
}

bool
Hierarchy::l1Probe(CoreId core, Addr addr, AccessType type) const
{
    const CacheArray &l1 =
        (type == AccessType::Instr) ? l1i_[core] : l1d_[core];
    return l1.contains(addr);
}

void
Hierarchy::l1DeferredTouch(CoreId core, Addr addr, AccessType type)
{
    CacheArray &l1 =
        (type == AccessType::Instr) ? l1i_[core] : l1d_[core];
    l1.deferredTouch(addr);
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
    txnPool_.reset();
    slabAcquiresPublished_ = 0;
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
    reg.counterAdd("llc.txnslab.acquires",
                   publishDelta(txnPool_.acquires(),
                                slabAcquiresPublished_));
    reg.sampleAdd("llc.txnslab.high_water",
                  static_cast<double>(txnPool_.highWater()));
    reg.sampleAdd("llc.txnslab.capacity",
                  static_cast<double>(txnPool_.capacity()));
    for (unsigned s = 0; s < cfg_.llcSlices; ++s) {
        // Occupancy is a point-in-time sample, not a cumulative
        // counter: record the valid-line count per slice as a
        // distribution (order-independent under parallel sweeps,
        // unlike a gauge).
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
