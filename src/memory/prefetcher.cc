/**
 * @file
 * Prefetcher implementation: next-line candidate generation.
 */

#include "memory/prefetcher.hh"

namespace specint
{

Prefetcher::Prefetcher(PrefetchParams params)
    : params_(params)
{}

void
Prefetcher::observe(Addr addr, bool miss, std::vector<Addr> &out)
{
    if (params_.kind == PrefetchKind::None || !miss)
        return;

    const Addr line = lineAlign(addr);
    ++stats_.trained;
    for (unsigned d = 1; d <= params_.degree; ++d)
        out.push_back(line + static_cast<Addr>(d) * kLineBytes);
}

} // namespace specint
