/**
 * @file
 * Display names for the SMT fetch policies.
 */

#include "smt/policy.hh"

namespace specint
{

std::string
fetchPolicyName(FetchPolicy p)
{
    switch (p) {
      case FetchPolicy::RoundRobin: return "round-robin";
      case FetchPolicy::ICount: return "icount";
    }
    return "?";
}

} // namespace specint
