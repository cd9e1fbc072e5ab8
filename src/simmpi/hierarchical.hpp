// Two-level (supernode-aggregated) personalized all-to-all.
//
// At 40M cores a flat alltoallv creates O(P^2) point-to-point messages per
// round — far beyond what any interconnect sustains.  Record runs aggregate
// hierarchically along the machine topology: ranks are grouped (supernodes
// on Sunway); each message first hops to the member of the *sender's* group
// that proxies the destination group, then travels in one bundled message
// per (group, group) pair, then scatters inside the destination group.
// Message count per round drops from P^2 to ~3 P^2 / G (with G the group
// size) concentrated on far fewer, larger messages, at the cost of each
// byte crossing the network up to three times.
//
// two_level_alltoallv is a drop-in replacement for Comm::alltoallv (same
// delivery contract, different schedule); the SSSP engine exposes it via
// SsspConfig::hierarchical_group.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "simmpi/comm.hpp"

namespace g500::simmpi {

/// Deliver out[d] to rank d for all d, like Comm::alltoallv, but routed in
/// three aggregated phases over groups of `group_size` consecutive ranks.
/// Delivery order within the result differs from flat alltoallv (messages
/// are grouped by proxy, not purely by source rank); callers must not rely
/// on source ordering.  group_size must be >= 1; values <= 1 or >= P fall
/// back to the flat exchange.
template <typename T>
std::vector<T> two_level_alltoallv(Comm& comm,
                                   const std::vector<std::vector<T>>& out,
                                   int group_size) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = comm.size();
  if (static_cast<int>(out.size()) != P) {
    throw std::invalid_argument("two_level_alltoallv: out.size() != size()");
  }
  if (group_size <= 1 || group_size >= P) {
    return comm.alltoallv(out);
  }
  const int my_group = comm.rank() / group_size;
  auto group_of = [group_size](int rank) { return rank / group_size; };
  auto group_begin = [group_size](int group) { return group * group_size; };
  auto group_count = [&](int group) {
    return std::min(group_size, P - group_begin(group));
  };
  // Proxy inside group g for destination group h: member h mod |g|.
  auto proxy_rank = [&](int src_group, int dst_group) {
    return group_begin(src_group) + dst_group % group_count(src_group);
  };

  // Every payload carries its final destination across the two hops.
  struct Routed {
    std::int32_t dst;
    T payload;
  };

  // ---- Phase 1: hand each message to this group's proxy for its
  //      destination group (intra-group traffic only).
  std::vector<std::vector<Routed>> stage1(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    const int via = proxy_rank(my_group, group_of(d));
    auto& box = stage1[static_cast<std::size_t>(via)];
    box.reserve(box.size() + out[static_cast<std::size_t>(d)].size());
    for (const T& item : out[static_cast<std::size_t>(d)]) {
      box.push_back(Routed{d, item});
    }
  }
  const std::vector<Routed> gathered = comm.alltoallv(stage1);

  // ---- Phase 2: one bundled message per destination group, sent to that
  //      group's proxy for *our* group (inter-group traffic only).
  std::vector<std::vector<Routed>> stage2(static_cast<std::size_t>(P));
  for (const Routed& item : gathered) {
    const int via = proxy_rank(group_of(item.dst), my_group);
    stage2[static_cast<std::size_t>(via)].push_back(item);
  }
  const std::vector<Routed> landed = comm.alltoallv(stage2);

  // ---- Phase 3: scatter to final destinations inside this group.
  std::vector<std::vector<T>> stage3(static_cast<std::size_t>(P));
  for (const Routed& item : landed) {
    stage3[static_cast<std::size_t>(item.dst)].push_back(item.payload);
  }
  return comm.alltoallv(stage3);
}

}  // namespace g500::simmpi
