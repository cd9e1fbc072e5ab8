// Distributed value lookup: fetch per-vertex values owned by other ranks.
//
// The serving layer and the reachability kernel need values owned by other
// ranks; these helpers turn "give me value[v] for these global ids" into
// two alltoallv rounds (queries out, answers back) while preserving the
// caller's query order.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

namespace detail {

/// The exchange both fetches share: route each query to the owner of
/// `vertex_of(query)`, answer it there with `answer(query, local index)`,
/// and return the answers in query order (two alltoallv rounds).  SPMD:
/// every rank must call it, even with empty queries.
template <typename T, typename Query, typename VertexOf, typename Answer>
std::vector<T> owner_lookup(simmpi::Comm& comm,
                            const graph::BlockPartition& part,
                            const std::vector<Query>& queries,
                            VertexOf vertex_of, Answer answer) {
  const int P = comm.size();
  std::vector<std::vector<Query>> ask(static_cast<std::size_t>(P));
  // Remember where each query goes so answers can be re-interleaved.
  std::vector<int> query_rank(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const int owner = part.owner(vertex_of(queries[i]));
    query_rank[i] = owner;
    ask[static_cast<std::size_t>(owner)].push_back(queries[i]);
  }

  std::vector<std::size_t> from;
  const auto incoming = comm.alltoallv(ask, &from);

  // Answer every incoming query from local storage, preserving order.
  std::vector<std::vector<T>> answers(static_cast<std::size_t>(P));
  for (std::size_t s = 0; s < answers.size(); ++s) {
    answers[s].reserve(from[s + 1] - from[s]);
    for (std::size_t i = from[s]; i < from[s + 1]; ++i) {
      const graph::VertexId v = vertex_of(incoming[i]);
      if (part.owner(v) != comm.rank()) {
        throw std::logic_error("fetch_values: query routed to wrong owner");
      }
      answers[s].push_back(answer(incoming[i], part.local(v)));
    }
  }

  // Replies from rank r arrive in the order we asked rank r; per-rank
  // cursors, starting where r's replies start, restore the original
  // interleaving.
  std::vector<std::size_t> cursor;
  const auto replies = comm.alltoallv(answers, &cursor);
  std::vector<T> result(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto r = static_cast<std::size_t>(query_rank[i]);
    result[i] = replies.at(cursor[r]++);
  }
  return result;
}

}  // namespace detail

/// For each global vertex id in `queries` (any owner, duplicates fine),
/// return the owner's `local_values[local(id)]`, in query order.
/// `local_values` must hold this rank's owned values.  SPMD: every rank
/// must call this, even with empty queries.
template <typename T>
std::vector<T> fetch_values(simmpi::Comm& comm,
                            const graph::BlockPartition& part,
                            const std::vector<graph::VertexId>& queries,
                            const std::vector<T>& local_values) {
  return detail::owner_lookup<T>(
      comm, part, queries, [](graph::VertexId v) { return v; },
      [&](graph::VertexId, graph::LocalId local) {
        return local_values.at(local);
      });
}

/// One entry of a multi-slot batched fetch: "value of `vertex` in value
/// set `slot`".  Slots let one exchange answer queries against several
/// distributed vectors at once (e.g. the distance slices of every root in
/// a serving micro-batch).
struct SlotQuery {
  std::uint32_t slot;
  graph::VertexId vertex;
};
static_assert(std::is_trivially_copyable_v<SlotQuery>);

/// Batched multi-slot variant of fetch_values: for each (slot, vertex)
/// query return `*slots[slot]` at the owner's local index of `vertex`, in
/// query order, using a single query/answer exchange for the whole batch.
///
/// `slots` holds this rank's owned slice of each logical value set; every
/// rank must pass the same number of slots in the same logical order
/// (SPMD), and every rank must call this even with empty queries.
/// Duplicates and self-owned queries are fine.  Throws std::out_of_range
/// on a slot index past `slots.size()` and std::logic_error on a
/// misrouted query or a null slot pointer.
template <typename T>
std::vector<T> fetch_values_batched(
    simmpi::Comm& comm, const graph::BlockPartition& part,
    const std::vector<SlotQuery>& queries,
    const std::vector<const std::vector<T>*>& slots) {
  for (const auto& q : queries) {
    if (q.slot >= slots.size()) {
      throw std::out_of_range("fetch_values_batched: slot out of range");
    }
  }
  return detail::owner_lookup<T>(
      comm, part, queries, [](const SlotQuery& q) { return q.vertex; },
      [&](const SlotQuery& q, graph::LocalId local) {
        if (q.slot >= slots.size() || slots[q.slot] == nullptr) {
          throw std::logic_error("fetch_values_batched: bad slot on owner");
        }
        return slots[q.slot]->at(local);
      });
}

}  // namespace g500::core
