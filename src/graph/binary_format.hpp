// On-disk binary layout shared by the edge-list reader/writer (io.cpp)
// and the out-of-core CSR shard format (shard.cpp).
//
// Both file families open with the same 32-byte G500EDGE header; the
// version field tells them apart:
//   * version 1 — flat edge-list payload (BinaryEdge records),
//   * version 3 — CSR shard (ShardHeader + packed adjacency sections,
//     see shard.hpp).  Version 2 was the shard layout that also carried a
//     pull index; nothing reads it any more.
//
// Every on-disk file is a trust boundary: readers must validate counts
// against the actual stream length and endpoints against num_vertices
// before allocating or indexing anything derived from the header.
#pragma once

#include <cstdint>

namespace g500::graph::binfmt {

inline constexpr char kMagic[8] = {'G', '5', '0', '0', 'E', 'D', 'G', 'E'};
inline constexpr std::uint32_t kEdgeListVersion = 1;
inline constexpr std::uint32_t kShardVersion = 3;

/// Common file prologue (both versions).
struct BinaryHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t num_vertices;
  /// v1: edge records that follow; v3: directed edges of this shard.
  std::uint64_t num_edges;
};
static_assert(sizeof(BinaryHeader) == 32);

/// v1 payload record: fixed layout independent of struct padding.
struct BinaryEdge {
  std::uint64_t src;
  std::uint64_t dst;
  float weight;
  float pad;
};
static_assert(sizeof(BinaryEdge) == 24);

}  // namespace g500::graph::binfmt
