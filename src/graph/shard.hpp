// On-disk CSR shards: the storage format of the out-of-core build.
//
// A shard is one rank's slice of the distributed graph — exactly what
// graph::build_distributed would have produced in memory — serialized as
// packed CSR arrays behind the shared G500EDGE header (binary_format.hpp)
// at version 3:
//
//   BinaryHeader   magic "G500EDGE", version 3, num_vertices (global),
//                  num_edges (directed edges of THIS shard)
//   ShardHeader    rank / num_ranks, num_local, global undirected input
//                  tuple count, section offsets, file size, checksum
//   offsets        (num_local + 1) x u64          — CSR row offsets
//   dst            num_edges x u64                — neighbour global ids
//   w              num_edges x f32                — weights
//
// Sections are 8-byte aligned.  Adjacency within a vertex is weight-sorted
// (ties by destination) — the exact invariant LocalCsr promises — so a
// mapped shard is byte-identical to the arrays the in-memory builder would
// hold.  Version 2 shards also carried a pull index; map() refuses them.
//
// ShardedCsr::map mmap()s a shard and exposes a LocalCsr view into the
// mapping: the engine's adjacency accesses page in on demand and
// the OS may evict them under pressure, so resident memory stays bounded
// by the engine's own per-vertex state instead of the edge count.
// load_sharded() is the SPMD entry point that assembles a full DistGraph
// (partition, hubs) from per-rank shard files.
//
// Every field read from disk is untrusted until validated: map() checks
// magic/version/checksum, section bounds against the real file size, and
// offset-array monotonicity before any view is handed out.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "simmpi/comm.hpp"

namespace g500::graph {

/// Memory-mapped read-only file (RAII over mmap/munmap).
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const unsigned char* data() const noexcept { return data_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

 private:
  const unsigned char* data_ = nullptr;
  std::uint64_t size_ = 0;
};

/// Shard file name of `rank` within a directory of `num_ranks` shards.
[[nodiscard]] std::string shard_path(const std::string& dir, int rank,
                                     int num_ranks);

/// One rank's mapped shard: metadata plus a CSR view into the mapping.
/// Copyable (copies share the mapping).
class ShardedCsr {
 public:
  /// Map and validate `path`.  Throws std::runtime_error on any
  /// malformation (bad magic/version/checksum, sections out of bounds,
  /// non-monotone offsets, counts the file cannot hold).
  [[nodiscard]] static ShardedCsr map(const std::string& path);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] LocalId num_local() const noexcept { return num_local_; }
  [[nodiscard]] std::uint64_t num_input_edges() const noexcept {
    return num_input_edges_;
  }

  /// View into the mapping — valid while this object (or a copy of the
  /// mapping handle) is alive.
  [[nodiscard]] const LocalCsr& csr() const noexcept { return csr_; }

  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept;
  [[nodiscard]] std::shared_ptr<const MappedFile> mapping() const noexcept {
    return file_;
  }

 private:
  std::shared_ptr<const MappedFile> file_;
  int rank_ = 0;
  int num_ranks_ = 1;
  VertexId num_vertices_ = 0;
  LocalId num_local_ = 0;
  std::uint64_t num_input_edges_ = 0;
  LocalCsr csr_;
};

/// Streaming shard serializer.  dst's section starts where num_local puts
/// it, so a producer streams dst first, then w, each in one or many chunks,
/// and learns the edge count only at the end.  finish() then writes the
/// offsets, the edge count and the header checksum.  The out-of-core
/// pipeline streams merge output through this without holding a section
/// in memory; write_shard() is the convenience wrapper for in-memory graphs.
class ShardWriter {
 public:
  struct Meta {
    int rank = 0;
    int num_ranks = 1;
    VertexId num_vertices = 0;
    std::uint64_t num_local = 0;
    std::uint64_t num_input_edges = 0;
  };

  /// Opens `path` and zero-fills the headers and the offsets section up to
  /// where dst starts.  Throws std::runtime_error on I/O failure.
  ShardWriter(const std::string& path, const Meta& meta);
  ~ShardWriter();
  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Every dst element, then every w element, each in one or many calls.
  /// The dst count is the shard's edge count.  dst after w throws, and so
  /// does more w than dst.
  void append_dst(std::span<const VertexId> data);
  void append_w(std::span<const Weight> data);

  /// Writes `offsets` (num_local + 1 entries ending at the edge count) and
  /// the headers, then flushes.  Throws if the offsets do not fit the
  /// shard, w is short, or the stream failed.
  void finish(std::span<const std::uint64_t> offsets);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Serialize one rank's piece of a built DistGraph as a shard file (the
/// out-of-core pipeline writes shards directly via ShardWriter; this path
/// exists to spill an in-memory graph and for format round-trip tests).
void write_shard(const std::string& path, const DistGraph& g, int rank);

/// SPMD: map this rank's shard from `dir` and assemble the DistGraph the
/// engines run over — partition, mapped CSR view, hubs re-selected
/// collectively from the mapped degrees (identical to the in-memory
/// build's).  The returned graph carries the mapping handle
/// (DistGraph::mapping) and reports GraphBacking::kMapped.
[[nodiscard]] DistGraph load_sharded(simmpi::Comm& comm,
                                     const std::string& dir,
                                     const BuildOptions& opts = {});

}  // namespace g500::graph
