#include "graph/shard.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "graph/binary_format.hpp"
#include "util/random.hpp"

namespace g500::graph {

namespace {

using binfmt::BinaryHeader;

/// Fixed-layout shard metadata following the BinaryHeader (all offsets are
/// absolute file positions, 8-byte aligned).
struct ShardHeader {
  std::uint32_t rank;
  std::uint32_t num_ranks;
  std::uint64_t num_local;
  std::uint64_t num_input_edges;  // global undirected input tuples
  std::uint32_t flags;            // bit 0: pull sections present
  std::uint32_t reserved;
  std::uint64_t num_pull_sources;
  std::uint64_t num_pull_entries;
  std::uint64_t offsets_off;
  std::uint64_t dst_off;
  std::uint64_t w_off;
  std::uint64_t pull_sources_off;
  std::uint64_t pull_offsets_off;
  std::uint64_t pull_dst_off;
  std::uint64_t pull_w_off;
  std::uint64_t file_bytes;
  std::uint64_t checksum;  // FNV over both headers with this field zeroed
};
static_assert(sizeof(ShardHeader) == 120);

constexpr std::uint32_t kFlagPull = 1u;

[[noreturn]] void shard_fail(const std::string& what) {
  throw std::runtime_error("CSR shard: " + what);
}

std::uint64_t align8(std::uint64_t off) { return (off + 7) & ~std::uint64_t{7}; }

/// Header digest: both headers hashed with the checksum field zeroed.
std::uint64_t header_checksum(const BinaryHeader& bin, ShardHeader shard) {
  shard.checksum = 0;
  std::uint64_t h = util::hash_bytes(&bin, sizeof(bin), /*seed=*/0x5348u);
  return util::hash64(h, util::hash_bytes(&shard, sizeof(shard), h));
}

/// Bounds-checked typed view of a mapped section.
template <typename T>
std::span<const T> map_section(const MappedFile& file, std::uint64_t off,
                               std::uint64_t count, const char* what) {
  if (off % 8 != 0) {
    shard_fail(std::string(what) + ": misaligned section offset");
  }
  const std::uint64_t bytes = count * sizeof(T);
  if (count > file.size() / sizeof(T) || off > file.size() ||
      bytes > file.size() - off) {
    shard_fail(std::string(what) + ": section exceeds file size");
  }
  return {reinterpret_cast<const T*>(file.data() + off),
          static_cast<std::size_t>(count)};
}

void check_monotone(std::span<const std::uint64_t> offsets,
                    std::uint64_t total, const char* what) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    shard_fail(std::string(what) + ": offset array endpoints corrupt");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      shard_fail(std::string(what) + ": offsets not monotone at " +
                 std::to_string(i));
    }
  }
}

}  // namespace

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    shard_fail("cannot open " + path + " (" + std::strerror(errno) + ")");
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    shard_fail("cannot stat " + path + " (" + std::strerror(err) + ")");
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ > 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      shard_fail("mmap of " + path + " failed (" + std::strerror(err) + ")");
    }
    data_ = static_cast<const unsigned char*>(p);
  }
  ::close(fd);  // the mapping keeps the file alive
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
}

std::string shard_path(const std::string& dir, int rank, int num_ranks) {
  return dir + "/shard_" + std::to_string(rank) + "_of_" +
         std::to_string(num_ranks) + ".g500";
}

struct ShardWriter::Impl {
  std::ofstream out;
  std::string path;
  // Section order: offsets, dst, w, pull_sources, pull_offsets, pull_dst,
  // pull_w — indexed 0..6 below.
  std::uint64_t section_off[7] = {};
  std::uint64_t expected[7] = {};  // element counts declared by Meta
  std::uint64_t written[7] = {};
  std::size_t elem_size[7] = {};
  std::uint64_t file_bytes = 0;
  int cursor = 0;  // all sections before this one are complete

  void pad_to(std::uint64_t off) {
    const auto pos = static_cast<std::uint64_t>(out.tellp());
    if (pos > off) shard_fail("internal: section overlap while writing");
    for (std::uint64_t i = pos; i < off; ++i) out.put('\0');
  }

  void append(int k, const char* what, const void* data, std::size_t count) {
    while (cursor < k) {
      if (written[cursor] != expected[cursor]) {
        shard_fail(std::string(what) +
                   " appended before an earlier section completed");
      }
      ++cursor;
    }
    if (k < cursor) {
      shard_fail(std::string(what) + " appended out of section order");
    }
    if (written[k] + count > expected[k]) {
      shard_fail(std::string(what) + ": more elements than declared (" +
                 std::to_string(expected[k]) + ")");
    }
    if (written[k] == 0) pad_to(section_off[k]);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(count * elem_size[k]));
    written[k] += count;
  }
};

ShardWriter::ShardWriter(const std::string& path, const Meta& meta)
    : impl_(std::make_unique<Impl>()) {
  if (!meta.has_pull &&
      (meta.num_pull_sources != 0 || meta.num_pull_entries != 0)) {
    shard_fail("meta declares pull elements without has_pull");
  }
  BinaryHeader bin{};
  std::memcpy(bin.magic, binfmt::kMagic, sizeof(binfmt::kMagic));
  bin.version = binfmt::kShardVersion;
  bin.num_vertices = meta.num_vertices;
  bin.num_edges = meta.num_edges;

  ShardHeader sh{};
  sh.rank = static_cast<std::uint32_t>(meta.rank);
  sh.num_ranks = static_cast<std::uint32_t>(meta.num_ranks);
  sh.num_local = meta.num_local;
  sh.num_input_edges = meta.num_input_edges;
  sh.flags = meta.has_pull ? kFlagPull : 0u;
  sh.num_pull_sources = meta.num_pull_sources;
  sh.num_pull_entries = meta.num_pull_entries;

  Impl& im = *impl_;
  im.path = path;
  im.expected[0] = meta.num_local + 1;
  im.elem_size[0] = sizeof(std::uint64_t);
  im.expected[1] = meta.num_edges;
  im.elem_size[1] = sizeof(VertexId);
  im.expected[2] = meta.num_edges;
  im.elem_size[2] = sizeof(Weight);
  im.expected[3] = meta.num_pull_sources;
  im.elem_size[3] = sizeof(VertexId);
  im.expected[4] = meta.has_pull ? meta.num_pull_sources + 1 : 0;
  im.elem_size[4] = sizeof(std::uint64_t);
  im.expected[5] = meta.num_pull_entries;
  im.elem_size[5] = sizeof(LocalId);
  im.expected[6] = meta.num_pull_entries;
  im.elem_size[6] = sizeof(Weight);

  std::uint64_t off = sizeof(BinaryHeader) + sizeof(ShardHeader);
  for (int k = 0; k < 7; ++k) {
    im.section_off[k] = off = align8(off);
    off += im.expected[k] * im.elem_size[k];
  }
  sh.offsets_off = im.section_off[0];
  sh.dst_off = im.section_off[1];
  sh.w_off = im.section_off[2];
  sh.pull_sources_off = im.section_off[3];
  sh.pull_offsets_off = im.section_off[4];
  sh.pull_dst_off = im.section_off[5];
  sh.pull_w_off = im.section_off[6];
  sh.file_bytes = im.file_bytes = off;
  sh.checksum = header_checksum(bin, sh);

  im.out.open(path, std::ios::binary);
  if (!im.out) shard_fail("cannot open " + path + " for writing");
  im.out.write(reinterpret_cast<const char*>(&bin), sizeof(bin));
  im.out.write(reinterpret_cast<const char*>(&sh), sizeof(sh));
}

ShardWriter::~ShardWriter() = default;

void ShardWriter::append_offsets(std::span<const std::uint64_t> data) {
  impl_->append(0, "offsets", data.data(), data.size());
}
void ShardWriter::append_dst(std::span<const VertexId> data) {
  impl_->append(1, "dst", data.data(), data.size());
}
void ShardWriter::append_w(std::span<const Weight> data) {
  impl_->append(2, "w", data.data(), data.size());
}
void ShardWriter::append_pull_sources(std::span<const VertexId> data) {
  impl_->append(3, "pull_sources", data.data(), data.size());
}
void ShardWriter::append_pull_offsets(std::span<const std::uint64_t> data) {
  impl_->append(4, "pull_offsets", data.data(), data.size());
}
void ShardWriter::append_pull_dst(std::span<const LocalId> data) {
  impl_->append(5, "pull_dst", data.data(), data.size());
}
void ShardWriter::append_pull_w(std::span<const Weight> data) {
  impl_->append(6, "pull_w", data.data(), data.size());
}

void ShardWriter::finish() {
  Impl& im = *impl_;
  for (int k = 0; k < 7; ++k) {
    if (im.written[k] != im.expected[k]) {
      shard_fail("finish with section " + std::to_string(k) + " short (" +
                 std::to_string(im.written[k]) + " of " +
                 std::to_string(im.expected[k]) + " elements)");
    }
  }
  // Pad to the declared size so truncation is always detectable.
  im.pad_to(im.file_bytes);
  im.out.close();
  if (im.out.fail()) shard_fail("write of " + im.path + " failed");
}

void write_shard(const std::string& path, const DistGraph& g, int rank) {
  const LocalCsr& csr = g.csr;
  const PullIndex& pull = g.pull;

  ShardWriter::Meta meta;
  meta.rank = rank;
  meta.num_ranks = g.part.num_ranks();
  meta.num_vertices = g.num_vertices;
  meta.num_local = csr.num_local();
  meta.num_input_edges = g.num_input_edges;
  meta.num_edges = csr.num_edges();
  meta.has_pull = pull.num_entries() > 0 || pull.num_sources() > 0;
  meta.num_pull_sources = meta.has_pull ? pull.num_sources() : 0;
  meta.num_pull_entries = meta.has_pull ? pull.num_entries() : 0;

  ShardWriter writer(path, meta);
  writer.append_offsets(csr.offsets());
  writer.append_dst(csr.adjacency());
  writer.append_w(csr.weights());
  if (meta.has_pull) {
    writer.append_pull_sources(pull.sources());
    writer.append_pull_offsets(pull.offsets());
    writer.append_pull_dst(pull.destinations());
    writer.append_pull_w(pull.weights());
  }
  writer.finish();
}

ShardedCsr ShardedCsr::map(const std::string& path) {
  ShardedCsr shard;
  shard.file_ = std::make_shared<MappedFile>(path);
  const MappedFile& file = *shard.file_;
  if (file.size() < sizeof(BinaryHeader) + sizeof(ShardHeader)) {
    shard_fail(path + ": too small for a shard header");
  }
  BinaryHeader bin{};
  std::memcpy(&bin, file.data(), sizeof(bin));
  if (std::memcmp(bin.magic, binfmt::kMagic, sizeof(binfmt::kMagic)) != 0) {
    shard_fail(path + ": bad magic (not a G500EDGE file)");
  }
  if (bin.version != binfmt::kShardVersion) {
    shard_fail(path + ": unsupported shard version " +
               std::to_string(bin.version));
  }
  ShardHeader sh{};
  std::memcpy(&sh, file.data() + sizeof(bin), sizeof(sh));
  if (sh.checksum != header_checksum(bin, sh)) {
    shard_fail(path + ": header checksum mismatch");
  }
  if (sh.file_bytes != file.size()) {
    shard_fail(path + ": truncated (header declares " +
               std::to_string(sh.file_bytes) + " bytes, file has " +
               std::to_string(file.size()) + ")");
  }
  if (sh.num_ranks == 0 || sh.rank >= sh.num_ranks) {
    shard_fail(path + ": rank " + std::to_string(sh.rank) + " of " +
               std::to_string(sh.num_ranks) + " is invalid");
  }
  if (sh.num_local >
      std::numeric_limits<LocalId>::max() - std::uint64_t{1}) {
    shard_fail(path + ": num_local exceeds the local index space");
  }

  const auto offsets = map_section<std::uint64_t>(
      file, sh.offsets_off, sh.num_local + 1, "offsets");
  const auto dst =
      map_section<VertexId>(file, sh.dst_off, bin.num_edges, "dst");
  const auto w = map_section<Weight>(file, sh.w_off, bin.num_edges, "w");
  check_monotone(offsets, bin.num_edges, "offsets");

  shard.rank_ = static_cast<int>(sh.rank);
  shard.num_ranks_ = static_cast<int>(sh.num_ranks);
  shard.num_vertices_ = bin.num_vertices;
  shard.num_local_ = static_cast<LocalId>(sh.num_local);
  shard.num_input_edges_ = sh.num_input_edges;
  shard.csr_ = LocalCsr::view(shard.num_local_, offsets, dst, w);

  shard.has_pull_ = (sh.flags & kFlagPull) != 0;
  if (shard.has_pull_) {
    const auto pull_sources = map_section<VertexId>(
        file, sh.pull_sources_off, sh.num_pull_sources, "pull_sources");
    const auto pull_offsets = map_section<std::uint64_t>(
        file, sh.pull_offsets_off, sh.num_pull_sources + 1, "pull_offsets");
    const auto pull_dst = map_section<LocalId>(
        file, sh.pull_dst_off, sh.num_pull_entries, "pull_dst");
    const auto pull_w = map_section<Weight>(file, sh.pull_w_off,
                                            sh.num_pull_entries, "pull_w");
    check_monotone(pull_offsets, sh.num_pull_entries, "pull_offsets");
    shard.pull_ =
        PullIndex::view(pull_sources, pull_offsets, pull_dst, pull_w);
  }
  return shard;
}

std::uint64_t ShardedCsr::mapped_bytes() const noexcept {
  return file_ ? file_->size() : 0;
}

DistGraph load_sharded(simmpi::Comm& comm, const std::string& dir,
                       const BuildOptions& opts) {
  const ShardedCsr shard =
      ShardedCsr::map(shard_path(dir, comm.rank(), comm.size()));
  if (shard.num_ranks() != comm.size() || shard.rank() != comm.rank()) {
    shard_fail("shard set in " + dir + " was built for " +
               std::to_string(shard.num_ranks()) + " ranks, loaded on " +
               std::to_string(comm.size()));
  }

  DistGraph g;
  g.num_vertices = shard.num_vertices();
  g.part = BlockPartition(g.num_vertices, comm.size());
  if (g.part.count(comm.rank()) != shard.num_local()) {
    shard_fail("shard local count disagrees with the block partition");
  }
  g.num_input_edges = shard.num_input_edges();
  g.csr = shard.csr();
  if (opts.build_pull_index && shard.has_pull()) {
    g.pull = shard.pull();
  }
  g.backing = GraphBacking::kMapped;
  g.mapped_bytes = shard.mapped_bytes();
  g.mapping = shard.mapping();

  // Cross-shard agreement: every shard must describe the same graph.
  const auto agree = [&](std::uint64_t v, const char* what) {
    if (comm.allreduce_min(v) != comm.allreduce_max(v)) {
      shard_fail(std::string("shard set disagrees on ") + what);
    }
  };
  agree(g.num_vertices, "num_vertices");
  agree(g.num_input_edges, "num_input_edges");
  g.num_directed_edges = comm.allreduce_sum<std::uint64_t>(g.csr.num_edges());
  select_hubs(comm, g.part, g.csr,
              resolved_hub_count(opts, g.num_vertices), g.hubs,
              g.hub_degrees);
  return g;
}

}  // namespace g500::graph
