#include "graph/shard.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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
  std::uint64_t offsets_off;
  std::uint64_t dst_off;
  std::uint64_t w_off;
  std::uint64_t file_bytes;
  std::uint64_t checksum;  // FNV over both headers with this field zeroed
};
static_assert(sizeof(ShardHeader) == 64);

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
  Meta meta;
  std::uint64_t offsets_off = 0;
  std::uint64_t dst_off = 0;
  std::uint64_t num_edges = 0;  // dst elements written
  std::uint64_t w_written = 0;
  bool in_w = false;  // w has begun, so dst is complete

  [[nodiscard]] std::uint64_t w_off() const {
    return align8(dst_off + num_edges * sizeof(VertexId));
  }

  void pad_to(std::uint64_t off) {
    static constexpr char kZeros[4096] = {};
    auto pos = static_cast<std::uint64_t>(out.tellp());
    if (pos > off) shard_fail("internal: section overlap while writing");
    while (pos < off) {
      const std::uint64_t n =
          std::min<std::uint64_t>(off - pos, sizeof(kZeros));
      out.write(kZeros, static_cast<std::streamsize>(n));
      pos += n;
    }
  }

  void write(const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  }
};

ShardWriter::ShardWriter(const std::string& path, const Meta& meta)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.path = path;
  im.meta = meta;
  im.offsets_off = align8(sizeof(BinaryHeader) + sizeof(ShardHeader));
  im.dst_off =
      align8(im.offsets_off + (meta.num_local + 1) * sizeof(std::uint64_t));
  im.out.open(path, std::ios::binary);
  if (!im.out) shard_fail("cannot open " + path + " for writing");
  im.pad_to(im.dst_off);
}

ShardWriter::~ShardWriter() = default;

void ShardWriter::append_dst(std::span<const VertexId> data) {
  Impl& im = *impl_;
  if (im.in_w) shard_fail("dst appended after w");
  im.write(data.data(), data.size_bytes());
  im.num_edges += data.size();
}

void ShardWriter::append_w(std::span<const Weight> data) {
  Impl& im = *impl_;
  if (!im.in_w) {
    im.in_w = true;
    im.pad_to(im.w_off());
  }
  if (im.w_written + data.size() > im.num_edges) {
    shard_fail("w: more elements than dst (" +
               std::to_string(im.num_edges) + ")");
  }
  im.write(data.data(), data.size_bytes());
  im.w_written += data.size();
}

void ShardWriter::finish(std::span<const std::uint64_t> offsets) {
  Impl& im = *impl_;
  if (offsets.size() != im.meta.num_local + 1 ||
      offsets.back() != im.num_edges) {
    shard_fail("finish with " + std::to_string(offsets.size()) +
               " offsets for " + std::to_string(im.meta.num_local) +
               " vertices and " + std::to_string(im.num_edges) + " edges");
  }
  if (im.w_written != im.num_edges) {
    shard_fail("finish with w short (" + std::to_string(im.w_written) +
               " of " + std::to_string(im.num_edges) + " elements)");
  }
  const std::uint64_t w_off = im.w_off();
  const std::uint64_t file_bytes = w_off + im.num_edges * sizeof(Weight);
  im.pad_to(file_bytes);

  BinaryHeader bin{};
  std::memcpy(bin.magic, binfmt::kMagic, sizeof(binfmt::kMagic));
  bin.version = binfmt::kShardVersion;
  bin.num_vertices = im.meta.num_vertices;
  bin.num_edges = im.num_edges;

  ShardHeader sh{};
  sh.rank = static_cast<std::uint32_t>(im.meta.rank);
  sh.num_ranks = static_cast<std::uint32_t>(im.meta.num_ranks);
  sh.num_local = im.meta.num_local;
  sh.num_input_edges = im.meta.num_input_edges;
  sh.offsets_off = im.offsets_off;
  sh.dst_off = im.dst_off;
  sh.w_off = w_off;
  sh.file_bytes = file_bytes;
  sh.checksum = header_checksum(bin, sh);

  im.out.seekp(0);
  im.write(&bin, sizeof(bin));
  im.write(&sh, sizeof(sh));
  im.out.seekp(static_cast<std::streamoff>(im.offsets_off));
  im.write(offsets.data(), offsets.size_bytes());
  im.out.close();
  if (im.out.fail()) shard_fail("write of " + im.path + " failed");
}

void write_shard(const std::string& path, const DistGraph& g, int rank) {
  const LocalCsr& csr = g.csr;

  ShardWriter::Meta meta;
  meta.rank = rank;
  meta.num_ranks = g.part.num_ranks();
  meta.num_vertices = g.num_vertices;
  meta.num_local = csr.num_local();
  meta.num_input_edges = g.num_input_edges;

  ShardWriter writer(path, meta);
  writer.append_dst(csr.adjacency());
  writer.append_w(csr.weights());
  writer.finish(csr.offsets());
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
