#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/binary_format.hpp"

namespace g500::graph {

namespace {

using binfmt::BinaryEdge;
using binfmt::BinaryHeader;

[[noreturn]] void io_fail(const std::string& what) {
  throw std::runtime_error("edge-list I/O: " + what);
}

/// Bytes left in `in` from the current position, or -1 when the stream is
/// not seekable.  Restores the read position either way.
std::streamoff remaining_bytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  in.clear();
  if (end == std::istream::pos_type(-1) || end < pos) return -1;
  return static_cast<std::streamoff>(end - pos);
}

/// Parse a strictly-positive finite float consuming the whole token;
/// returns false on any malformation ("abc", "0.5junk", overflow, ...).
bool parse_weight_token(const std::string& token, float& out) {
  errno = 0;
  char* end = nullptr;
  const float value = std::strtof(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  out = value;
  return true;
}

/// The loaders' weight rule: SSSP needs weights that are positive and
/// finite.  Also keeps NaN, which no sort can order, out of the builder.
bool usable_weight(float w) {
  return w > 0.0f && w != std::numeric_limits<float>::infinity();
}

}  // namespace

void write_edge_list_binary(std::ostream& out, const EdgeList& list) {
  BinaryHeader header{};
  std::memcpy(header.magic, binfmt::kMagic, sizeof(binfmt::kMagic));
  header.version = binfmt::kEdgeListVersion;
  header.num_vertices = list.num_vertices;
  header.num_edges = list.edges.size();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const auto& e : list.edges) {
    BinaryEdge rec{e.src, e.dst, e.weight, 0.0f};
    out.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
  }
  if (!out) io_fail("write failed");
}

EdgeList read_edge_list_binary(std::istream& in) {
  BinaryHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, binfmt::kMagic,
                         sizeof(binfmt::kMagic)) != 0) {
    io_fail("bad magic (not a G500EDGE file)");
  }
  if (header.version == binfmt::kShardVersion) {
    io_fail("version 2 is a CSR shard, not an edge list (use graph/shard.hpp)");
  }
  if (header.version != binfmt::kEdgeListVersion) {
    io_fail("unsupported version " + std::to_string(header.version));
  }

  // The header is untrusted: never reserve() what it claims without
  // checking the stream can actually hold that many records — a corrupt
  // num_edges of 2^60 would otherwise OOM before any payload validation.
  const std::streamoff remaining = remaining_bytes(in);
  if (remaining >= 0) {
    const auto capacity =
        static_cast<std::uint64_t>(remaining) / sizeof(BinaryEdge);
    if (header.num_edges > capacity) {
      io_fail("truncated: header claims " + std::to_string(header.num_edges) +
              " edges but the stream holds at most " +
              std::to_string(capacity));
    }
  }
  // Non-seekable streams fall back to a bounded initial reservation and
  // rely on the per-record truncation check below.
  constexpr std::uint64_t kFallbackReserve = std::uint64_t{1} << 20;

  EdgeList list;
  list.num_vertices = header.num_vertices;
  list.edges.reserve(static_cast<std::size_t>(
      std::min(header.num_edges,
               remaining >= 0 ? header.num_edges : kFallbackReserve)));
  for (std::uint64_t i = 0; i < header.num_edges; ++i) {
    BinaryEdge rec{};
    in.read(reinterpret_cast<char*>(&rec), sizeof(rec));
    if (!in) io_fail("truncated payload at edge " + std::to_string(i));
    if (rec.src >= header.num_vertices || rec.dst >= header.num_vertices) {
      io_fail("edge " + std::to_string(i) + ": endpoint (" +
              std::to_string(rec.src) + ", " + std::to_string(rec.dst) +
              ") out of range for " + std::to_string(header.num_vertices) +
              " vertices");
    }
    if (!usable_weight(rec.weight)) {
      io_fail("non-positive or non-finite weight at edge " +
              std::to_string(i));
    }
    list.edges.push_back(Edge{rec.src, rec.dst, rec.weight});
  }
  return list;
}

void write_edge_list_binary(const std::string& path, const EdgeList& list) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail("cannot open " + path + " for writing");
  write_edge_list_binary(out, list);
}

EdgeList read_edge_list_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail("cannot open " + path);
  return read_edge_list_binary(in);
}

void write_edge_list_tsv(std::ostream& out, const EdgeList& list) {
  out << "# vertices: " << list.num_vertices << '\n';
  out << "# edges: " << list.edges.size() << '\n';
  for (const auto& e : list.edges) {
    out << e.src << '\t' << e.dst << '\t' << e.weight << '\n';
  }
  if (!out) io_fail("write failed");
}

EdgeList read_edge_list_tsv(std::istream& in) {
  EdgeList list;
  VertexId max_endpoint = 0;
  bool any_edge = false;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Optional "# vertices: N" header.
      std::istringstream header(line.substr(1));
      std::string key;
      header >> key;
      if (key == "vertices:") {
        VertexId declared = 0;
        if (header >> declared) {
          list.num_vertices = std::max(list.num_vertices, declared);
        }
      }
      continue;
    }
    std::istringstream fields(line);
    Edge e;
    if (!(fields >> e.src >> e.dst)) {
      io_fail("malformed line " + std::to_string(line_number) + ": '" + line +
              "'");
    }
    // The weight column may be *absent* (defaults to 1.0) but never
    // *unparseable*: "1 2 abc" is a malformed line, not weight 1.
    std::string weight_field;
    if (fields >> weight_field) {
      if (!parse_weight_token(weight_field, e.weight)) {
        io_fail("malformed weight '" + weight_field + "' on line " +
                std::to_string(line_number));
      }
    } else {
      e.weight = 1.0f;
    }
    if (!usable_weight(e.weight)) {
      io_fail("non-positive or non-finite weight on line " +
              std::to_string(line_number));
    }
    max_endpoint = std::max({max_endpoint, e.src, e.dst});
    any_edge = true;
    list.edges.push_back(e);
  }
  if (any_edge) {
    list.num_vertices = std::max(list.num_vertices, max_endpoint + 1);
  }
  return list;
}

void write_edge_list_tsv(const std::string& path, const EdgeList& list) {
  std::ofstream out(path);
  if (!out) io_fail("cannot open " + path + " for writing");
  write_edge_list_tsv(out, list);
}

EdgeList read_edge_list_tsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_fail("cannot open " + path);
  return read_edge_list_tsv(in);
}

}  // namespace g500::graph
