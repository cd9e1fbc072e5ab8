// Tests for edge-list I/O (binary and TSV) and the v2 CSR shard format.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "graph/binary_format.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/kronecker.hpp"
#include "graph/shard.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// A syntactically-valid binary stream with an arbitrary header and raw
/// edge payload — the corruption tests craft hostile inputs with it.
std::string make_binary(std::uint32_t version, std::uint64_t num_vertices,
                        std::uint64_t claimed_edges,
                        const std::vector<binfmt::BinaryEdge>& payload) {
  binfmt::BinaryHeader header{};
  std::memcpy(header.magic, binfmt::kMagic, sizeof(binfmt::kMagic));
  header.version = version;
  header.num_vertices = num_vertices;
  header.num_edges = claimed_edges;
  std::string bytes(reinterpret_cast<const char*>(&header), sizeof(header));
  bytes.append(reinterpret_cast<const char*>(payload.data()),
               payload.size() * sizeof(binfmt::BinaryEdge));
  return bytes;
}

TEST(BinaryIo, RoundTripsExactly) {
  KroneckerParams params;
  params.scale = 8;
  const EdgeList original = kronecker_graph(params);
  std::stringstream buffer;
  write_edge_list_binary(buffer, original);
  const EdgeList loaded = read_edge_list_binary(buffer);
  EXPECT_EQ(loaded.num_vertices, original.num_vertices);
  ASSERT_EQ(loaded.edges.size(), original.edges.size());
  for (std::size_t i = 0; i < original.edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i], original.edges[i]) << "edge " << i;
  }
}

TEST(BinaryIo, EmptyGraphRoundTrips) {
  EdgeList empty;
  empty.num_vertices = 42;
  std::stringstream buffer;
  write_edge_list_binary(buffer, empty);
  const EdgeList loaded = read_edge_list_binary(buffer);
  EXPECT_EQ(loaded.num_vertices, 42u);
  EXPECT_TRUE(loaded.edges.empty());
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "definitely not a graph file, but long enough to read a header";
  EXPECT_THROW((void)read_edge_list_binary(buffer), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncatedPayload) {
  const EdgeList g = path_graph(10);
  std::stringstream buffer;
  write_edge_list_binary(buffer, g);
  const std::string whole = buffer.str();
  std::stringstream cut(whole.substr(0, whole.size() - 10));
  EXPECT_THROW((void)read_edge_list_binary(cut), std::runtime_error);
}

TEST(BinaryIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/g500_io_test.bin";
  const EdgeList g = grid_graph(4, 5, 9);
  write_edge_list_binary(path, g);
  const EdgeList loaded = read_edge_list_binary(path);
  EXPECT_EQ(loaded.edges.size(), g.edges.size());
  std::remove(path.c_str());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW((void)read_edge_list_binary("/nonexistent/g500.bin"),
               std::runtime_error);
}

TEST(TsvIo, RoundTripsStructure) {
  const EdgeList g = star_graph(12, 4);
  std::stringstream buffer;
  write_edge_list_tsv(buffer, g);
  const EdgeList loaded = read_edge_list_tsv(buffer);
  EXPECT_EQ(loaded.num_vertices, g.num_vertices);
  ASSERT_EQ(loaded.edges.size(), g.edges.size());
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i].src, g.edges[i].src);
    EXPECT_EQ(loaded.edges[i].dst, g.edges[i].dst);
    EXPECT_NEAR(loaded.edges[i].weight, g.edges[i].weight, 1e-6);
  }
}

TEST(TsvIo, ParsesCommentsAndDefaultWeight) {
  std::stringstream in(
      "# a comment\n"
      "0\t1\t0.5\n"
      "\n"
      "1 2\n"        // missing weight -> 1.0, space separated is fine
      "# trailing comment\n");
  const EdgeList g = read_edge_list_tsv(in);
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_FLOAT_EQ(g.edges[0].weight, 0.5f);
  EXPECT_FLOAT_EQ(g.edges[1].weight, 1.0f);
  EXPECT_EQ(g.num_vertices, 3u);
}

TEST(TsvIo, VerticesHeaderRaisesCount) {
  std::stringstream in(
      "# vertices: 100\n"
      "0\t1\t0.5\n");
  EXPECT_EQ(read_edge_list_tsv(in).num_vertices, 100u);
}

TEST(TsvIo, MalformedLineThrows) {
  std::stringstream in("0\tnot_a_number\n");
  EXPECT_THROW((void)read_edge_list_tsv(in), std::runtime_error);
}

TEST(TsvIo, RejectsNonPositiveWeights) {
  std::stringstream zero("0\t1\t0.0\n");
  EXPECT_THROW((void)read_edge_list_tsv(zero), std::runtime_error);
  std::stringstream negative("0\t1\t-2\n");
  EXPECT_THROW((void)read_edge_list_tsv(negative), std::runtime_error);
}

TEST(TsvIo, EmptyInputGivesEmptyGraph) {
  std::stringstream in("");
  const EdgeList g = read_edge_list_tsv(in);
  EXPECT_EQ(g.num_vertices, 0u);
  EXPECT_TRUE(g.edges.empty());
}

// --- hardened-reader regression tests ---

TEST(BinaryIo, RejectsReserveBombHeader) {
  // A header claiming 2^60 edges over a 24-byte payload used to make the
  // reader reserve ~26 exabytes before noticing the truncation.
  std::stringstream in(make_binary(binfmt::kEdgeListVersion, 100,
                                   std::uint64_t{1} << 60,
                                   {{0, 1, 0.5f, 0.0f}}));
  try {
    (void)read_edge_list_binary(in);
    FAIL() << "reserve-bomb header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryIo, RejectsOutOfRangeEndpoint) {
  // dst 9 with num_vertices 4: must fail fast naming the record, not hand
  // the builder an endpoint it would crash on later.
  std::stringstream in(make_binary(binfmt::kEdgeListVersion, 4, 2,
                                   {{0, 1, 0.5f, 0.0f}, {2, 9, 0.5f, 0.0f}}));
  try {
    (void)read_edge_list_binary(in);
    FAIL() << "out-of-range endpoint was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge 1"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

TEST(BinaryIo, RejectsNonPositiveOrNonFiniteWeights) {
  // The text loader's weight rule: a NaN would also reach the builder's
  // sorts, which cannot order it.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(), 0.0f,
                          -1.0f}) {
    std::stringstream in(make_binary(binfmt::kEdgeListVersion, 4, 2,
                                     {{0, 1, 0.5f, 0.0f}, {2, 3, bad, 0.0f}}));
    try {
      (void)read_edge_list_binary(in);
      FAIL() << "weight " << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("edge 1"), std::string::npos) << what;
      EXPECT_NE(what.find("weight"), std::string::npos) << what;
    }
  }
}

TEST(BinaryIo, RejectsShardVersionAsEdgeList) {
  std::stringstream in(
      make_binary(binfmt::kShardVersion, 4, 0, {}));
  EXPECT_THROW((void)read_edge_list_binary(in), std::runtime_error);
}

TEST(TsvIo, RejectsUnparseableWeightField) {
  // A present-but-garbage third field must be an error, not weight 1.0 —
  // only an *absent* field defaults.
  std::stringstream garbage("1\t2\tabc\n");
  EXPECT_THROW((void)read_edge_list_tsv(garbage), std::runtime_error);
  std::stringstream trailing("1\t2\t0.5junk\n");
  EXPECT_THROW((void)read_edge_list_tsv(trailing), std::runtime_error);
  std::stringstream overflow("1\t2\t1e999\n");
  EXPECT_THROW((void)read_edge_list_tsv(overflow), std::runtime_error);
}

// --- v2 CSR shard format ---

TEST(ShardIo, RoundTripsThroughShardFile) {
  KroneckerParams params;
  params.scale = 6;
  const std::string dir = ::testing::TempDir() + "/g500_shard_rt";
  std::filesystem::create_directories(dir);
  const int ranks = 2;
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    write_shard(shard_path(dir, comm.rank(), ranks), g, comm.rank());
    const ShardedCsr shard =
        ShardedCsr::map(shard_path(dir, comm.rank(), ranks));
    EXPECT_EQ(shard.rank(), comm.rank());
    EXPECT_EQ(shard.num_ranks(), ranks);
    EXPECT_EQ(shard.num_vertices(), g.num_vertices);
    EXPECT_EQ(shard.num_local(), g.csr.num_local());
    EXPECT_EQ(shard.num_input_edges(), g.num_input_edges);
    ASSERT_TRUE(shard.has_pull());
    const auto eq = [](auto a, auto b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(),
                         a.size_bytes()) == 0;
    };
    EXPECT_TRUE(eq(shard.csr().offsets(), g.csr.offsets()));
    EXPECT_TRUE(eq(shard.csr().adjacency(), g.csr.adjacency()));
    EXPECT_TRUE(eq(shard.csr().weights(), g.csr.weights()));
    EXPECT_TRUE(eq(shard.pull().sources(), g.pull.sources()));
    EXPECT_TRUE(eq(shard.pull().offsets(), g.pull.offsets()));
    EXPECT_TRUE(eq(shard.pull().destinations(), g.pull.destinations()));
    EXPECT_TRUE(eq(shard.pull().weights(), g.pull.weights()));
    EXPECT_FALSE(shard.csr().owns_storage());
    EXPECT_EQ(shard.csr().resident_bytes(), 0u);
  });
  std::filesystem::remove_all(dir);
}

TEST(ShardIo, MapRejectsCorruption) {
  KroneckerParams params;
  params.scale = 5;
  const std::string dir = ::testing::TempDir() + "/g500_shard_corrupt";
  std::filesystem::create_directories(dir);
  const std::string path = shard_path(dir, 0, 1);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    write_shard(path, build_kronecker(comm, params), 0);
  });

  // Pristine file maps fine.
  EXPECT_NO_THROW((void)ShardedCsr::map(path));

  // A flipped header byte fails the checksum.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  {
    std::string flipped = bytes;
    flipped[sizeof(binfmt::BinaryHeader) + 8] ^= 0x40;
    std::ofstream out(path, std::ios::binary);
    out << flipped;
  }
  EXPECT_THROW((void)ShardedCsr::map(path), std::runtime_error);

  // A truncated file fails the size check.
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes.substr(0, bytes.size() - 16);
  }
  EXPECT_THROW((void)ShardedCsr::map(path), std::runtime_error);

  // An edge-list (v1) file is not a shard.
  {
    std::ofstream out(path, std::ios::binary);
    out << make_binary(binfmt::kEdgeListVersion, 4, 0, {});
  }
  EXPECT_THROW((void)ShardedCsr::map(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
