// The web-scale data plane (src/store/ and the Ckg storage it reads and
// writes): Ckg row-for-row against the global-sort structural oracle, the
// 32/16-bit id overflow policy, KUCSTOR1 container roundtrips across every
// load path, out-of-range edge ids behind valid checksums, a whole-file
// corruption sweep (every flipped byte either fails with file:line:cause or
// is provably harmless padding), and crash sweeps killing save/load at every
// single IO op.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/ckg.h"
#include "ppr/ppr.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "testing/oracle.h"
#include "util/fs.h"
#include "util/serial.h"
#include "util/status.h"

namespace kucnet {
namespace {

using testing::DescribeCkgMismatch;
using testing::OracleCkgEdges;

/// A small fixed configuration with real structure: Zipf-skewed popularity,
/// isolated entities, duplicate interactions likely.
WebScaleConfig TinyConfig() {
  WebScaleConfig config;
  config.name = "store-test";
  config.seed = 41;
  config.num_users = 12;
  config.num_items = 9;
  config.num_entities = 7;
  config.num_kg_relations = 3;
  config.interactions_per_user = 4;
  config.num_kg_triplets = 30;
  return config;
}

/// Builds the graph in memory from the exact inputs the generator streams.
Ckg BuildInMemory(const WebScaleConfig& config) {
  std::vector<std::array<int64_t, 2>> interactions;
  std::vector<std::array<int64_t, 3>> kg;
  MaterializeWebScaleInputs(config, &interactions, &kg);
  return Ckg::Build(config.num_users, config.num_items, config.num_kg_nodes(),
                    config.num_kg_relations, interactions, kg);
}

/// Full structural comparison; returns a description of the first
/// difference, or "" when identical.
std::string DescribeGraphDiff(const Ckg& a, const Ckg& b) {
  if (a.num_users() != b.num_users() || a.num_items() != b.num_items() ||
      a.num_kg_nodes() != b.num_kg_nodes() ||
      a.num_kg_relations() != b.num_kg_relations() ||
      a.num_edges() != b.num_edges()) {
    return "scalar sizes differ";
  }
  for (int64_t v = 0; v < a.num_nodes(); ++v) {
    if (a.OutDegree(v) != b.OutDegree(v)) return "degree differs";
    const auto a_rels = a.OutRelations(v);
    const auto a_dsts = a.OutNeighbors(v);
    const auto b_rels = b.OutRelations(v);
    const auto b_dsts = b.OutNeighbors(v);
    for (size_t k = 0; k < a_rels.size(); ++k) {
      if (a_rels[k] != b_rels[k] || a_dsts[k] != b_dsts[k]) {
        return "adjacency row differs";
      }
    }
  }
  return "";
}

// ---- Ckg against the structural oracle ---------------------------------------

TEST(CkgStoreTest, StreamedAndBuiltGraphsMatchStructuralOracle) {
  const WebScaleConfig config = TinyConfig();
  std::vector<std::array<int64_t, 2>> interactions;
  std::vector<std::array<int64_t, 3>> kg;
  MaterializeWebScaleInputs(config, &interactions, &kg);
  const std::vector<Edge> oracle =
      OracleCkgEdges(config.num_users, config.num_kg_relations, interactions,
                     kg);
  Ckg streamed;
  ASSERT_TRUE(TryGenerateWebScaleGraph(config, &streamed).ok());
  EXPECT_EQ(DescribeCkgMismatch(streamed, oracle), "");
  EXPECT_EQ(DescribeCkgMismatch(BuildInMemory(config), oracle), "");
  EXPECT_TRUE(streamed.ValidateTopology().ok());

  // ItemsOfUser reads the interact edges of the user's row.
  for (int64_t u = 0; u < config.num_users; ++u) {
    std::vector<int64_t> want;
    for (const Edge& e : oracle) {
      if (e.src == u && e.rel == Ckg::kInteractRelation) {
        want.push_back(streamed.ItemOfNode(e.dst));
      }
    }
    EXPECT_EQ(streamed.ItemsOfUser(u), want) << "user " << u;
  }
}

TEST(CkgStoreTest, PprForwardPushIsBitwiseIdenticalAfterContainerRoundTrip) {
  const WebScaleConfig config = TinyConfig();
  const Ckg built = BuildInMemory(config);
  InMemoryFileSystem fs;
  ASSERT_TRUE(GenerateWebScaleContainer(fs, "/store/ppr.kucstor", config).ok());
  Ckg loaded;
  ASSERT_TRUE(LoadCompactCkg(fs, "/store/ppr.kucstor", StoreLoadOptions(),
                             &loaded, nullptr)
                  .ok());
  for (int64_t source = 0; source < built.num_nodes(); ++source) {
    const auto a = PprForwardPush(built, source);
    const auto b = PprForwardPush(loaded, source);
    ASSERT_EQ(a.size(), b.size()) << "source " << source;
    for (const auto& [node, value] : a) {
      const auto it = b.find(node);
      ASSERT_NE(it, b.end()) << "source " << source << " node " << node;
      // Same push transcript over equal adjacency: exact equality, not
      // within-epsilon.
      EXPECT_EQ(it->second, value) << "source " << source << " node " << node;
    }
  }
}

TEST(CkgStoreTest, FootprintIsSixBytesPerEdgePlusFourPerNode) {
  Ckg graph;
  ASSERT_TRUE(TryGenerateWebScaleGraph(TinyConfig(), &graph).ok());
  EXPECT_EQ(graph.bytes_resident(),
            (graph.num_nodes() + 1) * 4 + graph.num_edges() * 6);
}

// ---- Overflow policy ---------------------------------------------------------

TEST(CkgStoreTest, RelationOverflowIsRecoverableStatus) {
  Ckg out;
  const Status st =
      Ckg::TryBuild(1, 1, 1, /*num_kg_relations=*/40'000, {}, {}, {},
                           &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overflow 16-bit"), std::string::npos)
      << st.message();
}

TEST(CkgStoreTest, NodeOverflowIsRecoverableStatusBeforeAllocation) {
  Ckg out;
  // 5e9 nodes would be a 20 GB row-pointer array; the overflow check must
  // fire before any allocation is attempted.
  const Status st = Ckg::TryBuild(5'000'000'000, 1, 1, 1, {}, {}, {},
                                         &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overflow 32-bit"), std::string::npos)
      << st.message();
}

TEST(CkgStoreTest, OutOfRangeEdgeIsRecoverableStatus) {
  Ckg out;
  const std::vector<std::array<int64_t, 2>> bad_inter = {{0, 99}};
  const Status st = Ckg::TryBuild(2, 3, 3, 1, bad_inter, {}, {}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("out of range"), std::string::npos)
      << st.message();
}

// Same edge *count* on both passes but different content: without pass-2
// re-validation this would index the row cursors out of range (or run a
// row's writes into its neighbor's) — silent arena corruption instead of a
// recoverable Status.
TEST(CkgStoreTest, ContentDivergentSecondPassIsARecoverableStatus) {
  // Case 1: pass 2 routes the edges to a different (valid) source whose
  // pass-1 row is empty, overflowing that row's cursor.
  Ckg out;
  int pass = 0;
  Status st = Ckg::TryAssemble(
      2, 1, 1, 1,
      [&pass](auto&& sink) {
        ++pass;
        const int64_t src = pass == 1 ? 0 : 2;
        sink(src, 0, 1);
        sink(src, 0, 1);
      },
      &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not deterministic"), std::string::npos)
      << st.message();

  // Case 2: pass 2 emits a source id far outside [0, n).
  pass = 0;
  st = Ckg::TryAssemble(
      2, 1, 1, 1,
      [&pass](auto&& sink) { sink(++pass == 1 ? 0 : 99, 0, 1); }, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not deterministic"), std::string::npos)
      << st.message();
}

TEST(CkgStoreTest, NonDeterministicEmitStreamIsRejected) {
  Ckg out;
  int pass = 0;
  const Status st = Ckg::TryAssemble(
      1, 1, 1, 1,
      [&pass](auto&& sink) {
        ++pass;
        sink(0, 0, 1);
        if (pass == 2) sink(1, 0, 0);  // extra edge only on pass 2
      },
      &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not deterministic"), std::string::npos)
      << st.message();
}

// ---- Container roundtrips ----------------------------------------------------

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TinyConfig();
    ASSERT_TRUE(TryGenerateWebScaleGraph(config_, &graph_).ok());
    ASSERT_TRUE(SaveCompactCkg(fs_, kPath, graph_).ok());
  }

  static constexpr const char* kPath = "/store/test.kucstor";
  WebScaleConfig config_;
  Ckg graph_;
  InMemoryFileSystem fs_;
};

TEST_F(ContainerTest, RoundTripsOnEveryLoadPath) {
  for (const bool use_mmap : {true, false}) {
    for (const bool verify : {true, false}) {
      StoreLoadOptions options;
      options.use_mmap = use_mmap;
      options.verify_checksums = verify;
      Ckg loaded;
      StoreLoadStats stats;
      ASSERT_TRUE(LoadCompactCkg(fs_, kPath, options, &loaded, &stats).ok())
          << "mmap=" << use_mmap << " verify=" << verify;
      EXPECT_EQ(DescribeGraphDiff(graph_, loaded), "")
          << "mmap=" << use_mmap << " verify=" << verify;
      EXPECT_TRUE(loaded.ValidateTopology().ok());
      // The in-memory filesystem emulates the mapping with a heap copy.
      EXPECT_FALSE(stats.mmap_backed);
      // Full reads always verify; mmap loads verify on request.
      EXPECT_EQ(stats.sections_verified, verify || !use_mmap);
    }
  }
}

TEST_F(ContainerTest, RealFilesystemLoadIsKernelMapped) {
  FileSystem& real = DefaultFileSystem();
  const std::string path = ::testing::TempDir() + "/store_mmap.kucstor";
  ASSERT_TRUE(SaveCompactCkg(real, path, graph_).ok());
  Ckg loaded;
  StoreLoadStats stats;
  ASSERT_TRUE(LoadCompactCkg(real, path, StoreLoadOptions(), &loaded, &stats)
                  .ok());
  EXPECT_TRUE(stats.mmap_backed);
  EXPECT_TRUE(loaded.mmap_backed());
  EXPECT_EQ(DescribeGraphDiff(graph_, loaded), "");
  ASSERT_TRUE(real.Remove(path).ok());
}

TEST_F(ContainerTest, MissingFileIsRecoverableStatus) {
  Ckg loaded;
  const Status st =
      LoadCompactCkg(fs_, "/store/nope.kucstor", StoreLoadOptions(), &loaded,
                     nullptr);
  ASSERT_FALSE(st.ok());
}

// Every single-byte flip anywhere in the container must either fail with a
// recoverable Status carrying "container.cc:<line>" and a cause, or — for
// the few unchecksummed alignment-padding bytes — load a graph structurally
// identical to the original. Never a crash, never silent corruption.
TEST_F(ContainerTest, EveryFlippedByteFailsWithFileLineCauseOrIsPadding) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  StoreLoadOptions options;
  options.verify_checksums = true;
  int64_t rejected = 0;
  int64_t padding = 0;
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    InMemoryFileSystem corrupt_fs;
    ASSERT_TRUE(corrupt_fs.WriteFile(kPath, corrupt).ok());
    Ckg loaded;
    const Status st =
        LoadCompactCkg(corrupt_fs, kPath, options, &loaded, nullptr);
    if (st.ok()) {
      EXPECT_EQ(DescribeGraphDiff(graph_, loaded), "")
          << "flip at byte " << i << " loaded a different graph";
      ++padding;
      continue;
    }
    EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
        << "flip at byte " << i << " lacks file:line: " << st.message();
    ++rejected;
  }
  // The checksums must cover essentially the whole file: only inter-section
  // alignment padding (at most 7 bytes per section boundary) may slip.
  EXPECT_GT(rejected, static_cast<int64_t>(image.size()) - 5 * 8);
  EXPECT_LT(padding, 5 * 8);
}

// A crafted section length near UINT64_MAX defeats naive `length + 8`
// bounds arithmetic by wrapping to a small value, and the table checksum is
// trivially recomputable (FNV, no secret), so the file passes every
// integrity check on the way in. The bounds check must reject it with
// subtraction-only comparisons before any section/footer byte is touched.
TEST_F(ContainerTest, CraftedHugeSectionLengthWithValidChecksumsIsRejected) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  constexpr uint64_t kTableEntryBytes = 24;
  constexpr uint64_t kTableSections = 4;
  constexpr uint64_t kTableBytes = kTableSections * kTableEntryBytes;
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, image.data() + 24, 8);
  for (uint64_t s = 0; s < kTableSections; ++s) {
    for (const uint64_t crafted :
         {UINT64_MAX, UINT64_MAX - 7, uint64_t{1} << 63}) {
      std::string corrupt = image;
      std::memcpy(
          corrupt.data() + table_offset + s * kTableEntryBytes + 16,
          &crafted, 8);
      const uint64_t footer = Fnv1a64(corrupt.data() + table_offset,
                                      kTableBytes);
      std::memcpy(corrupt.data() + table_offset + kTableBytes, &footer, 8);
      InMemoryFileSystem corrupt_fs;
      ASSERT_TRUE(corrupt_fs.WriteFile(kPath, corrupt).ok());
      for (const bool use_mmap : {true, false}) {
        StoreLoadOptions options;
        options.use_mmap = use_mmap;
        Ckg loaded;
        const Status st =
            LoadCompactCkg(corrupt_fs, kPath, options, &loaded, nullptr);
        ASSERT_FALSE(st.ok()) << "section " << s << " length " << crafted
                              << " mmap=" << use_mmap;
        EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
            << st.message();
      }
    }
  }
}

/// Overwrites element `index` of section `section` (2 = RELS as u16,
/// 3 = DSTS as u32) with `value` and recomputes that section's FNV footer,
/// so the file passes every checksum.
std::string PatchEdgeSection(std::string image, uint64_t section,
                             uint64_t index, uint32_t value) {
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, image.data() + 24, 8);
  uint64_t offset = 0;
  uint64_t length = 0;
  std::memcpy(&offset, image.data() + table_offset + section * 24 + 8, 8);
  std::memcpy(&length, image.data() + table_offset + section * 24 + 16, 8);
  if (section == 2) {
    const auto rel = static_cast<uint16_t>(value);
    std::memcpy(image.data() + offset + index * 2, &rel, 2);
  } else {
    std::memcpy(image.data() + offset + index * 4, &value, 4);
  }
  const uint64_t footer = Fnv1a64(image.data() + offset, length);
  std::memcpy(image.data() + offset + length, &footer, 8);
  return image;
}

// Checksums only prove the bytes are what some writer produced. A file
// crafted with out-of-range edge ids and recomputed footers must still be
// rejected on every path that reads the edge sections up front; the lazy
// mmap path stays trusted-only, and ValidateTopology catches it there.
TEST_F(ContainerTest, OutOfRangeEdgeIdsBehindValidChecksumsAreRejected) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  const auto n = static_cast<uint32_t>(graph_.num_nodes());
  const auto num_rels = static_cast<uint32_t>(graph_.num_relations());
  const struct {
    uint64_t section;
    uint32_t value;
  } crafted[] = {{3, 1'000'000}, {3, n}, {2, num_rels}, {2, 0xffff}};
  for (const auto& c : crafted) {
    InMemoryFileSystem bad_fs;
    ASSERT_TRUE(
        bad_fs.WriteFile(kPath, PatchEdgeSection(image, c.section, 0, c.value))
            .ok());
    for (const bool use_mmap : {true, false}) {
      StoreLoadOptions options;
      options.use_mmap = use_mmap;
      options.verify_checksums = true;
      Ckg loaded;
      const Status st =
          LoadCompactCkg(bad_fs, kPath, options, &loaded, nullptr);
      ASSERT_FALSE(st.ok()) << "section " << c.section << " value " << c.value
                            << " mmap=" << use_mmap;
      EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
          << st.message();
      EXPECT_NE(st.message().find("out of range"), std::string::npos)
          << st.message();
    }
    StoreLoadOptions lazy;
    lazy.verify_checksums = false;
    Ckg loaded;
    ASSERT_TRUE(LoadCompactCkg(bad_fs, kPath, lazy, &loaded, nullptr).ok());
    EXPECT_FALSE(loaded.ValidateTopology().ok());
  }
}

TEST_F(ContainerTest, TruncationAtEveryLengthIsRejectedWithFileLine) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  for (size_t len = 0; len < image.size(); len += 7) {
    InMemoryFileSystem short_fs;
    ASSERT_TRUE(short_fs.WriteFile(kPath, image.substr(0, len)).ok());
    Ckg loaded;
    const Status st =
        LoadCompactCkg(short_fs, kPath, StoreLoadOptions(), &loaded, nullptr);
    ASSERT_FALSE(st.ok()) << "truncated to " << len << " bytes";
    EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
        << st.message();
  }
}

// ---- Crash sweeps ------------------------------------------------------------

TEST_F(ContainerTest, SaveKilledAtEveryOpNeverCorruptsThePreviousContainer) {
  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    InMemoryFileSystem base;
    FaultInjectingFileSystem faulty(&base);
    // A valid older container is already in place.
    ASSERT_TRUE(SaveCompactCkg(base, kPath, graph_).ok());

    // Learn the op count of a clean save, then kill at every op.
    WebScaleConfig bigger = config_;
    bigger.num_kg_triplets += 8;
    Ckg next;
    ASSERT_TRUE(TryGenerateWebScaleGraph(bigger, &next).ok());
    faulty.ResetOpCount();
    ASSERT_TRUE(SaveCompactCkg(faulty, kPath, next).ok());
    const int64_t ops = faulty.op_count();
    ASSERT_GT(ops, 0);

    for (int64_t kill_at = 1; kill_at <= ops; ++kill_at) {
      ASSERT_TRUE(SaveCompactCkg(base, kPath, graph_).ok());  // reset old
      faulty.FailFrom(kill_at, mode);
      const Status st = SaveCompactCkg(faulty, kPath, next);
      faulty.Disarm();
      ASSERT_FALSE(st.ok()) << "kill_at=" << kill_at;
      // Atomic replacement: the old container still loads, bit for bit.
      Ckg loaded;
      ASSERT_TRUE(
          LoadCompactCkg(base, kPath, StoreLoadOptions(), &loaded, nullptr)
              .ok())
          << "kill_at=" << kill_at;
      EXPECT_EQ(DescribeGraphDiff(graph_, loaded), "")
          << "kill_at=" << kill_at;
    }
  }
}

TEST_F(ContainerTest, LoadKilledAtEveryOpFailsCleanlyOnEveryPath) {
  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    for (const bool use_mmap : {true, false}) {
      InMemoryFileSystem base;
      FaultInjectingFileSystem faulty(&base);
      ASSERT_TRUE(SaveCompactCkg(base, kPath, graph_).ok());
      StoreLoadOptions options;
      options.use_mmap = use_mmap;
      faulty.ResetOpCount();
      Ckg warm;
      ASSERT_TRUE(
          LoadCompactCkg(faulty, kPath, options, &warm, nullptr).ok());
      const int64_t ops = faulty.op_count();
      ASSERT_GT(ops, 0);
      for (int64_t kill_at = 1; kill_at <= ops; ++kill_at) {
        faulty.FailFrom(kill_at, mode);
        Ckg loaded;
        const Status st =
            LoadCompactCkg(faulty, kPath, options, &loaded, nullptr);
        faulty.Disarm();
        // A torn map/read may surface as an IO error or as a checksum /
        // length validation failure — either way a recoverable Status.
        ASSERT_FALSE(st.ok()) << "mode=" << static_cast<int>(mode)
                              << " mmap=" << use_mmap
                              << " kill_at=" << kill_at;
      }
    }
  }
}

}  // namespace
}  // namespace kucnet
