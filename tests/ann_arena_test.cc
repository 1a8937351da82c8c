// Persistence of the proximity graph as the v4 arena's optional trailing
// ann_graph section, and the format's forward-compatibility contract: a
// reader must validate (and CRC-cover) trailing sections it does not
// understand but SKIP them, so an artifact written by a newer build still
// opens here minus that section's feature. The regression test adds a
// section with a future id, and one with the retired graph_sizes id, to a
// real artifact and re-opens it.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>

#include "ann/navigator.h"
#include "ann/proximity_graph.h"
#include "arena_test_util.h"
#include "common/crc32.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using testutil::FixMetaCrc;
using testutil::PatchAt;
using testutil::SectionEntryAt;

class AnnArenaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.04);
    profile.seed = 77;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 8;
    options.gbd_prior.num_sample_pairs = 500;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    AnnBuildParams params;
    params.graph_degree = 8;
    params.build_window = 16;
    Result<ProximityGraph> graph =
        BuildProximityGraph(FingerprintStore::FromIndex(*index_), params);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = new ProximityGraph(std::move(*graph));

    arena_path_ = new std::string(::testing::TempDir() + "/ann_arena.v4");
    ASSERT_TRUE(WriteArenaFile(*index_, *arena_path_, graph_).ok());
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete index_;
    delete dataset_;
    delete arena_path_;
    graph_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
    arena_path_ = nullptr;
  }

  // Index of the ann_graph entry in the section table (0-based).
  static constexpr size_t kAnnEntry = kArenaSectionCount;

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static ProximityGraph* graph_;
  static std::string* arena_path_;
};

GeneratedDataset* AnnArenaTest::dataset_ = nullptr;
GbdaIndex* AnnArenaTest::index_ = nullptr;
ProximityGraph* AnnArenaTest::graph_ = nullptr;
std::string* AnnArenaTest::arena_path_ = nullptr;

// ---------------------------------------------------------------------------
// Writing and reading the seventh section
// ---------------------------------------------------------------------------

TEST_F(AnnArenaTest, ArenaCarriesTheAnnSection) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Canonical six + ann_graph + fp_keys.
  ASSERT_EQ(info->sections.size(), kArenaSectionCount + 2);
  const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph);
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->offset % kArenaSectionAlign, 0u);
  EXPECT_GT(sec->length, 0u);
  // Every section's CRC — the trailing one included — verifies.
  EXPECT_TRUE(VerifyArenaChecksums(data, *info, *arena_path_).ok());
}

TEST_F(AnnArenaTest, WithoutAGraphTheArenaStaysMinimal) {
  // A null ann_graph yields no ann section; fp_keys is unconditional.
  const std::string path = ::testing::TempDir() + "/ann_arena_plain.v4";
  ASSERT_TRUE(WriteArenaFile(*index_, path).ok());
  const std::string data = ReadFile(path);
  Result<ArenaInfo> info = ParseArenaHeader(data, path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->FindSection(kSecAnnGraph), nullptr);
  EXPECT_NE(info->FindSection(kSecFpKeys), nullptr);
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->has_ann_graph());
}

TEST_F(AnnArenaTest, ViewExposesTheMappedGraph) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_TRUE(view->has_ann_graph());
  const ProximityGraphRef& mapped = view->ann_graph();
  ASSERT_EQ(mapped.num_nodes, graph_->num_nodes());
  EXPECT_EQ(mapped.num_edges, graph_->neighbors.size());
  EXPECT_EQ(mapped.entry_point, graph_->entry_point);
  EXPECT_EQ(mapped.degree_bound, graph_->degree_bound);
  for (size_t i = 0; i <= graph_->num_nodes(); ++i) {
    ASSERT_EQ(mapped.offsets[i], graph_->offsets[i]) << "offset " << i;
  }
  for (size_t e = 0; e < graph_->neighbors.size(); ++e) {
    ASSERT_EQ(mapped.neighbors[e], graph_->neighbors[e]) << "edge " << e;
  }
  // The mapped graph adopts into a navigation context (the serving path for
  // persisted graphs).
  Result<AnnContext> ctx =
      AnnContext::Adopt(FingerprintStore::FromIndex(*view), mapped);
  EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
}

TEST_F(AnnArenaTest, RepersistWithoutAGraphDropsIt) {
  // Re-persisting a mapped view without handing BuildArena a graph omits
  // the optional section (the view's own mapped graph is not copied).
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->has_ann_graph());
  Result<std::string> rebuilt = BuildArena(*view);
  ASSERT_TRUE(rebuilt.ok());
  Result<ArenaInfo> info = ParseArenaHeader(*rebuilt, "rebuilt");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->FindSection(kSecAnnGraph), nullptr);
}

// ---------------------------------------------------------------------------
// Forward compatibility: unknown trailing sections are skipped
// ---------------------------------------------------------------------------

TEST_F(AnnArenaTest, UnknownTrailingSectionIsValidatedButSkipped) {
  // Two sections this reader does not know, each added to a real artifact:
  // a future id (43) after the mandatory fp_keys, as a newer build would
  // write it, and the retired graph_sizes (8) before fp_keys, as older
  // builds wrote it.
  const std::string current = ReadFile(*arena_path_);
  const std::pair<uint32_t, std::string> unknown[] = {
      {43, testutil::InsertSection(current, 43, std::string(100, 'x'))},
      {testutil::kRetiredGraphSizes, testutil::WithRetiredGraphSizes(current)},
  };
  GbdaSearch owned_search(&dataset_->db, index_);
  SearchOptions options;
  options.tau_hat = 5;
  size_t threshold_matches = 0;
  for (const auto& [id, artifact] : unknown) {
    SCOPED_TRACE("section " + std::to_string(id));
    const std::string path = ::testing::TempDir() + "/ann_arena_unknown.v4";
    WriteFile(path, artifact);

    Result<ArenaInfo> info = ParseArenaHeader(artifact, path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_NE(info->FindSection(id), nullptr);
    // Checksum verification still covers the unknown payload.
    EXPECT_TRUE(VerifyArenaChecksums(artifact, *info, path).ok());
    std::string corrupt = artifact;
    corrupt[static_cast<size_t>(info->FindSection(id)->offset)] ^= 0x01;
    EXPECT_EQ(VerifyArenaChecksums(corrupt, *info, path).code(),
              StatusCode::kDataLoss);

    EXPECT_TRUE(GbdaIndexView::Open(path).ok());
    GbdaIndexView::OpenOptions verify;
    verify.verify_checksums = true;
    Result<GbdaIndexView> view = GbdaIndexView::Open(path, verify);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE(view->has_ann_graph());

    // Minus the skipped section, the artifact answers as the owned index
    // does, threshold and top-k, counters included.
    GbdaSearch mapped_search(&dataset_->db, &*view);
    for (const Graph& query : dataset_->queries) {
      Result<SearchResult> want = owned_search.Query(query, options);
      Result<SearchResult> got = mapped_search.Query(query, options);
      Result<SearchResult> want_top = owned_search.QueryTopK(query, 5, options);
      Result<SearchResult> got_top = mapped_search.QueryTopK(query, 5, options);
      ASSERT_TRUE(want.ok() && got.ok() && want_top.ok() && got_top.ok());
      threshold_matches += want->matches.size();
      for (const auto& [a, b] : {std::make_pair(&*want, &*got),
                                 std::make_pair(&*want_top, &*got_top)}) {
        ASSERT_EQ(a->matches.size(), b->matches.size());
        for (size_t i = 0; i < a->matches.size(); ++i) {
          EXPECT_EQ(a->matches[i].graph_id, b->matches[i].graph_id);
          EXPECT_EQ(a->matches[i].phi_score, b->matches[i].phi_score);
          EXPECT_EQ(a->matches[i].gbd, b->matches[i].gbd);
        }
        EXPECT_EQ(a->candidates_evaluated, b->candidates_evaluated);
        EXPECT_EQ(a->pruned_by_bound, b->pruned_by_bound);
      }
    }
  }
  EXPECT_GT(threshold_matches, 0u);  // the threshold leg compares answers
}

TEST_F(AnnArenaTest, TrailingSectionIdsMustStrictlyIncrease) {
  // A trailing id at or below the canonical six (or duplicated) is a
  // structural error, not a skippable unknown.
  for (uint32_t hostile : {uint32_t{0}, uint32_t{3}, uint32_t{6}}) {
    std::string corrupt = ReadFile(*arena_path_);
    PatchAt<uint32_t>(&corrupt, SectionEntryAt(kAnnEntry), hostile);
    FixMetaCrc(&corrupt);
    Result<ArenaInfo> info = ParseArenaHeader(corrupt, "corrupt");
    ASSERT_FALSE(info.ok()) << "id " << hostile;
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(AnnArenaTest, MetaCrcCoversTheTrailingTableEntry) {
  // The same id patch without the CRC fix must trip the always-on header
  // checksum — a flipped byte in a trailing entry is never silent.
  std::string corrupt = ReadFile(*arena_path_);
  PatchAt<uint32_t>(&corrupt, SectionEntryAt(kAnnEntry), 42);
  Result<ArenaInfo> info = ParseArenaHeader(corrupt, "corrupt");
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Known id, unreadable payload: degrade on the serving path
// ---------------------------------------------------------------------------

TEST_F(AnnArenaTest, FutureAnnFormatVersionDegradesToNoGraph) {
  // An ann_graph section whose payload declares a future format revision
  // opens WITHOUT the graph (kNotSupported degrade) instead of failing —
  // the artifact's exhaustive serving stays available.
  std::string future = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(future, *arena_path_);
  ASSERT_TRUE(info.ok());
  const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph);
  ASSERT_NE(sec, nullptr);
  const size_t payload = static_cast<size_t>(sec->offset);
  PatchAt<uint32_t>(&future, payload, kAnnGraphFormatVersion + 1);
  // Keep the artifact internally consistent: re-CRC the edited section.
  PatchAt<uint32_t>(&future, SectionEntryAt(kAnnEntry) + 24,
           Crc32(future.data() + payload, static_cast<size_t>(sec->length)));
  FixMetaCrc(&future);
  const std::string path = ::testing::TempDir() + "/ann_arena_futurefmt.v4";
  WriteFile(path, future);

  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  Result<GbdaIndexView> view = GbdaIndexView::Open(path, verify);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->has_ann_graph());
}

TEST_F(AnnArenaTest, CorruptAnnPayloadFailsTheOpen) {
  // Same known id, same format version, but structurally hostile content
  // (entry point beyond the corpus): that is corruption, not a future
  // format — the open must fail rather than navigate out of bounds.
  std::string corrupt = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(corrupt, *arena_path_);
  ASSERT_TRUE(info.ok());
  const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph);
  ASSERT_NE(sec, nullptr);
  const size_t payload = static_cast<size_t>(sec->offset);
  PatchAt<uint32_t>(&corrupt, payload + 8, 1u << 30);  // entry_point
  PatchAt<uint32_t>(&corrupt, SectionEntryAt(kAnnEntry) + 24,
           Crc32(corrupt.data() + payload, static_cast<size_t>(sec->length)));
  FixMetaCrc(&corrupt);
  const std::string path = ::testing::TempDir() + "/ann_arena_corrupt.v4";
  WriteFile(path, corrupt);
  EXPECT_FALSE(GbdaIndexView::Open(path).ok());
}

}  // namespace
}  // namespace gbda
