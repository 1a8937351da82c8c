// Persistence of the proximity graph as the v4 arena's optional trailing
// ann_graph section, and the format's forward-compatibility contract: a
// reader must validate (and CRC-cover) trailing sections it does not
// understand but SKIP them, so an artifact written by a newer build still
// opens here minus that section's feature. The regression test appends a
// section with a future id to a real artifact and re-opens it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ann/navigator.h"
#include "ann/proximity_graph.h"
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

void PatchU32(std::string* data, size_t offset, uint32_t value) {
  std::memcpy(&(*data)[offset], &value, sizeof(value));
}

// Recomputes the header CRC after a deliberate header edit, so the tests
// below exercise the section-table validation rather than tripping the
// always-on meta checksum. Mirrors the writer: the CRC at preamble offset
// 24 covers [kArenaPreambleBytes, ArenaHeaderBytes(section_count)).
void FixMetaCrc(std::string* data) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, data->data() + 12, sizeof(section_count));
  const size_t header_bytes = ArenaHeaderBytes(section_count);
  const uint32_t crc = Crc32(data->data() + kArenaPreambleBytes,
                             header_bytes - kArenaPreambleBytes);
  PatchU32(data, 24, crc);
}

// Byte offset of trailing table entry `s` (0-based) field `field_offset`.
size_t SectionEntryOffset(size_t s, size_t field_offset) {
  return kArenaPreambleBytes + kArenaMetaScalarBytes +
         s * kArenaSectionEntryBytes + field_offset;
}

uint64_t AlignSection(uint64_t offset) {
  return (offset + kArenaSectionAlign - 1) / kArenaSectionAlign *
         kArenaSectionAlign;
}

// Appends a trailing section `id` carrying `payload`, as a newer writer
// would: the table gains an entry (every payload moves down when the
// header outgrows its alignment pad), the payload lands 64-byte aligned at
// the end, and the count, file_bytes and meta CRC follow.
std::string AppendSection(const std::string& data, uint32_t id,
                          const std::string& payload) {
  uint32_t count = 0;
  std::memcpy(&count, data.data() + 12, sizeof(count));
  const uint64_t old_start = AlignSection(ArenaHeaderBytes(count));
  const uint64_t shift = AlignSection(ArenaHeaderBytes(count + 1)) - old_start;
  std::string out = data.substr(0, ArenaHeaderBytes(count));
  for (size_t s = 0; s < count; ++s) {
    uint64_t offset = 0;
    std::memcpy(&offset, out.data() + SectionEntryOffset(s, 8), sizeof(offset));
    offset += shift;
    std::memcpy(&out[SectionEntryOffset(s, 8)], &offset, sizeof(offset));
  }
  std::string entry(kArenaSectionEntryBytes, '\0');
  const uint64_t payload_offset = data.size() + shift;
  const uint64_t payload_length = payload.size();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::memcpy(&entry[0], &id, sizeof(id));
  std::memcpy(&entry[8], &payload_offset, sizeof(payload_offset));
  std::memcpy(&entry[16], &payload_length, sizeof(payload_length));
  std::memcpy(&entry[24], &crc, sizeof(crc));
  out += entry;
  out.resize(static_cast<size_t>(old_start + shift), '\0');
  out += data.substr(static_cast<size_t>(old_start));
  out += payload;
  out.resize(static_cast<size_t>(AlignSection(out.size())), '\0');
  PatchU32(&out, 12, count + 1);
  const uint64_t file_bytes = out.size();
  std::memcpy(&out[16], &file_bytes, sizeof(file_bytes));
  FixMetaCrc(&out);
  return out;
}

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
  // Canonical six + ann_graph + graph_sizes and fp_keys.
  ASSERT_EQ(info->sections.size(), kArenaSectionCount + 3);
  const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph);
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->offset % kArenaSectionAlign, 0u);
  EXPECT_GT(sec->length, 0u);
  // Every section's CRC — the trailing one included — verifies.
  EXPECT_TRUE(VerifyArenaChecksums(data, *info, *arena_path_).ok());
}

TEST_F(AnnArenaTest, WithoutAGraphTheArenaStaysMinimal) {
  // A null ann_graph yields no ann section; the two columns are
  // unconditional.
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
  // Simulate an artifact from a future build: append a section with an id
  // this reader does not know (43) after the mandatory columns.
  const std::string future =
      AppendSection(ReadFile(*arena_path_), 43, std::string(100, 'x'));
  const std::string path = ::testing::TempDir() + "/ann_arena_future.v4";
  WriteFile(path, future);

  Result<ArenaInfo> info = ParseArenaHeader(future, path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_NE(info->FindSection(43), nullptr);
  // Checksum verification still covers the unknown payload.
  EXPECT_TRUE(VerifyArenaChecksums(future, *info, path).ok());
  std::string corrupt = future;
  corrupt[static_cast<size_t>(info->FindSection(43)->offset)] ^= 0x01;
  EXPECT_EQ(VerifyArenaChecksums(corrupt, *info, path).code(),
            StatusCode::kDataLoss);

  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  Result<GbdaIndexView> view = GbdaIndexView::Open(path, verify);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->has_ann_graph());

  // Minus the skipped section, the artifact serves bit-identically.
  Result<GbdaIndexView> reference = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(reference.ok());
  GbdaSearch future_search(&dataset_->db, &*view);
  GbdaSearch reference_search(&dataset_->db, &*reference);
  SearchOptions options;
  options.tau_hat = 5;
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 3);
  for (size_t q = 0; q < num_queries; ++q) {
    Result<SearchResult> a =
        future_search.QueryTopK(dataset_->queries[q], 5, options);
    Result<SearchResult> b =
        reference_search.QueryTopK(dataset_->queries[q], 5, options);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->matches.size(), b->matches.size()) << "query " << q;
    for (size_t i = 0; i < a->matches.size(); ++i) {
      EXPECT_EQ(a->matches[i].graph_id, b->matches[i].graph_id);
      EXPECT_EQ(a->matches[i].phi_score, b->matches[i].phi_score);
      EXPECT_EQ(a->matches[i].gbd, b->matches[i].gbd);
    }
  }
}

TEST_F(AnnArenaTest, TrailingSectionIdsMustStrictlyIncrease) {
  // A trailing id at or below the canonical six (or duplicated) is a
  // structural error, not a skippable unknown.
  for (uint32_t hostile : {uint32_t{0}, uint32_t{3}, uint32_t{6}}) {
    std::string corrupt = ReadFile(*arena_path_);
    PatchU32(&corrupt, SectionEntryOffset(kAnnEntry, 0), hostile);
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
  PatchU32(&corrupt, SectionEntryOffset(kAnnEntry, 0), 42);
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
  PatchU32(&future, payload, kAnnGraphFormatVersion + 1);
  // Keep the artifact internally consistent: re-CRC the edited section.
  PatchU32(&future, SectionEntryOffset(kAnnEntry, 24),
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
  PatchU32(&corrupt, payload + 8, 1u << 30);  // entry_point
  PatchU32(&corrupt, SectionEntryOffset(kAnnEntry, 24),
           Crc32(corrupt.data() + payload, static_cast<size_t>(sec->length)));
  FixMetaCrc(&corrupt);
  const std::string path = ::testing::TempDir() + "/ann_arena_corrupt.v4";
  WriteFile(path, corrupt);
  EXPECT_FALSE(GbdaIndexView::Open(path).ok());
}

}  // namespace
}  // namespace gbda
