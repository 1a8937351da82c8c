// The storage engine (docs/ARCHITECTURE.md, "Storage engine"): MappedFile,
// the v4 arena writer/parser, GbdaIndexView open-time validation (including
// the header plausibility check and the GED-prior cross-check) and
// corruption detection.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "arena_test_util.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"
#include "storage/mapped_file.h"

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

template <typename T>
void PatchMeta(std::string* data, size_t meta_offset, T value) {
  std::memcpy(&(*data)[kArenaPreambleBytes + meta_offset], &value,
              sizeof(value));
}

// After a deliberate meta edit, so the validator under test — not the
// always-on meta checksum — is what rejects the file.
using testutil::FixMetaCrc;

// Byte offsets of meta scalars (after the preamble), in writer order.
constexpr size_t kMetaTauMax = 0 * 8;
constexpr size_t kMetaSamplePairs = 1 * 8;
constexpr size_t kMetaStddevFloor = 7 * 8;

class StorageTest : public ::testing::Test {
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

    arena_path_ = new std::string(::testing::TempDir() + "/storage_test.v4");
    ASSERT_TRUE(WriteArenaFile(*index_, *arena_path_).ok());
  }
  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    delete arena_path_;
    index_ = nullptr;
    dataset_ = nullptr;
    arena_path_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static std::string* arena_path_;
};

GeneratedDataset* StorageTest::dataset_ = nullptr;
GbdaIndex* StorageTest::index_ = nullptr;
std::string* StorageTest::arena_path_ = nullptr;

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

TEST_F(StorageTest, MappedFileMapsExactBytes) {
  const std::string path = ::testing::TempDir() + "/mapped_file_test.bin";
  const std::string payload = "zero-copy storage engine";
  WriteFile(path, payload);
  Result<MappedFile> mapped = MappedFile::OpenReadOnly(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->size(), payload.size());
  EXPECT_EQ(std::string(mapped->data(), mapped->size()), payload);
  EXPECT_EQ(mapped->path(), path);

  // Moving transfers the mapping without invalidating it.
  MappedFile moved = std::move(*mapped);
  EXPECT_EQ(std::string(moved.data(), moved.size()), payload);
}

TEST_F(StorageTest, MappedFileRejectsMissingAndEmptyFiles) {
  EXPECT_EQ(MappedFile::OpenReadOnly("/nonexistent/artifact.v3").status().code(),
            StatusCode::kIOError);
  const std::string path = ::testing::TempDir() + "/mapped_empty.bin";
  WriteFile(path, "");
  EXPECT_FALSE(MappedFile::OpenReadOnly(path).ok());
}

// ---------------------------------------------------------------------------
// Arena write / open round trip
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ArenaRoundTripPreservesEveryField) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  EXPECT_EQ(view->num_graphs(), index_->num_graphs());
  EXPECT_EQ(view->gbd_staleness(), 0u);
  EXPECT_EQ(view->tau_max(), index_->tau_max());
  EXPECT_EQ(view->num_vertex_labels(), index_->num_vertex_labels());
  EXPECT_EQ(view->num_edge_labels(), index_->num_edge_labels());
  EXPECT_EQ(view->avg_vertices(), index_->avg_vertices());
  EXPECT_EQ(view->options().seed, index_->options().seed);
  EXPECT_EQ(view->options().gbd_prior.num_sample_pairs,
            index_->options().gbd_prior.num_sample_pairs);
  EXPECT_EQ(view->options().gbd_prior.gmm.seed,
            index_->options().gbd_prior.gmm.seed);

  // Every graph's branches read back identically through the mapped view:
  // the same ids over the same dictionary entries.
  const CandidateColumns owned = index_->columns();
  const CandidateColumns mapped = view->columns();
  const size_t n = index_->num_graphs();
  ASSERT_EQ(mapped.fp_offsets[n], owned.fp_offsets[n]);
  for (size_t g = 0; g < n; ++g) {
    ASSERT_EQ(mapped.fp_offsets[g], owned.fp_offsets[g]) << "graph " << g;
  }
  for (uint64_t k = 0; k < owned.fp_offsets[n]; ++k) {
    ASSERT_EQ(mapped.fp_keys[k], owned.fp_keys[k]) << "id " << k;
  }
  const BranchSetRef want = index_->dictionary().entries();
  const BranchSetRef got = view->dictionary().entries();
  ASSERT_EQ(got.size(), want.size());
  for (size_t d = 0; d < want.size(); ++d) {
    EXPECT_EQ(CompareBranches(got.root(d), got.edge_labels(d), want.root(d),
                              want.edge_labels(d)),
              0)
        << "entry " << d;
  }

  // Lambda2 tabulates identically.
  for (int64_t phi = 0; phi < 32; ++phi) {
    EXPECT_EQ(view->gbd_prior().Probability(phi),
              index_->gbd_prior().Probability(phi))
        << "phi " << phi;
  }
}

TEST_F(StorageTest, ArenaHeaderInspection) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kArenaVersion);
  EXPECT_EQ(info->file_bytes, data.size());
  EXPECT_EQ(info->num_graphs, index_->num_graphs());
  // The canonical sections lead in id order; fp_keys always follows from
  // this writer.
  ASSERT_EQ(info->sections.size(), kArenaSectionCount + 1);
  uint64_t previous_end = 0;
  uint32_t previous_id = 0;
  for (size_t s = 0; s < info->sections.size(); ++s) {
    const ArenaSectionInfo& sec = info->sections[s];
    if (s < kArenaSectionCount) {
      EXPECT_EQ(sec.id, s + 1);
    } else {
      EXPECT_GT(sec.id, previous_id);  // trailing ids strictly increase
    }
    previous_id = sec.id;
    EXPECT_EQ(sec.offset % kArenaSectionAlign, 0u);
    EXPECT_GE(sec.offset, previous_end);
    previous_end = sec.offset + sec.length;
  }
  EXPECT_LE(previous_end, data.size());
  EXPECT_NE(info->FindSection(kSecFpKeys), nullptr);
}

TEST_F(StorageTest, ArenaFromViewIsStable) {
  // Writing an arena FROM a mapped view reproduces the offsets and the
  // dictionary byte-for-byte (the prior blobs may reorder cached rows, so
  // compare the four flat sections through their CRCs).
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  const std::string second_path = ::testing::TempDir() + "/storage_rewrite.v4";
  ASSERT_TRUE(WriteArenaFile(*view, second_path).ok());
  const std::string a = ReadFile(*arena_path_);
  const std::string b = ReadFile(second_path);
  Result<ArenaInfo> info_a = ParseArenaHeader(a, "a");
  Result<ArenaInfo> info_b = ParseArenaHeader(b, "b");
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(info_a->sections[s].crc32, info_b->sections[s].crc32)
        << ArenaSectionName(info_a->sections[s].id);
    EXPECT_EQ(info_a->sections[s].length, info_b->sections[s].length);
  }
}

TEST_F(StorageTest, WriteReplacesTheFileUnderAMappedView) {
  // The writer publishes a new inode by rename, so a view still mapping
  // the old file keeps its bytes: its columns and answers stay intact after
  // a different index is written to the same path. (A write in place would
  // truncate the mapped inode under the view.)
  const std::string path = ::testing::TempDir() + "/storage_replace.v4";
  ASSERT_TRUE(WriteArenaFile(*index_, path).ok());
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  GbdaSearch search(&dataset_->db, &*view);
  SearchOptions options;
  options.tau_hat = 5;
  Result<SearchResult> before =
      search.QueryTopK(dataset_->queries[0], 5, options);
  ASSERT_TRUE(before.ok());
  const size_t n = view->num_graphs();
  const CandidateColumns columns = view->columns();
  const std::vector<uint64_t> keys(columns.fp_keys,
                                   columns.fp_keys + columns.fp_offsets[n]);

  GraphDatabase half;
  half.vertex_labels() = dataset_->db.vertex_labels();
  half.edge_labels() = dataset_->db.edge_labels();
  for (size_t g = 0; g < dataset_->db.size() / 2; ++g) {
    half.Add(dataset_->db.graph(g));
  }
  Result<GbdaIndex> other = GbdaIndex::Build(half, index_->options());
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_TRUE(WriteArenaFile(*other, path).ok());

  Result<SearchResult> after =
      search.QueryTopK(dataset_->queries[0], 5, options);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->matches.size(), before->matches.size());
  for (size_t i = 0; i < before->matches.size(); ++i) {
    EXPECT_EQ(after->matches[i].graph_id, before->matches[i].graph_id);
    EXPECT_EQ(after->matches[i].phi_score, before->matches[i].phi_score);
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    ASSERT_EQ(view->columns().fp_keys[k], keys[k]) << "id " << k;
  }
  // The path now holds the other index, and no temp file is left over.
  Result<GbdaIndexView> reopened = GbdaIndexView::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_graphs(), half.size());
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp." + std::to_string(::getpid())).c_str(), &st),
            0);
}

TEST_F(StorageTest, FailedPublishLeavesNoTempFile) {
  // A directory at the target path: the rename fails, and the temp file
  // written beside it is removed.
  const std::string path = ::testing::TempDir() + "/storage_publish_dir.v4";
  ::mkdir(path.c_str(), 0755);
  const Status written = WriteArenaFile(*index_, path);
  EXPECT_EQ(written.code(), StatusCode::kIOError) << written.ToString();
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp." + std::to_string(::getpid())).c_str(), &st),
            0);
  // A directory that does not exist fails before anything is written.
  EXPECT_EQ(WriteArenaFile(*index_, path + "/missing/dir/a.v4").code(),
            StatusCode::kIOError);
}

TEST_F(StorageTest, PriorsWithNonFiniteEntriesFailToOpen) {
  // The prior blobs are CRC-covered, but a default open checks no section
  // CRC, so their decoders must refuse a NaN themselves: in Lambda2's
  // table_[5], or in entry 2 of the first cached Lambda3 row.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const uint64_t gbd = info->FindSection(kSecGbdPrior)->offset;
  const uint64_t ged = info->FindSection(kSecGedPrior)->offset;
  ASSERT_GT(index_->gbd_prior().table_size(), 5u);
  ASSERT_GT(index_->ged_prior().num_cached_rows(), 0u);
  const size_t table5 =
      3 * 8 + index_->gbd_prior().gmm().components().size() * 24 + 8 + 5 * 8;
  const size_t row_entry2 = 4 * 8 + 8 + 8 + 2 * 8;
  const std::string path = ::testing::TempDir() + "/storage_nan_prior.v4";
  for (const uint64_t at : {gbd + table5, ged + row_entry2}) {
    std::string corrupt = data;
    const double nan = std::nan("");
    std::memcpy(&corrupt[static_cast<size_t>(at)], &nan, sizeof(nan));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok()) << "offset " << at;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("not finite"), std::string::npos)
        << opened.status().message();
  }
}

TEST_F(StorageTest, WriterRejectsStaleIndexes) {
  // The format has no staleness field: persisting a drifted Lambda2 would
  // come back as gbd_staleness() == 0 and defeat every refit policy.
  const std::string path = ::testing::TempDir() + "/storage_writer.v4";
  GbdaIndex copy = *index_;
  copy.AddGraphs(std::vector<Graph>{dataset_->db.graph(0)});
  // Stale Lambda2 (one add since the fit).
  EXPECT_EQ(WriteArenaFile(copy, path).code(),
            StatusCode::kFailedPrecondition);
  // A refit clears the drift and the index becomes persistable again.
  ASSERT_TRUE(copy.RefitGbdPrior().ok());
  EXPECT_TRUE(WriteArenaFile(copy, path).ok());
  // A removal drifts Lambda2 too.
  ASSERT_TRUE(copy.RemoveGraphs({0}).ok());
  EXPECT_EQ(WriteArenaFile(copy, path).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Corruption and hostile artifacts
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ChecksumVerificationCatchesBitFlipsInEverySection) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/storage_flip.v4";
  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  for (const ArenaSectionInfo& sec : info->sections) {
    if (sec.length == 0) continue;
    std::string corrupt = data;
    const size_t target = static_cast<size_t>(sec.offset + sec.length / 2);
    corrupt[target] = static_cast<char>(corrupt[target] ^ 0x04);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path, verify);
    ASSERT_FALSE(opened.ok()) << ArenaSectionName(sec.id);
    // Either the structural validation rejects it (offset tables) or the
    // checksum pass reports DataLoss naming the section.
    if (opened.status().code() == StatusCode::kDataLoss) {
      EXPECT_NE(opened.status().message().find(ArenaSectionName(sec.id)),
                std::string::npos)
          << opened.status().message();
    }
  }
}

TEST_F(StorageTest, HeaderTamperingIsCaughtWithoutChecksumOption) {
  const std::string data = ReadFile(*arena_path_);
  const std::string path = ::testing::TempDir() + "/storage_tamper.v4";

  // Flip one byte inside the meta block (num_graphs field): the always-on
  // header CRC catches it even with verify_checksums off.
  {
    std::string corrupt = data;
    corrupt[kArenaPreambleBytes + 12 * 8] ^= 0x01;
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  }
  // Wrong magic.
  {
    std::string corrupt = data;
    corrupt[0] = 'X';
    WriteFile(path, corrupt);
    EXPECT_FALSE(GbdaIndexView::Open(path).ok());
  }
  // Foreign endianness: a big-endian writer would lay the tag down
  // byte-reversed (01 02 03 04 instead of this host's 04 03 02 01).
  {
    std::string corrupt = data;
    corrupt[8] = 0x01;
    corrupt[9] = 0x02;
    corrupt[10] = 0x03;
    corrupt[11] = 0x04;
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
        << opened.status().message();
  }
  // Truncation: every prefix must fail (the header states file_bytes).
  for (size_t len : {size_t{0}, size_t{16}, kArenaHeaderBytes,
                     data.size() / 2, data.size() - 1}) {
    WriteFile(path, data.substr(0, len));
    EXPECT_FALSE(GbdaIndexView::Open(path).ok()) << "prefix " << len;
  }
  // Trailing growth: size disagreement is rejected too.
  {
    WriteFile(path, data + "junk");
    EXPECT_FALSE(GbdaIndexView::Open(path).ok());
  }
}

TEST_F(StorageTest, ImplausibleHeaderFieldsAreRejected) {
  // Fields only ValidatePersistedIndexHeader checks: each feeds a later
  // Lambda2 refit, never the open itself, so nothing else would catch them.
  const std::string data = ReadFile(*arena_path_);
  const std::string path = ::testing::TempDir() + "/storage_implausible.v4";
  std::string zero_floor = data;
  PatchMeta(&zero_floor, kMetaStddevFloor, 0.0);
  std::string huge_pairs = data;
  PatchMeta(&huge_pairs, kMetaSamplePairs, (uint64_t{1} << 32) + 1);
  for (std::string* corrupt : {&zero_floor, &huge_pairs}) {
    FixMetaCrc(corrupt);
    WriteFile(path, *corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("implausible"),
              std::string::npos)
        << opened.status().message();
  }
}

TEST_F(StorageTest, GedPriorHeaderMustAgreeWithTheArenaHeader) {
  // A plausible tau_max that disagrees with the embedded GED prior's own
  // header: only Open's cross-check can tell (the prior would silently
  // hold no mass above its own tau_max).
  std::string corrupt = ReadFile(*arena_path_);
  ASSERT_GT(index_->tau_max(), 0);
  PatchMeta(&corrupt, kMetaTauMax, index_->tau_max() - 1);
  FixMetaCrc(&corrupt);
  ASSERT_TRUE(ParseArenaHeader(corrupt, "patched").ok());
  const std::string path = ::testing::TempDir() + "/storage_tau.v4";
  WriteFile(path, corrupt);
  Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("GED prior header"),
            std::string::npos)
      << opened.status().message();
}

TEST_F(StorageTest, NonMonotonicOffsetTablesAreRejectedAtOpen) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->num_graphs, 2u);
  const std::string path = ::testing::TempDir() + "/storage_offsets.v4";

  // graph_offsets[1] := huge — would index out of fp_keys if served.
  {
    std::string corrupt = data;
    const uint64_t hostile = ~uint64_t{0} / 2;
    std::memcpy(&corrupt[static_cast<size_t>(info->sections[0].offset) + 8],
                &hostile, sizeof(hostile));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("graph_offsets"),
              std::string::npos)
        << opened.status().message();
  }
  // dict_label_start last entry := 0 — no longer ends at dictionary_labels.
  if (info->dictionary_labels > 0) {
    std::string corrupt = data;
    const uint64_t zero = 0;
    std::memcpy(&corrupt[static_cast<size_t>(info->sections[2].offset +
                                             info->dictionary_size * 8)],
                &zero, sizeof(zero));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("dict_label_start"),
              std::string::npos)
        << opened.status().message();
  }
}

// ---------------------------------------------------------------------------
// Serving equivalence smoke (the exhaustive sweep lives in
// index_view_equivalence_test.cc)
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ViewServesQueriesLikeTheOwnedIndex) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  Result<std::unique_ptr<GbdaSearch>> search =
      GbdaSearch::Create(&dataset_->db, &*view);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  GbdaSearch owned(&dataset_->db, index_);
  SearchOptions options;
  options.tau_hat = 5;
  options.gamma = 0.5;
  Result<SearchResult> a = owned.Query(dataset_->queries[0], options);
  Result<SearchResult> b = (*search)->Query(dataset_->queries[0], options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->matches.size(), b->matches.size());
  for (size_t i = 0; i < a->matches.size(); ++i) {
    EXPECT_EQ(a->matches[i].graph_id, b->matches[i].graph_id);
    EXPECT_EQ(a->matches[i].phi_score, b->matches[i].phi_score);
    EXPECT_EQ(a->matches[i].gbd, b->matches[i].gbd);
  }
}

}  // namespace
}  // namespace gbda
