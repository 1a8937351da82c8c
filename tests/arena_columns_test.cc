// The v3 arena's candidate-column sections (storage/index_arena.h ids
// 8..12): writer emission, the mandatory 8..10 group, open-time
// cross-section validation (ValidateArenaColumns), per-section corruption
// detection, byte-stable re-persisting from a mapped view, and agreement
// between mapped columns and the on-the-fly BuildCandidateColumns of the
// same branch data.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/candidate_columns.h"
#include "core/gbda_index.h"
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

void PatchU64(std::string* data, size_t offset, uint64_t value) {
  std::memcpy(&(*data)[offset], &value, sizeof(value));
}

uint64_t ReadU64(const std::string& data, size_t offset) {
  uint64_t value = 0;
  std::memcpy(&value, data.data() + offset, sizeof(value));
  return value;
}

class ArenaColumnsTest : public ::testing::Test {
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

    arena_path_ = new std::string(::testing::TempDir() + "/arena_columns.v3");
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

GeneratedDataset* ArenaColumnsTest::dataset_ = nullptr;
GbdaIndex* ArenaColumnsTest::index_ = nullptr;
std::string* ArenaColumnsTest::arena_path_ = nullptr;

// ---------------------------------------------------------------------------
// Emission and agreement with the on-the-fly build
// ---------------------------------------------------------------------------

TEST_F(ArenaColumnsTest, WriterEmitsTheColumnGroup) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  const ArenaSectionInfo* sizes = info->FindSection(kSecGraphSizes);
  const ArenaSectionInfo* offsets = info->FindSection(kSecFpOffsets);
  const ArenaSectionInfo* keys = info->FindSection(kSecFpKeys);
  ASSERT_NE(sizes, nullptr);
  ASSERT_NE(offsets, nullptr);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(sizes->length, info->num_graphs * sizeof(uint32_t));
  EXPECT_EQ(offsets->length, (info->num_graphs + 1) * sizeof(uint64_t));
  EXPECT_EQ(keys->length, info->total_branches * sizeof(uint64_t));
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys,
                            kSecFpUnique, kSecFpRep}) {
    if (const ArenaSectionInfo* sec = info->FindSection(id)) {
      EXPECT_EQ(sec->offset % kArenaSectionAlign, 0u) << ArenaSectionName(id);
    }
  }
  // The directory pair is all-or-nothing.
  EXPECT_EQ(info->FindSection(kSecFpUnique) == nullptr,
            info->FindSection(kSecFpRep) == nullptr);
}

TEST_F(ArenaColumnsTest, MappedColumnsMatchTheOnTheFlyBuild) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const CandidateColumns mapped = view->columns();
  ASSERT_TRUE(mapped.present());

  const OwnedCandidateColumns built = BuildCandidateColumns(*index_);
  const size_t n = index_->num_graphs();
  ASSERT_EQ(built.sizes.size(), n);
  for (size_t g = 0; g < n; ++g) {
    EXPECT_EQ(mapped.sizes[g], built.sizes[g]) << "graph " << g;
    EXPECT_EQ(mapped.fp_offsets[g], built.fp_offsets[g]) << "graph " << g;
  }
  ASSERT_EQ(mapped.fp_offsets[n], built.fp_offsets[n]);
  for (uint64_t i = 0; i < built.fp_offsets[n]; ++i) {
    ASSERT_EQ(mapped.fp_keys[i], built.fp_keys[i]) << "key " << i;
  }
  EXPECT_EQ(mapped.exactness_certified(), built.certified);
  if (built.certified) {
    ASSERT_EQ(mapped.num_distinct, built.fp_unique.size());
    for (size_t i = 0; i < built.fp_unique.size(); ++i) {
      ASSERT_EQ(mapped.fp_unique[i], built.fp_unique[i]) << "entry " << i;
      ASSERT_EQ(mapped.fp_rep[i], built.fp_rep[i]) << "entry " << i;
    }
  }
  // The owned index materialises the same columns lazily.
  const CandidateColumns lazy = index_->columns();
  ASSERT_TRUE(lazy.present());
  EXPECT_EQ(lazy.exactness_certified(), built.certified);
  for (size_t g = 0; g <= n; ++g) {
    EXPECT_EQ(lazy.fp_offsets[g], built.fp_offsets[g]);
  }
}

TEST_F(ArenaColumnsTest, ColumnsSurviveARepersistFromTheView) {
  // Re-persisting a mapped view (what `gbda_indexctl graph` does) copies
  // its column sections, and they must come back byte-identical to the
  // owned index's lazily built ones.
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  const std::string second = ::testing::TempDir() + "/arena_columns_rt.v3";
  ASSERT_TRUE(WriteArenaFile(*view, second).ok());

  const std::string a = ReadFile(*arena_path_);
  const std::string b = ReadFile(second);
  Result<ArenaInfo> info_a = ParseArenaHeader(a, "a");
  Result<ArenaInfo> info_b = ParseArenaHeader(b, "b");
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys,
                            kSecFpUnique, kSecFpRep}) {
    const ArenaSectionInfo* sec_a = info_a->FindSection(id);
    const ArenaSectionInfo* sec_b = info_b->FindSection(id);
    ASSERT_EQ(sec_a == nullptr, sec_b == nullptr) << ArenaSectionName(id);
    if (sec_a == nullptr) continue;
    EXPECT_EQ(sec_a->length, sec_b->length) << ArenaSectionName(id);
    EXPECT_EQ(sec_a->crc32, sec_b->crc32) << ArenaSectionName(id);
  }
}

// ---------------------------------------------------------------------------
// Corruption: per-section bit flips and cross-section lies
// ---------------------------------------------------------------------------

TEST_F(ArenaColumnsTest, BitFlipInEachColumnSectionIsCaught) {
  // One regression clause per new section id: a single flipped payload bit
  // must fail a checksum-verified open, naming the section when the
  // checksum pass (rather than structural validation) is what trips.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/arena_columns_flip.v3";
  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys,
                            kSecFpUnique, kSecFpRep}) {
    const ArenaSectionInfo* sec = info->FindSection(id);
    if (sec == nullptr || sec->length == 0) continue;
    std::string corrupt = data;
    const size_t target = static_cast<size_t>(sec->offset + sec->length / 2);
    corrupt[target] = static_cast<char>(corrupt[target] ^ 0x10);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path, verify);
    ASSERT_FALSE(opened.ok()) << ArenaSectionName(id);
    if (opened.status().code() == StatusCode::kDataLoss) {
      EXPECT_NE(opened.status().message().find(ArenaSectionName(id)),
                std::string::npos)
          << opened.status().message();
    }
  }
}

TEST_F(ArenaColumnsTest, CrossSectionLiesAreRejectedAtEveryOpen) {
  // These payloads keep plausible structure, so only the cross-section
  // validation (ValidateArenaColumns) can catch them — and it must do so
  // on a DEFAULT open, not just under verify_checksums: the fp_rep
  // entries are dereferenced on the serving path.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/arena_columns_lie.v3";

  const ArenaSectionInfo* sizes = info->FindSection(kSecGraphSizes);
  ASSERT_NE(sizes, nullptr);
  {
    // graph_sizes[0] += 1: no longer the branch_start delta.
    std::string corrupt = data;
    uint32_t size;
    std::memcpy(&size, corrupt.data() + sizes->offset, sizeof(size));
    PatchU32(&corrupt, static_cast<size_t>(sizes->offset), size + 1);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("graph_sizes"),
              std::string::npos)
        << opened.status().message();
  }
  {
    // fp_offsets[1] += 8: drifts off branch_start.
    const ArenaSectionInfo* offsets = info->FindSection(kSecFpOffsets);
    ASSERT_NE(offsets, nullptr);
    std::string corrupt = data;
    const size_t at = static_cast<size_t>(offsets->offset + sizeof(uint64_t));
    PatchU64(&corrupt, at, ReadU64(corrupt, at) + 8);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("fp_offsets"), std::string::npos)
        << opened.status().message();
  }
  const ArenaSectionInfo* uniq = info->FindSection(kSecFpUnique);
  if (uniq != nullptr && uniq->length >= 2 * sizeof(uint64_t)) {
    // fp_unique[1] := fp_unique[0]: breaks strict ascent.
    std::string corrupt = data;
    PatchU64(&corrupt, static_cast<size_t>(uniq->offset + sizeof(uint64_t)),
             ReadU64(corrupt, static_cast<size_t>(uniq->offset)));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("fp_unique"), std::string::npos)
        << opened.status().message();
  }
  if (const ArenaSectionInfo* rep = info->FindSection(kSecFpRep)) {
    // fp_rep[0] := far-out-of-range graph id.
    std::string corrupt = data;
    PatchU64(&corrupt, static_cast<size_t>(rep->offset),
             (info->num_graphs + 7) << 32);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("fp_rep"), std::string::npos)
        << opened.status().message();
  }
}

TEST_F(ArenaColumnsTest, ColumnlessArtifactFailsAtOpen) {
  // A pre-column artifact: relabel every section from graph_sizes on
  // (8..12) to ids this build does not know, keeping them strictly
  // increasing and the meta CRC valid. The table still parses structurally,
  // but the mandatory group is gone, so the open must fail and say which
  // sections are missing instead of serving without columns.
  std::string corrupt = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(corrupt, *arena_path_);
  ASSERT_TRUE(info.ok());
  uint32_t next_id = 42;
  for (size_t s = 0; s < info->sections.size(); ++s) {
    if (info->sections[s].id < kSecGraphSizes) continue;
    PatchU32(&corrupt,
             kArenaPreambleBytes + kArenaMetaScalarBytes +
                 s * kArenaSectionEntryBytes,
             next_id++);
  }
  ASSERT_GE(next_id, 45u);
  uint32_t section_count = 0;
  std::memcpy(&section_count, corrupt.data() + 12, sizeof(section_count));
  PatchU32(&corrupt, 24,
           Crc32(corrupt.data() + kArenaPreambleBytes,
                 ArenaHeaderBytes(section_count) - kArenaPreambleBytes));
  const std::string path = ::testing::TempDir() + "/arena_columns_none.v3";
  WriteFile(path, corrupt);
  Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys}) {
    EXPECT_NE(opened.status().message().find(ArenaSectionName(id)),
              std::string::npos)
        << opened.status().message();
  }
  EXPECT_NE(opened.status().message().find("rebuild"), std::string::npos)
      << opened.status().message();
}

TEST_F(ArenaColumnsTest, PartialColumnGroupIsRejected) {
  // Relabeling only fp_keys to an unknown id leaves graph_sizes/fp_offsets
  // orphaned: the group is all-or-none, a structural error.
  std::string corrupt = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(corrupt, *arena_path_);
  ASSERT_TRUE(info.ok());
  // Relabel fp_keys and everything after it (keeping ids ascending so the
  // ordering check stays quiet and the group check is what fires).
  uint32_t next_id = 42;
  bool relabeling = false;
  for (size_t s = 0; s < info->sections.size(); ++s) {
    if (info->sections[s].id == kSecFpKeys) relabeling = true;
    if (!relabeling) continue;
    const size_t id_at = kArenaPreambleBytes + kArenaMetaScalarBytes +
                         s * kArenaSectionEntryBytes;
    PatchU32(&corrupt, id_at, next_id++);
  }
  ASSERT_TRUE(relabeling);
  // Re-CRC the edited header so the group check (not the meta checksum) is
  // what rejects the artifact.
  uint32_t section_count = 0;
  std::memcpy(&section_count, corrupt.data() + 12, sizeof(section_count));
  PatchU32(&corrupt, 24,
           Crc32(corrupt.data() + kArenaPreambleBytes,
                 ArenaHeaderBytes(section_count) - kArenaPreambleBytes));
  Result<ArenaInfo> parsed = ParseArenaHeader(corrupt, "partial");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gbda
