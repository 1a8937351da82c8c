// The v4 arena's tables (storage/index_arena.h): the graph offsets, the
// branch dictionary (sections 1..4) and the mandatory ids fp_keys (10).
// Covers writer emission, agreement between the mapped tables and the owned
// index they were written from, byte-stable re-persisting from a mapped
// view, per-section corruption detection, the open-time table validation
// (ValidateArenaTables) against hostile payloads, the version-3 rebuild
// message, the mandatory-section check, and an artifact that still carries
// the retired graph_sizes section (8), as older writers laid it out.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "arena_test_util.h"
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

using testutil::FixMetaCrc;
using testutil::kRetiredGraphSizes;
using testutil::PatchAt;
using testutil::ReadAt;
using testutil::SectionEntryAt;
using testutil::WithRetiredGraphSizes;

// Relabels every table entry from the first with id `from` on to fresh ids
// 42, 43, ... (ascending, so only the mandatory-section check can object).
void RelabelFrom(std::string* data, const ArenaInfo& info, uint32_t from) {
  uint32_t next_id = 42;
  bool relabeling = false;
  for (size_t s = 0; s < info.sections.size(); ++s) {
    relabeling = relabeling || info.sections[s].id == from;
    if (!relabeling) continue;
    PatchAt<uint32_t>(data, SectionEntryAt(s), next_id++);
  }
  FixMetaCrc(data);
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

    arena_path_ = new std::string(::testing::TempDir() + "/arena_columns.v4");
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

  // Writes `corrupt` and opens it with default options: the table checks
  // must fire without checksum verification. Returns the failure message.
  static std::string OpenFailure(const std::string& corrupt) {
    const std::string path = ::testing::TempDir() + "/arena_columns_bad.v4";
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    EXPECT_FALSE(opened.ok());
    return opened.ok() ? std::string() : opened.status().message();
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static std::string* arena_path_;
};

GeneratedDataset* ArenaColumnsTest::dataset_ = nullptr;
GbdaIndex* ArenaColumnsTest::index_ = nullptr;
std::string* ArenaColumnsTest::arena_path_ = nullptr;

// ---------------------------------------------------------------------------
// Emission and agreement with the owned index
// ---------------------------------------------------------------------------

TEST_F(ArenaColumnsTest, WriterEmitsTheTables) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->num_graphs, index_->num_graphs());
  EXPECT_EQ(info->dictionary_size, index_->dictionary().size());
  // Each distinct branch once: far fewer entries than branches.
  EXPECT_LT(info->dictionary_size, info->total_branches);

  const ArenaSectionInfo* keys = info->FindSection(kSecFpKeys);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(keys->length, info->total_branches * sizeof(uint64_t));
  EXPECT_EQ(info->sections[0].length, (info->num_graphs + 1) * 8);
  EXPECT_EQ(info->sections[1].length, info->dictionary_size * 4);
  EXPECT_EQ(info->sections[2].length, (info->dictionary_size + 1) * 8);
  EXPECT_EQ(info->sections[3].length, info->dictionary_labels * 4);
  for (const ArenaSectionInfo& sec : info->sections) {
    EXPECT_EQ(sec.offset % kArenaSectionAlign, 0u) << ArenaSectionName(sec.id);
  }
  // The branch counts (8) are the graph_offsets deltas; v3's duplicate
  // offsets (9) and collision directory (11, 12) are gone too.
  for (const uint32_t retired : {kRetiredGraphSizes, 9u, 11u, 12u}) {
    EXPECT_EQ(info->FindSection(retired), nullptr) << retired;
  }
}

TEST_F(ArenaColumnsTest, MappedTablesMatchTheOwnedIndex) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const CandidateColumns mapped = view->columns();
  const CandidateColumns owned = index_->columns();
  ASSERT_TRUE(mapped.present());
  ASSERT_TRUE(owned.present());
  // A fresh Build numbers in content order, so the writer's renumbering is
  // the identity: same offsets (so same sizes), same ids, same dictionary.
  const size_t n = index_->num_graphs();
  ASSERT_EQ(view->num_graphs(), n);
  for (size_t g = 0; g < n; ++g) {
    EXPECT_EQ(mapped.fp_offsets[g], owned.fp_offsets[g]) << "graph " << g;
  }
  ASSERT_EQ(mapped.fp_offsets[n], owned.fp_offsets[n]);
  for (uint64_t i = 0; i < owned.fp_offsets[n]; ++i) {
    ASSERT_EQ(mapped.fp_keys[i], owned.fp_keys[i]) << "id " << i;
  }
  const BranchSetRef a = view->dictionary().entries();
  const BranchSetRef b = index_->dictionary().entries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(CompareBranches(a.root(d), a.edge_labels(d), b.root(d),
                              b.edge_labels(d)),
              0)
        << "entry " << d;
    // The mapped dictionary's hash index finds every entry.
    EXPECT_EQ(view->dictionary().Find(a.root(d), a.edge_labels(d)), d);
  }
}

TEST_F(ArenaColumnsTest, TablesSurviveARepersistFromTheView) {
  // Re-persisting a mapped view (what `gbda_indexctl graph` does) keeps the
  // offsets, the dictionary and the columns byte-identical.
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  const std::string second = ::testing::TempDir() + "/arena_columns_rt.v4";
  ASSERT_TRUE(WriteArenaFile(*view, second).ok());

  const std::string a = ReadFile(*arena_path_);
  const std::string b = ReadFile(second);
  Result<ArenaInfo> info_a = ParseArenaHeader(a, "a");
  Result<ArenaInfo> info_b = ParseArenaHeader(b, "b");
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  for (const uint32_t id : {kSecGraphOffsets, kSecDictRoots, kSecDictLabelStart,
                            kSecDictLabels, kSecFpKeys}) {
    const ArenaSectionInfo* sec_a = info_a->FindSection(id);
    const ArenaSectionInfo* sec_b = info_b->FindSection(id);
    ASSERT_NE(sec_a, nullptr) << ArenaSectionName(id);
    ASSERT_NE(sec_b, nullptr) << ArenaSectionName(id);
    EXPECT_EQ(a.substr(sec_a->offset, sec_a->length),
              b.substr(sec_b->offset, sec_b->length))
        << ArenaSectionName(id);
  }
}

// ---------------------------------------------------------------------------
// Corruption: per-section bit flips and hostile tables
// ---------------------------------------------------------------------------

TEST_F(ArenaColumnsTest, BitFlipInEachTableIsCaught) {
  // A single flipped payload bit must fail a checksum-verified open, naming
  // the section when the checksum pass (rather than the table validation)
  // is what trips.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/arena_columns_flip.v4";
  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  for (const uint32_t id : {kSecGraphOffsets, kSecDictRoots, kSecDictLabelStart,
                            kSecDictLabels, kSecFpKeys}) {
    const ArenaSectionInfo* sec = info->FindSection(id);
    ASSERT_NE(sec, nullptr);
    if (sec->length == 0) continue;
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

TEST_F(ArenaColumnsTest, HostileGraphTablesAreRejectedAtEveryOpen) {
  // Each payload keeps a plausible structure, so only ValidateArenaTables
  // can catch it — on a DEFAULT open: the scan, the prefilter and the
  // dictionary reads are unchecked after it.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const uint64_t ids = info->FindSection(kSecFpKeys)->offset;
  const uint64_t offsets = info->sections[0].offset;
  {
    // Graph 0's last id at the dictionary's size: still ascending, but past
    // every entry.
    std::string corrupt = data;
    const uint64_t last = ReadAt<uint64_t>(data, offsets + 8) - 1;
    PatchAt<uint64_t>(&corrupt, ids + last * 8, info->dictionary_size);
    EXPECT_NE(OpenFailure(corrupt).find("outside the dictionary"),
              std::string::npos);
  }
  {
    // Descending ids in one graph: the first graph with two distinct ids
    // gets them swapped.
    bool patched = false;
    std::string corrupt = data;
    for (uint64_t g = 0; g < info->num_graphs && !patched; ++g) {
      const uint64_t lo = ReadAt<uint64_t>(data, offsets + g * 8);
      const uint64_t hi = ReadAt<uint64_t>(data, offsets + (g + 1) * 8);
      const uint64_t first = ReadAt<uint64_t>(data, ids + lo * 8);
      const uint64_t last = ReadAt<uint64_t>(data, ids + (hi - 1) * 8);
      if (hi - lo < 2 || first == last) continue;
      PatchAt<uint64_t>(&corrupt, ids + lo * 8, last);
      PatchAt<uint64_t>(&corrupt, ids + (hi - 1) * 8, first);
      patched = true;
    }
    ASSERT_TRUE(patched);
    EXPECT_NE(OpenFailure(corrupt).find("descend"), std::string::npos);
  }
  {
    // graph_offsets[1] := huge — would index out of fp_keys if served.
    std::string corrupt = data;
    PatchAt<uint64_t>(&corrupt, offsets + 8, ~uint64_t{0} / 2);
    EXPECT_NE(OpenFailure(corrupt).find("graph_offsets"), std::string::npos);
  }
}

TEST_F(ArenaColumnsTest, HostileDictionariesAreRejectedAtEveryOpen) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->dictionary_size, 3u);
  const uint64_t roots = info->sections[kSecDictRoots - 1].offset;
  const uint64_t starts = info->sections[kSecDictLabelStart - 1].offset;
  const uint64_t labels = info->sections[kSecDictLabels - 1].offset;
  const auto root = [&](uint64_t d) {
    return ReadAt<uint32_t>(data, roots + d * 4);
  };
  const auto start = [&](uint64_t d) {
    return ReadAt<uint64_t>(data, starts + d * 8);
  };
  {
    // A repeated entry: an adjacent pair with one root and equally many
    // labels gets the first one's labels copied into the second.
    bool patched = false;
    std::string corrupt = data;
    for (uint64_t d = 1; d < info->dictionary_size && !patched; ++d) {
      const uint64_t len = start(d) - start(d - 1);
      if (root(d) != root(d - 1) || start(d + 1) - start(d) != len) continue;
      const std::string run = data.substr(
          static_cast<size_t>(labels + start(d - 1) * 4),
          static_cast<size_t>(len * 4));
      corrupt.replace(static_cast<size_t>(labels + start(d) * 4),
                      static_cast<size_t>(len * 4), run);
      patched = true;
    }
    ASSERT_TRUE(patched);
    EXPECT_NE(OpenFailure(corrupt).find("not strictly ascending"),
              std::string::npos);
  }
  {
    // An unsorted entry: entry 0's root past the last entry's.
    std::string corrupt = data;
    PatchAt<uint32_t>(&corrupt, roots,
                      root(info->dictionary_size - 1) + 1);
    EXPECT_NE(OpenFailure(corrupt).find("not strictly ascending"),
              std::string::npos);
  }
  {
    // Non-monotone label offsets: entry 1 starts past entry 2.
    std::string corrupt = data;
    PatchAt<uint64_t>(&corrupt, starts + 8, start(2) + 1);
    EXPECT_NE(OpenFailure(corrupt).find("dict_label_start"),
              std::string::npos);
  }
  {
    // The last label offset no longer ends at dictionary_labels.
    std::string corrupt = data;
    PatchAt<uint64_t>(&corrupt, starts + info->dictionary_size * 8,
                      info->dictionary_labels + 1);
    EXPECT_NE(OpenFailure(corrupt).find("dict_label_start"),
              std::string::npos);
  }
}

TEST_F(ArenaColumnsTest, VersionThreeArtifactAsksForARebuild) {
  // v3 kept per-branch content and FNV keys; its version word alone must
  // stop the open with the rebuild command, before any section is read.
  std::string old = ReadFile(*arena_path_);
  PatchAt<uint32_t>(&old, 4, 3);
  const std::string path = ::testing::TempDir() + "/arena_columns_v3.v4";
  WriteFile(path, old);
  Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(opened.status().message().find("version 3"), std::string::npos)
      << opened.status().message();
  EXPECT_NE(opened.status().message().find("gbda_indexctl build"),
            std::string::npos)
      << opened.status().message();
}

TEST_F(ArenaColumnsTest, ColumnlessArtifactFailsAtOpen) {
  // fp_keys relabeled to an id this build does not know: the table is
  // otherwise sound, but the header parse must reject it as InvalidArgument
  // and the open must name what is missing instead of serving without ids
  // — also when the artifact still carries the retired graph_sizes, which
  // cannot stand in for them.
  const std::string current = ReadFile(*arena_path_);
  for (std::string corrupt : {current, WithRetiredGraphSizes(current)}) {
    Result<ArenaInfo> info = ParseArenaHeader(corrupt, *arena_path_);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    RelabelFrom(&corrupt, *info, kSecFpKeys);
    Result<ArenaInfo> parsed = ParseArenaHeader(corrupt, "columnless");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("fp_keys"), std::string::npos);
    const std::string message = OpenFailure(corrupt);
    EXPECT_NE(message.find(ArenaSectionName(kSecFpKeys)), std::string::npos)
        << message;
    EXPECT_NE(message.find("gbda_indexctl build"), std::string::npos)
        << message;
  }
}

TEST_F(ArenaColumnsTest, RetiredSizesSectionIsNotWrittenBack) {
  // An artifact that still carries graph_sizes (8) opens (ann_arena_test
  // checks that it serves); re-persisting the view drops the section and
  // keeps every other table byte for byte.
  const std::string current = ReadFile(*arena_path_);
  const std::string path = ::testing::TempDir() + "/arena_columns_sizes.v4";
  WriteFile(path, WithRetiredGraphSizes(current));
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Result<std::string> rewritten = BuildArena(*view);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  Result<ArenaInfo> again = ParseArenaHeader(*rewritten, "rewritten");
  Result<ArenaInfo> fresh = ParseArenaHeader(current, "current");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(again->FindSection(kRetiredGraphSizes), nullptr);
  EXPECT_EQ(again->sections.size(), fresh->sections.size());
  for (const uint32_t id : {kSecGraphOffsets, kSecDictRoots, kSecDictLabelStart,
                            kSecDictLabels, kSecFpKeys}) {
    const ArenaSectionInfo* a = fresh->FindSection(id);
    const ArenaSectionInfo* b = again->FindSection(id);
    ASSERT_NE(b, nullptr) << ArenaSectionName(id);
    EXPECT_EQ(current.substr(a->offset, a->length),
              rewritten->substr(b->offset, b->length))
        << ArenaSectionName(id);
  }
}

}  // namespace
}  // namespace gbda
