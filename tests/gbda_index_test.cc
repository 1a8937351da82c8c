// The owned offline index (core/gbda_index.h): Build's input validation,
// the atomicity of incremental removal, its equivalence with a Build, and
// the isolation of a copy from later mutations of the original.
// Persistence lives in the storage engine and is covered by storage_test
// and arena_columns_test; the dictionary itself by branch_dictionary_test.
#include "core/gbda_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"

namespace gbda {
namespace {

class GbdaIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.03);
    profile.seed = 31;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
};

GeneratedDataset* GbdaIndexTest::dataset_ = nullptr;

TEST_F(GbdaIndexTest, IndexRemoveGraphsIsAtomicOnInvalidBatch) {
  GbdaIndexOptions options;
  options.tau_max = 4;
  options.gbd_prior.num_sample_pairs = 200;
  Result<GbdaIndex> built = GbdaIndex::Build(dataset_->db, options);
  ASSERT_TRUE(built.ok());
  const size_t graphs_before = built->num_graphs();
  const double avg_before = built->avg_vertices();

  // Repeated position in one batch: the whole call must be a no-op.
  EXPECT_EQ(built->RemoveGraphs({1, 1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(built->num_graphs(), graphs_before);
  EXPECT_EQ(built->avg_vertices(), avg_before);
  EXPECT_EQ(built->gbd_staleness(), 0u);
  // Mixed valid/invalid: position 0 must survive the failed call.
  EXPECT_EQ(built->RemoveGraphs({0, graphs_before + 10}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(built->num_graphs(), graphs_before);
  EXPECT_EQ(built->avg_vertices(), avg_before);
  EXPECT_EQ(built->gbd_staleness(), 0u);
}

// Graph `g`'s branches read through the dictionary, in content order.
std::vector<std::pair<LabelId, std::vector<LabelId>>> BranchesOf(
    const IndexReader& index, size_t g) {
  const CandidateColumns columns = index.columns();
  const BranchSetRef entries = index.dictionary().entries();
  std::vector<std::pair<LabelId, std::vector<LabelId>>> out;
  for (uint64_t k = columns.fp_offsets[g]; k < columns.fp_offsets[g + 1]; ++k) {
    const Span<const LabelId> labels = entries.edge_labels(columns.fp_keys[k]);
    out.emplace_back(entries.root(columns.fp_keys[k]),
                     std::vector<LabelId>(labels.begin(), labels.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The bytes of section `id` of an artifact.
std::string SectionBytes(const std::string& arena, uint32_t id) {
  Result<ArenaInfo> info = ParseArenaHeader(arena, "arena");
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  const ArenaSectionInfo* sec = info.ok() ? info->FindSection(id) : nullptr;
  return sec == nullptr ? std::string("<missing>")
                        : arena.substr(static_cast<size_t>(sec->offset),
                                       static_cast<size_t>(sec->length));
}

// The equivalence every dynamic snapshot rests on: adding graphs, erasing
// positions and refitting yields the index Build makes over the graphs
// that remain, in the order they remain in. The maintained dictionary keeps
// the removed graphs' branches and numbers appended ones last, so the two
// are compared through their contents, and through the artifact BuildArena
// writes, which renumbers both in content order.
TEST_F(GbdaIndexTest, MaintainedIndexEqualsBuild) {
  ASSERT_GE(dataset_->db.size(), 9u);
  GbdaIndexOptions options;
  options.tau_max = 4;
  // Fewer than the 15 pairs of six graphs, so the seeded sampler runs.
  options.gbd_prior.num_sample_pairs = 10;
  auto database_of = [](const std::vector<size_t>& graph_ids) {
    GraphDatabase db;
    db.vertex_labels() = dataset_->db.vertex_labels();
    db.edge_labels() = dataset_->db.edge_labels();
    for (size_t id : graph_ids) db.Add(dataset_->db.graph(id));
    return db;
  };
  Result<GbdaIndex> maintained =
      GbdaIndex::Build(database_of({0, 1, 2, 3, 4, 5}), options);
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  // Two commits, so the second copies a dictionary the first grew.
  maintained->AddGraphs(
      std::vector<Graph>{dataset_->db.graph(6), dataset_->db.graph(7)});
  maintained->AddGraphs(std::vector<Graph>{dataset_->db.graph(8)});
  // Positions 1, 4 and 7 hold graphs 1, 4 and 7.
  ASSERT_TRUE(maintained->RemoveGraphs({7, 1, 4}).ok());
  EXPECT_EQ(maintained->gbd_staleness(), 6u);
  ASSERT_TRUE(maintained->RefitGbdPrior().ok());

  const std::vector<size_t> remaining = {0, 2, 3, 5, 6, 8};
  Result<GbdaIndex> built = GbdaIndex::Build(database_of(remaining), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(maintained->num_graphs(), remaining.size());
  for (size_t p = 0; p < remaining.size(); ++p) {
    EXPECT_EQ(BranchesOf(*maintained, p), BranchesOf(*built, p))
        << "position " << p;
  }
  Result<std::string> maintained_arena = BuildArena(*maintained);
  Result<std::string> built_arena = BuildArena(*built);
  ASSERT_TRUE(maintained_arena.ok()) << maintained_arena.status().ToString();
  ASSERT_TRUE(built_arena.ok()) << built_arena.status().ToString();
  // Every table and Lambda2 byte for byte; Lambda3 may also hold rows the
  // maintained index cached for sizes it no longer has.
  for (const uint32_t id :
       {kSecGraphOffsets, kSecDictRoots, kSecDictLabelStart, kSecDictLabels,
        kSecGbdPrior, kSecFpKeys}) {
    EXPECT_EQ(SectionBytes(*maintained_arena, id),
              SectionBytes(*built_arena, id))
        << ArenaSectionName(id);
  }
  // The dead entries of graphs 1, 4 and 7 stay in the maintained
  // dictionary; the artifact drops them.
  EXPECT_GT(maintained->dictionary().size(), built->dictionary().size());
  EXPECT_EQ(maintained->avg_vertices(), built->avg_vertices());
  EXPECT_EQ(maintained->gbd_staleness(), 0u);
  BinaryWriter maintained_prior;
  BinaryWriter built_prior;
  maintained->gbd_prior().Serialize(&maintained_prior);
  built->gbd_prior().Serialize(&built_prior);
  EXPECT_EQ(maintained_prior.buffer(), built_prior.buffer());
}

// A database of `graphs` under the dataset's label dictionaries.
GraphDatabase DatabaseOf(const GraphDatabase& labels,
                         const std::vector<Graph>& graphs) {
  GraphDatabase db;
  db.vertex_labels() = labels.vertex_labels();
  db.edge_labels() = labels.edge_labels();
  for (const Graph& g : graphs) db.Add(g);
  return db;
}

// The columns as values: offsets and ids.
struct ColumnValues {
  std::vector<uint64_t> offsets;
  std::vector<uint64_t> keys;
};

ColumnValues ValuesOf(const IndexReader& index) {
  const CandidateColumns c = index.columns();
  const size_t n = index.num_graphs();
  return {std::vector<uint64_t>(c.fp_offsets, c.fp_offsets + n + 1),
          std::vector<uint64_t>(c.fp_keys, c.fp_keys + c.fp_offsets[n])};
}

// A copy is a snapshot. The index takes no lock: a mutation swaps in fresh
// columns (and, at an unseen branch, a fresh dictionary) instead of writing
// to the ones a copy shares, so the copy keeps its pointers and contents
// while two readers scan it (TSan sees any write to what they read).
TEST_F(GbdaIndexTest, CopyKeepsItsColumnsWhileTheOriginalMutates) {
  ASSERT_GE(dataset_->db.size(), 6u);
  GbdaIndexOptions options;
  options.tau_max = 4;
  options.gbd_prior.num_sample_pairs = 200;
  std::vector<Graph> graphs;
  for (size_t g = 0; g + 1 < dataset_->db.size(); ++g) {
    graphs.push_back(dataset_->db.graph(g));
  }
  Result<GbdaIndex> original =
      GbdaIndex::Build(DatabaseOf(dataset_->db, graphs), options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const GbdaIndex copy = *original;
  const CandidateColumns held = copy.columns();
  const ColumnValues held_values = ValuesOf(copy);
  const BranchDictionary* held_dictionary = &copy.dictionary();
  const size_t held_dictionary_size = held_dictionary->size();

  // Every candidate scored, so a changed id or size shows in the answer.
  PosteriorEngine engine(copy.num_vertex_labels(), copy.num_edge_labels(),
                         copy.tau_max(), copy.mutable_ged_prior(),
                         &copy.gbd_prior());
  const Graph& query = dataset_->queries[0];
  const auto scan = [&](SearchResult* result) {
    SearchOptions opts;
    opts.tau_hat = 3;
    opts.gamma = 0.0;
    Result<ScanContext> ctx = PrepareScan(query, opts, true, copy);
    return ctx.ok() ? ScanRange(*ctx, copy, nullptr, 0, copy.num_graphs(),
                                &engine, result)
                    : ctx.status();
  };
  SearchResult want;
  ASSERT_TRUE(scan(&want).ok());
  ASSERT_EQ(want.matches.size(), copy.num_graphs());

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      size_t rounds = 0;
      while (!done.load(std::memory_order_relaxed) || rounds < 3) {
        ++rounds;
        SearchResult got;
        if (!scan(&got).ok() || got.matches.size() != want.matches.size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < got.matches.size(); ++i) {
          if (got.matches[i].graph_id != want.matches[i].graph_id ||
              got.matches[i].phi_score != want.matches[i].phi_score ||
              got.matches[i].gbd != want.matches[i].gbd) {
            ++mismatches;
          }
        }
      }
    });
  }

  // A vertex label no graph carries makes a branch the dictionary lacks.
  GraphDatabase labels = DatabaseOf(dataset_->db, {});
  Graph unseen = dataset_->db.graph(0);
  ASSERT_TRUE(
      unseen.RelabelVertex(0, labels.vertex_labels().Intern("copy-unseen"))
          .ok());
  const Graph& last = dataset_->db.graph(dataset_->db.size() - 1);
  original->AddGraphs(std::vector<Graph>{unseen, last});
  graphs.push_back(unseen);
  graphs.push_back(last);
  ASSERT_TRUE(original->RemoveGraphs({0, 2}).ok());
  graphs.erase(graphs.begin() + 2);
  graphs.erase(graphs.begin());
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The copy reads what it read before, from the same pointers, and
  // repeated calls hand out the same view.
  for (const CandidateColumns now : {copy.columns(), copy.columns()}) {
    EXPECT_EQ(now.fp_offsets, held.fp_offsets);
    EXPECT_EQ(now.fp_keys, held.fp_keys);
  }
  const ColumnValues copy_values = ValuesOf(copy);
  EXPECT_EQ(copy_values.offsets, held_values.offsets);
  EXPECT_EQ(copy_values.keys, held_values.keys);
  EXPECT_EQ(&copy.dictionary(), held_dictionary);
  EXPECT_EQ(copy.dictionary().size(), held_dictionary_size);

  // The original moved on to fresh columns and a grown dictionary, laid
  // out as a fresh Build lays out the graphs it now holds.
  const CandidateColumns mutated = original->columns();
  EXPECT_NE(mutated.fp_keys, held.fp_keys);
  EXPECT_EQ(original->columns().fp_keys, mutated.fp_keys);
  EXPECT_NE(&original->dictionary(), held_dictionary);
  EXPECT_GT(original->dictionary().size(), held_dictionary_size);
  Result<GbdaIndex> rebuilt = GbdaIndex::Build(DatabaseOf(labels, graphs),
                                               options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const ColumnValues mutated_values = ValuesOf(*original);
  const ColumnValues rebuilt_values = ValuesOf(*rebuilt);
  EXPECT_EQ(mutated_values.offsets, rebuilt_values.offsets);
  EXPECT_EQ(original->avg_vertices(), rebuilt->avg_vertices());
}

TEST_F(GbdaIndexTest, BuildRejectsEmptyDatabase) {
  GraphDatabase empty;
  GbdaIndexOptions options;
  EXPECT_FALSE(GbdaIndex::Build(empty, options).ok());
}

TEST_F(GbdaIndexTest, BuildRejectsNegativeTau) {
  GbdaIndexOptions options;
  options.tau_max = -1;
  EXPECT_FALSE(GbdaIndex::Build(dataset_->db, options).ok());
}

}  // namespace
}  // namespace gbda
