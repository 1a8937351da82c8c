#include "service/dynamic_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/branch_dictionary.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/gbda_service.h"

namespace gbda {
namespace {

// Every graph a test handed the service, by stable id. The service keeps
// no Graph, so the fresh-build reference is assembled from this record.
using GraphsById = std::map<size_t, Graph>;

// Adds `batch` in one commit and records each graph under its stable id.
void AddAndRecord(DynamicGbdaService& dyn, std::vector<Graph> batch,
                  GraphsById* graphs) {
  Result<std::vector<size_t>> ids = dyn.AddGraphs(batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    (*graphs)[(*ids)[i]] = std::move(batch[i]);
  }
}

// A frozen rebuild of the dynamic corpus: exactly the live graphs in stable
// id order, dictionaries copied, indexed from scratch. Heap-held because
// GbdaService keeps pointers into `db`.
struct Reference {
  GraphDatabase db;
  std::unique_ptr<GbdaIndex> index;
  std::unique_ptr<GbdaService> service;
  std::vector<size_t> live_ids;  // reference dense id -> dynamic stable id
};

std::unique_ptr<Reference> MakeReference(const DynamicGbdaService& dyn,
                                         const GraphsById& graphs,
                                         const GbdaIndexOptions& index_options,
                                         const ServiceOptions& service_options) {
  auto ref = std::make_unique<Reference>();
  ref->live_ids = dyn.live_ids();
  ref->db.vertex_labels() = dyn.vertex_labels();
  ref->db.edge_labels() = dyn.edge_labels();
  for (size_t id : ref->live_ids) ref->db.Add(graphs.at(id));
  Result<GbdaIndex> index = GbdaIndex::Build(ref->db, index_options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  if (!index.ok()) return nullptr;
  ref->index = std::make_unique<GbdaIndex>(std::move(*index));
  Result<std::unique_ptr<GbdaService>> service =
      GbdaService::Create(&ref->db, ref->index.get(), service_options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return nullptr;
  ref->service = std::move(*service);
  return ref;
}

// The acceptance contract: match set, ordering, exact phi doubles, GBDs and
// both scan counters must be bit-identical, with reference dense ids mapped
// through live_ids back to the dynamic service's stable ids.
void ExpectBitIdentical(const SearchResult& ref, const SearchResult& dyn,
                        const std::vector<size_t>& live_ids,
                        const std::string& label) {
  ASSERT_EQ(ref.matches.size(), dyn.matches.size()) << label;
  for (size_t i = 0; i < ref.matches.size(); ++i) {
    ASSERT_LT(ref.matches[i].graph_id, live_ids.size()) << label;
    EXPECT_EQ(live_ids[ref.matches[i].graph_id], dyn.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(ref.matches[i].phi_score, dyn.matches[i].phi_score)
        << label << " match " << i;
    EXPECT_EQ(ref.matches[i].gbd, dyn.matches[i].gbd) << label << " match " << i;
  }
  EXPECT_EQ(ref.candidates_evaluated, dyn.candidates_evaluated) << label;
  EXPECT_EQ(ref.prefiltered_out, dyn.prefiltered_out) << label;
}

class DynamicServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = FingerprintProfile(0.02);
    profile.seed = 42;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
    ASSERT_GE(dataset_->db.size(), 10u);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static GbdaIndexOptions IndexOptions() {
    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 500;
    return options;
  }

  /// The graphs of InitialDb(initial) under the stable ids Create assigns
  /// them.
  static GraphsById InitialGraphs(size_t initial) {
    GraphsById graphs;
    for (size_t i = 0; i < initial && i < dataset_->db.size(); ++i) {
      graphs[i] = dataset_->db.graph(i);
    }
    return graphs;
  }

  /// Initial corpus: the first `initial` dataset graphs, full dictionaries.
  static GraphDatabase InitialDb(size_t initial) {
    GraphDatabase db;
    db.vertex_labels() = dataset_->db.vertex_labels();
    db.edge_labels() = dataset_->db.edge_labels();
    for (size_t i = 0; i < initial && i < dataset_->db.size(); ++i) {
      db.Add(dataset_->db.graph(i));
    }
    return db;
  }

  static GeneratedDataset* dataset_;
};

GeneratedDataset* DynamicServiceTest::dataset_ = nullptr;

TEST_F(DynamicServiceTest, RandomizedInterleavingMatchesFreshBuild) {
  const GbdaIndexOptions index_options = IndexOptions();
  const size_t initial = dataset_->db.size() * 3 / 5;
  for (size_t shards : {1u, 2u, 7u}) {
    DynamicServiceOptions options;
    options.service.num_threads = 3;
    options.service.num_shards = shards;
    options.gbd_refit_fraction = 0.0;  // strict: refit at every commit
    Result<std::unique_ptr<DynamicGbdaService>> created =
        DynamicGbdaService::Create(InitialDb(initial), index_options, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    DynamicGbdaService& dyn = **created;
    GraphsById graphs = InitialGraphs(initial);

    Rng rng(1000 + shards);
    size_t next_pool_graph = initial;  // dataset graphs not yet added
    for (int step = 0; step < 8; ++step) {
      // One random mutation: add 1-3 held-back graphs or remove 1-2 live
      // ids (keeping enough corpus for the prior fit).
      const std::vector<size_t> live = dyn.live_ids();
      const bool can_add = next_pool_graph < dataset_->db.size();
      const bool do_add = can_add && (live.size() <= 5 || rng.Bernoulli(0.6));
      if (!do_add && live.size() <= 5) continue;  // keep the prior fit-able
      if (do_add) {
        std::vector<Graph> batch;
        const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
        for (size_t i = 0; i < count && next_pool_graph < dataset_->db.size();
             ++i) {
          batch.push_back(dataset_->db.graph(next_pool_graph++));
        }
        AddAndRecord(dyn, std::move(batch), &graphs);
        if (HasFatalFailure()) return;
      } else {
        const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
        std::vector<size_t> picks;
        for (size_t i : rng.SampleWithoutReplacement(
                 live.size(), std::min(count, live.size() - 4))) {
          picks.push_back(live[i]);
        }
        if (picks.empty()) continue;
        ASSERT_TRUE(dyn.RemoveGraphs(picks).ok());
      }

      // Checkpoint: a from-scratch rebuild over the final corpus must agree
      // bit-for-bit on every variant / prefilter combination.
      std::unique_ptr<Reference> ref =
          MakeReference(dyn, graphs, index_options, options.service);
      ASSERT_NE(ref, nullptr);
      EXPECT_EQ(ref->live_ids.size(), dyn.num_live());
      for (GbdaVariant variant :
           {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
            GbdaVariant::kWeightedGbd}) {
        for (bool prefilter : {false, true}) {
          SearchOptions opts;
          opts.tau_hat = 6;
          opts.gamma = 0.4;
          opts.variant = variant;
          opts.use_prefilter = prefilter;
          for (size_t q = 0; q < 2 && q < dataset_->queries.size(); ++q) {
            const std::string label =
                "shards=" + std::to_string(shards) + " step=" +
                std::to_string(step) + " variant=" +
                std::to_string(static_cast<int>(variant)) + " prefilter=" +
                std::to_string(prefilter) + " query=" + std::to_string(q);
            Result<SearchResult> expect =
                ref->service->Query(dataset_->queries[q], opts);
            Result<SearchResult> got = dyn.Query(dataset_->queries[q], opts);
            ASSERT_TRUE(expect.ok()) << label;
            ASSERT_TRUE(got.ok()) << got.status().ToString() << " " << label;
            ExpectBitIdentical(*expect, *got, ref->live_ids, label);

            Result<SearchResult> expect_topk =
                ref->service->QueryTopK(dataset_->queries[q], 5, opts);
            Result<SearchResult> got_topk =
                dyn.QueryTopK(dataset_->queries[q], 5, opts);
            ASSERT_TRUE(expect_topk.ok()) << label;
            ASSERT_TRUE(got_topk.ok()) << label;
            ExpectBitIdentical(*expect_topk, *got_topk, ref->live_ids,
                               "topk " + label);
          }
        }
      }
    }
  }
}

TEST_F(DynamicServiceTest, StableIdsSurviveMutations) {
  const GbdaIndexOptions index_options = IndexOptions();
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(6), index_options, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;

  // A distinctive graph: fresh labels shared with nothing else, so it alone
  // has GBD 0 against itself.
  const LabelId v = dyn.InternVertexLabel("dyn-unique-v");
  const LabelId e = dyn.InternEdgeLabel("dyn-unique-e");
  Graph unique;
  unique.AddVertex(v);
  unique.AddVertex(v);
  unique.AddVertex(v);
  ASSERT_TRUE(unique.AddEdge(0, 1, e).ok());
  ASSERT_TRUE(unique.AddEdge(1, 2, e).ok());
  Result<size_t> id = dyn.AddGraph(unique);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 6u);

  SearchOptions opts;
  opts.tau_hat = 5;
  Result<SearchResult> top = dyn.QueryTopK(unique, 1, opts);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->matches.size(), 1u);
  EXPECT_EQ(top->matches[0].graph_id, *id);
  EXPECT_EQ(top->matches[0].gbd, 0);

  // Mutations elsewhere leave the stable id addressing the same graph.
  ASSERT_TRUE(dyn.RemoveGraphs({0, 3}).ok());
  Result<size_t> other = dyn.AddGraph(dataset_->db.graph(0));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(*other, 7u);
  top = dyn.QueryTopK(unique, 1, opts);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->matches.size(), 1u);
  EXPECT_EQ(top->matches[0].graph_id, *id);

  // Removing the graph retires the id for good.
  ASSERT_TRUE(dyn.RemoveGraphs({*id}).ok());
  top = dyn.QueryTopK(unique, 1, opts);
  ASSERT_TRUE(top.ok());
  if (!top->matches.empty()) {
    EXPECT_NE(top->matches[0].graph_id, *id);
  }
  EXPECT_EQ(dyn.RemoveGraphs({*id}).code(), StatusCode::kNotFound);
}

TEST_F(DynamicServiceTest, TauZeroAndTopKZeroOnSnapshotPath) {
  const GbdaIndexOptions index_options = IndexOptions();
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  options.service.num_shards = 3;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(dataset_->db.size()),
                                 index_options, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;

  // tau_hat = 0 against the snapshot: only GBD-0 candidates carry
  // posterior mass, with and without the prefilter layer.
  const Graph query = dataset_->db.graph(0);
  for (bool prefilter : {false, true}) {
    SearchOptions opts;
    opts.tau_hat = 0;
    opts.gamma = 0.5;
    opts.use_prefilter = prefilter;
    Result<SearchResult> r = dyn.Query(query, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->matches.empty());
    bool found_self = false;
    for (const SearchMatch& m : r->matches) {
      EXPECT_EQ(m.gbd, 0);
      EXPECT_GT(m.phi_score, 0.0);
      found_self |= m.graph_id == 0;
    }
    EXPECT_TRUE(found_self);
    // Pruned and exhaustive rankings agree at the tau boundary (the
    // snapshot path always sharpens the bound through its profiles).
    SearchOptions exhaustive = opts;
    exhaustive.early_termination = false;
    Result<SearchResult> pruned = dyn.QueryTopK(query, 3, opts);
    Result<SearchResult> reference = dyn.QueryTopK(query, 3, exhaustive);
    ASSERT_TRUE(pruned.ok());
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(pruned->matches.size(), reference->matches.size());
    for (size_t i = 0; i < pruned->matches.size(); ++i) {
      EXPECT_EQ(pruned->matches[i].graph_id, reference->matches[i].graph_id);
      EXPECT_EQ(pruned->matches[i].phi_score,
                reference->matches[i].phi_score);
    }
  }

  // k = 0: the defined-empty ranking, still counted as served.
  dyn.ResetStats();
  SearchOptions opts;
  opts.tau_hat = 5;
  Result<SearchResult> empty = dyn.QueryTopK(query, 0, opts);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->matches.empty());
  EXPECT_EQ(empty->candidates_evaluated, 0u);
  Result<std::vector<SearchResult>> batch =
      dyn.QueryTopKBatch(Span<Graph>(&query, 1), 0, opts);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_TRUE((*batch)[0].matches.empty());
  const ServiceStats stats = dyn.stats();
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_EQ(stats.candidates_evaluated, 0u);
}

TEST_F(DynamicServiceTest, StalenessPolicyDefersRefits) {
  const GbdaIndexOptions index_options = IndexOptions();
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  options.gbd_refit_fraction = 0.5;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(8), index_options, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;
  EXPECT_EQ(dyn.dynamic_stats().gbd_refits, 0u);
  EXPECT_EQ(dyn.snapshot_info().gbd_staleness, 0u);

  // One add: 1/9 <= 0.5, the commit publishes with a stale prior.
  ASSERT_TRUE(dyn.AddGraph(dataset_->db.graph(8)).ok());
  EXPECT_EQ(dyn.dynamic_stats().gbd_refits, 0u);
  EXPECT_EQ(dyn.snapshot_info().gbd_staleness, 1u);
  // Queries still serve against the stale-prior snapshot.
  SearchOptions opts;
  opts.tau_hat = 5;
  ASSERT_TRUE(dyn.Query(dataset_->queries[0], opts).ok());

  // Keep mutating until drift crosses the fraction; the refit must fire and
  // reset the staleness counter.
  for (size_t i = 9; i < 14 && i < dataset_->db.size(); ++i) {
    ASSERT_TRUE(dyn.AddGraph(dataset_->db.graph(i)).ok());
  }
  ASSERT_TRUE(dyn.RemoveGraphs({0, 1, 2}).ok());
  EXPECT_GE(dyn.dynamic_stats().gbd_refits, 1u);
  EXPECT_EQ(dyn.snapshot_info().gbd_staleness, 0u);

  // Flush bypasses the threshold: a below-threshold drift is fit away on
  // demand. One add leaves staleness 1 (far below 0.5 of the corpus) ...
  if (14 < dataset_->db.size()) {
    const uint64_t refits = dyn.dynamic_stats().gbd_refits;
    ASSERT_TRUE(dyn.AddGraph(dataset_->db.graph(14)).ok());
    EXPECT_EQ(dyn.snapshot_info().gbd_staleness, 1u);
    // ... and Flush forces the refit the policy deferred.
    ASSERT_TRUE(dyn.Flush().ok());
    EXPECT_EQ(dyn.snapshot_info().gbd_staleness, 0u);
    EXPECT_EQ(dyn.dynamic_stats().gbd_refits, refits + 1);
  }
}

TEST_F(DynamicServiceTest, ValidatesMutations) {
  const GbdaIndexOptions index_options = IndexOptions();
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(5), index_options);
  ASSERT_TRUE(created.ok());
  DynamicGbdaService& dyn = **created;
  const uint64_t generation = dyn.snapshot_info().generation;

  // Unknown label ids are rejected before anything mutates.
  Graph bad;
  bad.AddVertex(static_cast<LabelId>(dyn.vertex_labels().size() + 10));
  EXPECT_EQ(dyn.AddGraph(bad).status().code(), StatusCode::kInvalidArgument);

  // Invalid removals are rejected as a whole.
  EXPECT_FALSE(dyn.RemoveGraphs({99}).ok());
  EXPECT_FALSE(dyn.RemoveGraphs({0, 0}).ok());

  // No failed mutation published a snapshot.
  EXPECT_EQ(dyn.snapshot_info().generation, generation);
  EXPECT_EQ(dyn.num_live(), 5u);

  // Initial corpora must be fit-able: one graph gives Lambda2 no pair.
  EXPECT_FALSE(DynamicGbdaService::Create(InitialDb(1), index_options).ok());

  // Flush succeeds only when the forced refit could actually run: on a
  // corpus mutated down to one live graph the snapshot still publishes,
  // but the stale prior is surfaced as an error.
  ASSERT_TRUE(dyn.RemoveGraphs({0, 1, 2, 3}).ok());
  EXPECT_EQ(dyn.num_live(), 1u);
  EXPECT_GT(dyn.snapshot_info().gbd_staleness, 0u);
  Status flushed = dyn.Flush();
  ASSERT_FALSE(flushed.ok());
  EXPECT_EQ(flushed.code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(dyn.dynamic_stats().gbd_refit_failures, 0u);

  // A live id beside an out-of-range id or itself is InvalidArgument,
  // beside a retired id NotFound: no call publishes, and the live id stays.
  const uint64_t retired_generation = dyn.snapshot_info().generation;
  EXPECT_EQ(dyn.RemoveGraphs({4, 99}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dyn.RemoveGraphs({4, 4}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dyn.RemoveGraphs({4, 0}).code(), StatusCode::kNotFound);
  EXPECT_EQ(dyn.snapshot_info().generation, retired_generation);
  EXPECT_EQ(dyn.live_ids(), std::vector<size_t>{4});

  // Queries still serve against the (stale-prior) published snapshot.
  SearchOptions opts;
  opts.tau_hat = 5;
  EXPECT_TRUE(dyn.Query(dataset_->queries[0], opts).ok());
}

TEST_F(DynamicServiceTest, InternedLabelsExtendTheModelUniverse) {
  const GbdaIndexOptions index_options = IndexOptions();
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(6), index_options, options);
  ASSERT_TRUE(created.ok());
  DynamicGbdaService& dyn = **created;
  GraphsById graphs = InitialGraphs(6);

  const LabelId v = dyn.InternVertexLabel("rare-metal");
  Graph g;
  g.AddVertex(v);
  g.AddVertex(v);
  ASSERT_TRUE(g.AddEdge(0, 1, kVirtualLabel + 1).ok());
  AddAndRecord(dyn, {g}, &graphs);
  if (HasFatalFailure()) return;

  // A fresh build over the final corpus (with the grown dictionaries) must
  // still agree bit-for-bit: the commit refreshed |L_V| for the model.
  std::unique_ptr<Reference> ref =
      MakeReference(dyn, graphs, index_options, options.service);
  ASSERT_NE(ref, nullptr);
  SearchOptions opts;
  opts.tau_hat = 6;
  opts.gamma = 0.3;
  Result<SearchResult> expect = ref->service->Query(dataset_->queries[0], opts);
  Result<SearchResult> got = dyn.Query(dataset_->queries[0], opts);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*expect, *got, ref->live_ids, "interned label");
}

TEST_F(DynamicServiceTest, Lambda1ColumnsOutliveALambda2Refit) {
  const GbdaIndexOptions index_options = IndexOptions();
  DynamicServiceOptions options;  // default policy: refit on every commit
  options.service.num_threads = 2;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(12), index_options, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.3;
  ASSERT_TRUE(dyn.Query(dataset_->queries[0], opts).ok());
  const std::shared_ptr<const IndexReader> served = dyn.snapshot_index();
  GedPriorTable* table = served->mutable_ged_prior();
  const size_t matrices = table->num_cached_matrices();
  EXPECT_GT(matrices, 0u);

  // A removal refits Lambda2, so the next generation starts fresh engines,
  // but the label universe is unchanged and the table carries over.
  ASSERT_TRUE(dyn.RemoveGraphs({0, 3}).ok());
  const std::shared_ptr<const IndexReader> refit = dyn.snapshot_index();
  EXPECT_NE(&refit->gbd_prior(), &served->gbd_prior());
  EXPECT_EQ(refit->mutable_ged_prior(), table);
  // The replay's candidates are a subset of the first run's, so its cold
  // Phi memo finds the Lambda1 matrix of every size it needs in the table.
  ASSERT_TRUE(dyn.Query(dataset_->queries[0], opts).ok());
  EXPECT_EQ(table->num_cached_matrices(), matrices);

  // A grown model universe changes Lambda1: the next snapshot gets a new,
  // empty table.
  dyn.InternVertexLabel("rare-metal");
  ASSERT_TRUE(dyn.Flush().ok());
  const std::shared_ptr<const IndexReader> grown = dyn.snapshot_index();
  EXPECT_EQ(grown->num_vertex_labels(), refit->num_vertex_labels() + 1);
  EXPECT_NE(grown->mutable_ged_prior(), table);
  EXPECT_EQ(grown->mutable_ged_prior()->num_cached_matrices(), 0u);
}

TEST_F(DynamicServiceTest, ChurnFreesRemovedGraphs) {
  // 200 commits each add one graph and retire the oldest, so the live
  // corpus keeps its size. A removed graph leaves nothing behind: the
  // published index and id map hold exactly the live graphs.
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  options.gbd_refit_fraction = 1.0;  // refits are not under test here
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(dataset_->db.size()),
                                 IndexOptions(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;
  const size_t live = dyn.num_live();
  const size_t dictionary_size = dyn.snapshot_index()->dictionary().size();
  constexpr size_t kCommits = 200;
  for (size_t step = 0; step < kCommits; ++step) {
    ASSERT_TRUE(dyn.AddGraph(dataset_->db.graph(step % live)).ok());
    ASSERT_TRUE(dyn.RemoveGraphs({step}).ok());
  }
  EXPECT_EQ(dyn.num_live(), live);
  EXPECT_EQ(dyn.snapshot_index()->num_graphs(), live);
  std::vector<size_t> expected_ids(live);
  std::iota(expected_ids.begin(), expected_ids.end(), kCommits);
  EXPECT_EQ(dyn.live_ids(), expected_ids);
  // Every re-added graph's branches were known, so no dead entry piled up.
  EXPECT_EQ(dyn.snapshot_index()->dictionary().size(), dictionary_size);
  // The churned corpus still serves, in stable ids past every retired one.
  SearchOptions opts;
  opts.tau_hat = 3;
  Result<SearchResult> top = dyn.QueryTopK(dataset_->queries[0], 5, opts);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->matches.size(), 5u);
  for (const SearchMatch& m : top->matches) EXPECT_GE(m.graph_id, kCommits);
}

// The distinct branch ids `index` holds.
size_t HeldIds(const IndexReader& index) {
  const CandidateColumns columns = index.columns();
  const uint64_t total = columns.fp_offsets[index.num_graphs()];
  std::vector<bool> held(index.dictionary().size(), false);
  size_t distinct = 0;
  for (uint64_t k = 0; k < total; ++k) {
    if (!held[columns.fp_keys[k]]) {
      held[columns.fp_keys[k]] = true;
      ++distinct;
    }
  }
  return distinct;
}

TEST_F(DynamicServiceTest, ChurnOfUnseenBranchesKeepsTheDictionaryBounded) {
  // 400 rounds each add one graph carrying a fresh vertex label, so a
  // branch no live graph has, and retire the oldest graph. The retired
  // graphs' branches are dead entries; once they outnumber the held ones
  // the dictionary is compacted, so it stays within twice what the live
  // corpus holds instead of growing by one entry a round.
  DatasetProfile profile = GrecProfile(0.03);
  profile.seed = 42;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  constexpr size_t kLive = 20;
  ASSERT_GE(ds->db.size(), kLive);
  GraphDatabase initial;
  initial.vertex_labels() = ds->db.vertex_labels();
  initial.edge_labels() = ds->db.edge_labels();
  for (size_t g = 0; g < kLive; ++g) initial.Add(ds->db.graph(g));
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  options.gbd_refit_fraction = 1.0;  // refits are not under test here
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(std::move(initial), IndexOptions(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;
  GraphsById graphs;
  for (size_t g = 0; g < kLive; ++g) graphs[g] = ds->db.graph(g);

  constexpr size_t kRounds = 400;
  for (size_t step = 0; step < kRounds; ++step) {
    Graph fresh = ds->db.graph(step % kLive);
    ASSERT_TRUE(fresh
                    .RelabelVertex(0, dyn.InternVertexLabel(
                                          "churn-" + std::to_string(step)))
                    .ok());
    AddAndRecord(dyn, {fresh}, &graphs);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(dyn.RemoveGraphs({step}).ok());
    const std::shared_ptr<const IndexReader> now = dyn.snapshot_index();
    ASSERT_LE(now->dictionary().size(), 2 * HeldIds(*now)) << "step " << step;
  }
  EXPECT_EQ(dyn.num_live(), kLive);

  // The compacted corpus answers as a fresh build over its live graphs.
  std::unique_ptr<Reference> ref =
      MakeReference(dyn, graphs, IndexOptions(), options.service);
  ASSERT_NE(ref, nullptr);
  ASSERT_TRUE(dyn.Flush().ok());
  SearchOptions opts;
  opts.tau_hat = 3;
  opts.gamma = 0.3;
  for (size_t q = 0; q < 2 && q < ds->queries.size(); ++q) {
    Result<SearchResult> expect = ref->service->Query(ds->queries[q], opts);
    Result<SearchResult> got = dyn.Query(ds->queries[q], opts);
    ASSERT_TRUE(expect.ok() && got.ok());
    ExpectBitIdentical(*expect, *got, ref->live_ids,
                       "query " + std::to_string(q));
    Result<SearchResult> expect_topk =
        ref->service->QueryTopK(ds->queries[q], 5, opts);
    Result<SearchResult> got_topk = dyn.QueryTopK(ds->queries[q], 5, opts);
    ASSERT_TRUE(expect_topk.ok() && got_topk.ok());
    ExpectBitIdentical(*expect_topk, *got_topk, ref->live_ids,
                       "topk query " + std::to_string(q));
  }
}

TEST_F(DynamicServiceTest, ConcurrentQueriesAndMutationsStayConsistent) {
  const GbdaIndexOptions index_options = IndexOptions();
  DynamicServiceOptions options;
  options.service.num_threads = 3;
  options.service.num_shards = 5;
  const size_t initial = dataset_->db.size() / 2;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(initial), index_options, options);
  ASSERT_TRUE(created.ok());
  DynamicGbdaService& dyn = **created;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&dyn, &done, &failures, r]() {
      SearchOptions opts;
      opts.tau_hat = 5;
      opts.gamma = 0.3;
      opts.use_prefilter = (r % 2) == 0;
      size_t qi = static_cast<size_t>(r);
      while (!done.load(std::memory_order_relaxed)) {
        const Graph& query =
            dataset_->queries[qi++ % dataset_->queries.size()];
        Result<SearchResult> res = dyn.Query(query, opts);
        if (!res.ok()) {
          ++failures;
          continue;
        }
        // Every result must be internally consistent with SOME generation:
        // ids ascending (the serial order contract) and scores finite.
        for (size_t i = 0; i < res->matches.size(); ++i) {
          if (i > 0 &&
              res->matches[i].graph_id <= res->matches[i - 1].graph_id) {
            ++failures;
          }
          if (!std::isfinite(res->matches[i].phi_score)) ++failures;
        }
      }
    });
  }

  // Writer: interleave adds and removes through ~20 commits.
  size_t next = initial;
  Rng rng(77);
  for (int step = 0; step < 20; ++step) {
    if (next < dataset_->db.size() && rng.Bernoulli(0.6)) {
      ASSERT_TRUE(dyn.AddGraph(dataset_->db.graph(next++)).ok());
    } else {
      const std::vector<size_t> live = dyn.live_ids();
      if (live.size() > 6) {
        const size_t pick =
            live[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(live.size()) - 1))];
        ASSERT_TRUE(dyn.RemoveGraphs({pick}).ok());
      }
    }
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(dyn.dynamic_stats().snapshots_published, 20u);
  EXPECT_GT(dyn.stats().queries_served, 0u);
}

TEST_F(DynamicServiceTest, UnseenBranchCommitLeavesHeldSnapshotsUnchanged) {
  // Copy-on-write: a commit that meets a branch the dictionary lacks grows
  // a private copy, so the dictionary of a snapshot readers still hold —
  // and every answer scanned against it — stays as it was while the commit
  // runs (TSan sees any write to the held dictionary).
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(InitialDb(8), IndexOptions(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicGbdaService& dyn = **created;
  const std::shared_ptr<const IndexReader> held = dyn.snapshot_index();
  const BranchDictionary* held_dictionary = &held->dictionary();
  const size_t held_size = held_dictionary->size();

  const LabelId v = dyn.InternVertexLabel("cow-unseen-v");
  const LabelId e = dyn.InternEdgeLabel("cow-unseen-e");
  Graph unseen;
  unseen.AddVertex(v);
  unseen.AddVertex(dataset_->db.graph(0).VertexLabel(0));
  unseen.AddVertex(v);
  ASSERT_TRUE(unseen.AddEdge(0, 1, e).ok());
  ASSERT_TRUE(unseen.AddEdge(1, 2, e).ok());
  const BranchMultiset unseen_branches = ExtractBranches(unseen);
  const BranchSetRef unseen_set = unseen_branches;
  ASSERT_EQ(held_dictionary->Find(unseen_set.root(0),
                                  unseen_set.edge_labels(0)),
            held_size);

  // Index-only scans against the held snapshot: every candidate scored.
  PosteriorEngine engine(held->num_vertex_labels(), held->num_edge_labels(),
                         held->tau_max(), held->mutable_ged_prior(),
                         &held->gbd_prior());
  const auto scan = [&](const Graph& query, SearchResult* result) {
    SearchOptions opts;
    opts.tau_hat = 5;
    opts.gamma = 0.0;
    Result<ScanContext> ctx = PrepareScan(query, opts, true, *held);
    return ctx.ok() ? ScanRange(*ctx, *held, nullptr, 0, held->num_graphs(),
                                &engine, result)
                    : ctx.status();
  };
  const std::vector<const Graph*> queries = {&dataset_->queries[0], &unseen};
  std::vector<SearchResult> want(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(scan(*queries[q], &want[q]).ok());
    ASSERT_EQ(want[q].matches.size(), held->num_graphs());
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      size_t rounds = 0;
      while (!done.load(std::memory_order_relaxed) || rounds < 3) {
        const size_t q = (rounds++ + static_cast<size_t>(r)) % queries.size();
        SearchResult got;
        if (!scan(*queries[q], &got).ok() ||
            got.matches.size() != want[q].matches.size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < got.matches.size(); ++i) {
          if (got.matches[i].graph_id != want[q].matches[i].graph_id ||
              got.matches[i].phi_score != want[q].matches[i].phi_score ||
              got.matches[i].gbd != want[q].matches[i].gbd) {
            ++mismatches;
          }
        }
      }
    });
  }
  Result<size_t> added = dyn.AddGraph(unseen);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE(dyn.AddGraphs({unseen, dataset_->db.graph(9)}).ok());
  ASSERT_TRUE(dyn.RemoveGraphs({*added, 0}).ok());
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  EXPECT_EQ(&held->dictionary(), held_dictionary);
  EXPECT_EQ(held_dictionary->size(), held_size);
  // The master appended the new branches past every existing id and
  // reuses none after the removals.
  const std::shared_ptr<const IndexReader> now = dyn.snapshot_index();
  ASSERT_NE(&now->dictionary(), held_dictionary);
  EXPECT_GT(now->dictionary().size(), held_size);
  const uint64_t id = now->dictionary().Find(unseen_set.root(0),
                                             unseen_set.edge_labels(0));
  EXPECT_GE(id, held_size);
  EXPECT_LT(id, now->dictionary().size());
  const BranchSetRef before = held_dictionary->entries();
  const BranchSetRef after = now->dictionary().entries();
  for (size_t d = 0; d < held_size; ++d) {
    ASSERT_EQ(CompareBranches(before.root(d), before.edge_labels(d),
                              after.root(d), after.edge_labels(d)),
              0)
        << "entry " << d;
  }
  // The surviving copy of the unseen graph is found at GBD 0.
  SearchOptions opts;
  opts.tau_hat = 5;
  Result<SearchResult> top = dyn.QueryTopK(unseen, 1, opts);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->matches.size(), 1u);
  EXPECT_EQ(top->matches[0].gbd, 0);
}

}  // namespace
}  // namespace gbda
