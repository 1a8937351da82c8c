#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline_search.h"
#include "common/result.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace gbda {

/// Every search method compared in Section VII.
enum class Method {
  kGbda,
  kGbdaV1,
  kGbdaV2,
  kLsap,
  kGreedySort,
  kSeriation,
};

const char* MethodName(Method method);

/// One experimental cell: a method with its parameters.
struct ExperimentConfig {
  Method method = Method::kGbda;
  int64_t tau_hat = 5;
  double gamma = 0.9;        // GBDA variants only
  double vgbd_w = 0.5;       // GBDA-V2
  size_t v1_alpha = 100;     // GBDA-V1
};

/// Aggregated outcome over all queries of a dataset.
struct MethodMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  /// Mean wall-clock per query (the y-axis of Figures 7-9).
  double avg_query_seconds = 0.0;
  size_t num_queries = 0;
  Confusion confusion;
};

/// Shared experiment driver: builds the GBDA index and the baseline profiles
/// once per dataset, then evaluates any number of (method, parameter) cells
/// against the exact ground truth. This is the engine behind every
/// effectiveness and efficiency figure of the benchmark suite.
class ExperimentRunner {
 public:
  /// `dataset` must outlive the runner. index_tau_max bounds the largest
  /// tau_hat that will be queried (GED prior rows cover [0, index_tau_max]).
  static Result<std::unique_ptr<ExperimentRunner>> Create(
      const GeneratedDataset* dataset, int64_t index_tau_max,
      const GbdPriorOptions& prior_options = {});

  /// Runs one configuration over all queries (or the given subset);
  /// micro-averaged metrics.
  Result<MethodMetrics> Run(const ExperimentConfig& config,
                            const std::vector<size_t>* query_subset = nullptr);

  /// Threshold sweep. For the assignment/seriation baselines the estimate of
  /// each (query, graph) pair does not depend on tau, so it is computed once
  /// and thresholded for every entry of `taus` (their per-query time is
  /// reported identically across the sweep, matching the paper's
  /// tau-independent competitor costs). GBDA methods are evaluated per tau;
  /// the posterior memo makes repeated thresholds cheap.
  Result<std::vector<MethodMetrics>> RunTauSweep(
      const ExperimentConfig& base, const std::vector<int64_t>& taus,
      const std::vector<size_t>* query_subset = nullptr);

  /// Offline-stage costs of the GBDA index (Tables IV and V).
  const OfflineCosts& offline_costs() const { return index_->costs(); }

  const GbdaIndex& index() const { return *index_; }
  /// Mutable access for callers that instantiate their own search engines
  /// (e.g. the timing benches, which want a cold Phi memo per query).
  GbdaIndex* mutable_index() { return index_.get(); }
  const BaselineSearch& baselines() const { return *baselines_; }
  const GeneratedDataset& dataset() const { return *dataset_; }

 private:
  ExperimentRunner(const GeneratedDataset* dataset);

  const GeneratedDataset* dataset_;
  GroundTruthOracle oracle_;
  std::unique_ptr<GbdaIndex> index_;
  std::unique_ptr<GbdaSearch> gbda_;
  std::unique_ptr<BaselineSearch> baselines_;
};

}  // namespace gbda
