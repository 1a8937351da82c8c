/// \file gbda_search.h
/// The online stage of GBDA (Algorithm 1, Steps 2-4). Given a query and a
/// prebuilt GbdaIndex, GbdaSearch scans the database computing each
/// candidate's GBD from its precomputed branches (Step 2), evaluates the
/// posterior Phi = Pr[GED <= tau_hat | GBD] through the PosteriorEngine
/// (Step 3), and accepts candidates with Phi >= gamma (Step 4).
/// SearchOptions selects the published algorithm or the Section VII-D
/// variants (GBDA-V1 average-size, GBDA-V2 weighted VGBD of Eq. 26) and can
/// enable the sound layered Prefilter in front of the probabilistic test.
///
/// The scan is factored into PrepareScan (per-query state: branch ids, filter
/// profile, the V1 size estimate) and ScanRange (candidate evaluation over a
/// contiguous id range), so the serving layer (src/service/gbda_service.h)
/// can fan the same arithmetic out over shards and stay bit-identical to
/// the serial scan; see docs/ARCHITECTURE.md, "Serving layer". Between the
/// two, ArmPrefixFilter may narrow a threshold scan to the candidates that
/// share one of the query's rarest branch ids (BranchPostings), the only
/// ones its gamma cut can keep; see "Bound pruning" there.
///
/// Both halves consume the index through the IndexReader contract
/// (core/index_reader.h), so an owned GbdaIndex and a mapped v4 artifact
/// (storage/index_view.h) serve queries through one code path with
/// bit-identical results. A candidate's GBD is max(|q|, |g|) minus the
/// intersection of the two ascending branch-id multisets (one
/// intersect_count), exact by the dictionary (core/branch_dictionary.h).

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/kernels.h"
#include "common/result.h"
#include "core/branch_postings.h"
#include "core/gbda_index.h"
#include "core/posterior.h"
#include "core/prefilter.h"
#include "graph/graph_database.h"

namespace gbda {

/// Which estimator drives the accept test (Section VII-D).
enum class GbdaVariant {
  /// Algorithm 1 as published: v = |V'1| of the actual pair, phi = GBD.
  kStandard,
  /// GBDA-V1: v is the average vertex count of `v1_sample_alpha` database
  /// graphs instead of the pair's extended size.
  kAverageSize,
  /// GBDA-V2: phi = round(VGBD) with the user weight w (Eq. 26).
  kWeightedGbd,
};

/// Online-stage parameters of Algorithm 1.
struct SearchOptions {
  int64_t tau_hat = 5;   // similarity threshold
  double gamma = 0.9;    // probability threshold
  GbdaVariant variant = GbdaVariant::kStandard;
  double vgbd_w = 0.5;          // V2 weight; must be finite under V2
  size_t v1_sample_alpha = 100;  // V1 sample size
  uint64_t seed = 99;            // V1 sampling seed
  /// Run the layered prefilter (size + label lower bounds) before the
  /// probabilistic test. Sound at threshold tau_hat: only graphs with
  /// provable GED > tau_hat are skipped, so no true match is lost while
  /// spurious accepts of provably-far graphs disappear.
  bool use_prefilter = false;
  /// Bound pruning: skip a candidate's branch intersection and posterior
  /// evaluation when a sound Phi upper bound (a cheap GBD lower bound pushed
  /// through PhiRow::UpperBound) is STRICTLY below a floor — gamma
  /// on a threshold query (never armed when gamma <= 0 or NaN), the running
  /// k-th-best phi_score on a top-k query. Bit-identical to the exhaustive
  /// scan — matches, ordering, tie-breaks and the candidates/prefilter
  /// counters all stay unchanged; only SearchResult::pruned_by_bound /
  /// verified_count (and wall time) vary. Set false to force the exhaustive
  /// reference scan, e.g. for equivalence testing
  /// (tests/prune_equivalence_test.cc) or to time Algorithm 1 as published.
  bool early_termination = true;
  /// Top-k queries only: navigate the proximity graph (src/ann) instead of
  /// scanning every candidate, then verify each visited candidate with the
  /// exact posterior arithmetic (ScanCandidateList). The result is a SUBSET
  /// of the exhaustive top-k carrying bit-exact scores — candidates the
  /// navigation never visits can be missed (the recall/latency trade-off,
  /// gated by bench/bench_recall.cc), but a returned (phi, gbd) is never
  /// fabricated. Ignored by threshold queries, which are defined over the
  /// whole corpus, and by the serial GbdaSearch, which stays the exhaustive
  /// ground-truth reference — the serving layers (GbdaService,
  /// DynamicGbdaService) honor it. See docs/ARCHITECTURE.md, "Approximate
  /// candidate navigation".
  bool approximate = false;
  /// Beam width of the approximate navigation (the priority-queue window of
  /// the greedy search). Larger windows visit more candidates: recall and
  /// cost both rise, and a window >= corpus size visits everything, making
  /// the approximate ranking bit-identical to the exhaustive one. Clamped
  /// up to k at query time so the window can always hold a full result.
  size_t search_window_size = 64;
  /// Which scan-kernel implementation (common/kernels.h) evaluates the
  /// tier-2 cuts and branch-id intersections: kAuto picks
  /// AVX2 when the CPU supports it, the force values pin one path (the
  /// bench bit-identity gate sweeps both). Results are bit-identical either
  /// way — the kernel contract, pinned by tests/kernels_test.cc. The
  /// GBDA_FORCE_SCALAR_KERNELS environment override outranks this knob
  /// (CI's scalar-forced leg). Process-local: NOT carried by the wire
  /// protocol — a server scans with its own dispatch setting.
  KernelDispatch kernel_dispatch = KernelDispatch::kAuto;
};

/// One accepted graph.
struct SearchMatch {
  size_t graph_id = 0;
  double phi_score = 0.0;  // Pr[GED <= tau_hat | GBD]
  int64_t gbd = 0;
};

/// The total ranking order used by every top-k path (serial and sharded):
/// higher phi_score first, ties by smaller GBD, then smaller id. Total, so
/// any k-truncation is unique and shard merges reproduce the serial order.
bool SearchMatchRankBefore(const SearchMatch& a, const SearchMatch& b);

/// Sorts the best k matches to the front under SearchMatchRankBefore and
/// truncates to k (std::partial_sort; the whole vector is sorted when
/// k >= size, and k == 0 truncates to nothing).
void SortTopK(std::vector<SearchMatch>* matches, size_t k);

/// `top_k` sentinel for the scan pipeline: keep every match (threshold
/// mode, no ranking truncation). Distinct from k == 0, which is a valid
/// top-k request for an EMPTY ranking: QueryTopK(k = 0) is defined to
/// return an empty result (not an error) and is short-circuited at the API
/// boundary — no scan runs, so it cannot ride the SortTopK resize path or
/// the early-termination heap. Oversized k values are clamped below the
/// sentinel by the service layers, so SIZE_MAX never aliases it.
inline constexpr size_t kScanAllMatches = static_cast<size_t>(-1);

/// Shared early-termination state of one top-k scan: one instance per
/// query, shared by every shard worker scanning that query
/// (service/gbda_service.cc), or used alone by the serial scan. Workers
/// publish "k evaluated matches of this query all have phi_score >= t"
/// witnesses — the root of a full local heap — and read the best witness
/// published by ANY worker, so one shard's strong hits prune the other
/// shards' tails. Relaxed atomics suffice: the published double itself
/// carries the guarantee (it is monotonically raised via CAS-max and never
/// orders any other memory), and a stale read only weakens pruning, never
/// correctness. Pruning compares a sound per-candidate Phi UPPER bound
/// against the threshold and skips only on STRICTLY-worse, so candidates
/// tying at the bound are always evaluated and the surviving set always
/// contains the exact top-k under SearchMatchRankBefore.
class ScanBounds {
 public:
  explicit ScanBounds(size_t k) : k_(k) {}

  size_t k() const { return k_; }

  /// The best published k-th-best phi_score; -infinity until some worker
  /// has seen k matches.
  double threshold() const {
    return shared_phi_.load(std::memory_order_relaxed);
  }

  /// Raises the shared threshold to `kth_best_phi` if it improves it.
  void Publish(double kth_best_phi) {
    double current = shared_phi_.load(std::memory_order_relaxed);
    while (kth_best_phi > current &&
           !shared_phi_.compare_exchange_weak(current, kth_best_phi,
                                              std::memory_order_relaxed)) {
    }
  }

 private:
  size_t k_;
  std::atomic<double> shared_phi_{
      -std::numeric_limits<double>::infinity()};
};

/// Outcome of one query.
struct SearchResult {
  std::vector<SearchMatch> matches;
  double seconds = 0.0;
  /// Candidates admitted past the prefilter. Deterministic — top-k early
  /// termination does NOT change this counter (pruned candidates still
  /// count), so it stays bit-identical across exhaustive, pruned, serial
  /// and sharded scans.
  size_t candidates_evaluated = 0;
  /// Candidates removed by the prefilter (0 when it is disabled).
  size_t prefiltered_out = 0;
  /// Candidates whose branch intersection + posterior evaluation the bound
  /// pruning skipped (subset of candidates_evaluated; 0 for exhaustive
  /// scans). On a threshold query the floor is gamma, which never moves, so
  /// every skip is a function of the candidate alone and the count is the
  /// same on serial, sharded and snapshot scans. On a top-k query it is
  /// timing-dependent under sharding — the shared witness tightens in
  /// worker order. Excluded from the bit-identity contract either way.
  size_t pruned_by_bound = 0;
  /// The part of pruned_by_bound an armed prefix filter skipped without
  /// reading them (0 when unarmed; see ArmPrefixFilter). A function of the
  /// query and the index alone, so every shard split gives the same count.
  size_t skipped_by_prefix = 0;
  /// Approximate mode only: candidates the proximity-graph navigation
  /// visited and handed to verification (0 for exhaustive scans). Like
  /// pruned_by_bound it is a cost counter, excluded from the determinism
  /// comparisons the equivalence gates run.
  size_t candidates_visited = 0;
  /// Candidates whose branch intersection + posterior were actually
  /// computed (i.e. not skipped by the bound). Equals
  /// candidates_evaluated - pruned_by_bound on every path; tracked
  /// explicitly so approximate-mode verification cost is visible per query.
  /// Moves with pruned_by_bound, so excluded from determinism gates.
  size_t verified_count = 0;
};

/// Per-query state shared by every candidate evaluation of one query:
/// the query's branch ids, its filter profile (when the prefilter is on),
/// the GBDA-V1 database-average size estimate and, once ArmPrefixFilter
/// armed it, the prefix filter's candidate list. Computed once by
/// PrepareScan (and ArmPrefixFilter), then read-only — safe to share
/// across shard workers.
struct ScanContext {
  SearchOptions options;
  bool apply_gamma = true;

  /// The query's branch ids under the index's dictionary, sorted ascending
  /// (one per query vertex; a branch the dictionary lacks maps to
  /// dictionary().size(), which no candidate holds) — the query side of
  /// every kernel call: the tier-2 capped intersection cut, the scoring
  /// intersection, and the approximate navigation's entry keys. The name
  /// predates the dictionary.
  std::vector<uint64_t> query_fps;

  /// Built from the query's branches only when the prefilter is on:
  /// Prefilter::Passes is its one reader (the bounds and the navigation read
  /// query_fps).
  FilterProfile query_profile;
  int64_t v1_size = 0;  // only meaningful for GbdaVariant::kAverageSize

  /// Set by ArmPrefixFilter: the ascending, distinct graph ids that hold at
  /// least one of the query's 2 * tau_hat + 1 rarest branch ids. ScanRange
  /// then visits only these; unset, it visits its whole range.
  std::optional<std::vector<uint32_t>> prefix_candidates;
};

/// Validates options against the index and computes the per-query state
/// from the query and the index alone: the query's branches are mapped
/// through index.dictionary(), the query profile is read off them and
/// GBDA-V1 samples branch counts, so no corpus Graph is read.
/// Deterministic in options.seed (the V1 sample). Fails when
/// options.tau_hat exceeds the index's tau_max, and when GBDA-V2 is
/// selected with a non-finite vgbd_w (the other variants ignore the
/// weight).
Result<ScanContext> PrepareScan(const Graph& query,
                                const SearchOptions& options, bool apply_gamma,
                                const IndexReader& index);

/// The same, after checking that `corpus` and the index agree on the graph
/// count (a stale index artifact would otherwise drive out-of-bounds
/// prefilter lookups in ScanRange). Reads only the corpus size.
Result<ScanContext> PrepareScan(const Graph& query,
                                const SearchOptions& options, bool apply_gamma,
                                const CorpusRef& corpus,
                                const IndexReader& index);

/// Whether ArmPrefixFilter may arm `ctx`: a threshold scan
/// (ctx.apply_gamma) with early_termination on, gamma > 0 (NaN fails), the
/// prefilter off (stage A must visit every candidate to keep
/// prefiltered_out exact), |q| > 2 * tau_hat, and the standard variant,
/// GBDA-V1, or GBDA-V2 with 0 < vgbd_w <= 1.
///
/// Sound because stage B prunes every candidate whose phi exceeds
/// min(v, 2 * tau_hat), where Phi is +0.0 < gamma. For standard and V1,
/// phi = max(|q|, |g|) - common, so a survivor shares at least
/// |q| - 2 * tau_hat branch ids with the query; for V2,
/// round(max - w * common) <= 2 * tau_hat forces the same when
/// 0 < w <= 1. Such a graph holds one of any 2 * tau_hat + 1 of the
/// query's ids (counted with multiplicity).
bool PrefixFilterApplies(const ScanContext& ctx);

/// Arms `ctx` when PrefixFilterApplies holds and `postings` cover at most
/// 2^32 - 1 graphs: ranks the query's ids, with multiplicity, by posting
/// length (ties by id), and stores the union of the postings of the first
/// 2 * tau_hat + 1 as ctx->prefix_candidates, through a bitmap over the
/// corpus in O(posting entries + num_graphs / 64). An id the dictionary
/// lacks has an empty posting, so it ranks first and only shrinks the
/// list. Returns whether it armed. `postings` must have been built from
/// the index the context will scan.
bool ArmPrefixFilter(const BranchPostings& postings, ScanContext* ctx);

/// Evaluates candidates with ids in [begin, end), appending accepted
/// matches to result->matches (in ascending id order) and accumulating
/// candidates_evaluated / prefiltered_out, so per-shard results sum to the
/// serial scan's counters. `prefilter` serves admission only: it is read
/// only when ctx.options.use_prefilter is set and may be null otherwise.
/// Thread-compatible: concurrent calls are safe when each uses its own
/// `result` (the index, prefilter and ctx are only read; `posterior` and
/// `bounds` are internally synchronized, so one engine serves every call).
///
/// With ctx.options.early_termination on, the scan skips a candidate —
/// counting it in pruned_by_bound instead of scoring it — when a sound Phi
/// upper bound proves it out. The proof pushes a GBD lower bound — from
/// multiset sizes (tier 1, O(1)), then from a capped early-exit
/// intersection of branch ids against the index's fp_keys column (tier 2)
/// — through the suffix maximum of the engine's Phi row
/// (PhiRow::UpperBound).
///
/// A threshold scan (ctx.apply_gamma) needs no `bounds`: gamma > 0 is a
/// fixed floor, and a candidate whose bound is strictly below it is one
/// Step 4 rejects anyway. Each skip depends on the candidate
/// alone, so pruned_by_bound is the same however the range is split.
///
/// With ctx.prefix_candidates set (ArmPrefixFilter), the call binary-searches
/// the slice of the list inside [begin, end) and runs the same evaluation
/// over it alone. Every other id of the range is one stage B would prune
/// (its phi is past the Phi row's cap), so it is counted in
/// candidates_evaluated, pruned_by_bound and skipped_by_prefix without
/// being read: matches and every other counter equal the unarmed scan's.
///
/// A ranking scan (ctx.apply_gamma == false) prunes only when `bounds` is
/// non-null with bounds->k() >= 1: the call keeps a bounded heap of the k
/// best (phi_score, gbd) pairs it has appended under
/// SearchMatchRankBefore, and skips a candidate that provably ranks
/// strictly after that witness as it stands after the previous candidate
/// (or after the cross-shard phi witness in bounds->threshold(), read per
/// candidate); a tie in the bounded phi falls through to the gbd
/// tie-break, so pruning stays live even when the k-th best phi_score is
/// exactly 0. Every skip is provably outside the query's global top-k, so
/// downstream SortTopK truncation reproduces the exhaustive ranking
/// bit-identically (see ScanBounds).
Status ScanRange(const ScanContext& ctx, const IndexReader& index,
                 const Prefilter* prefilter, size_t begin, size_t end,
                 PosteriorEngine* posterior, SearchResult* result,
                 ScanBounds* bounds = nullptr);

/// Evaluates exactly the candidates listed in `ids` (any order; ids must be
/// distinct — a repeated id would append its match twice) with the SAME
/// arithmetic as ScanRange — prefilter
/// admission, branch-id GBD, posterior, variant handling — so a match
/// this call appends is bit-identical to the one the exhaustive scan would
/// append for that id. This is the verification half of approximate mode
/// (src/ann navigates, this call scores); counters accumulate like
/// ScanRange's, plus verified_count for candidates actually scored.
///
/// Prunes under the same rules as ScanRange; on a ranking scan with
/// `bounds` non-null, a candidate provably ranking strictly after the
/// k-th-best witness is counted in pruned_by_bound instead of scored.
/// Skips are sound within the listed set — the surviving matches
/// always contain the exact top-k OF THE LISTED CANDIDATES — so
/// approximate-mode results stay a subset of the exhaustive ranking with
/// exact scores. Thread-compatible under the same rules as ScanRange.
/// Every id must be < index.num_graphs() (checked; out-of-range fails).
/// ctx.prefix_candidates is ignored: the call scores exactly `ids`.
Status ScanCandidateList(const ScanContext& ctx, const IndexReader& index,
                         const Prefilter* prefilter,
                         const std::vector<uint32_t>& ids,
                         PosteriorEngine* posterior, SearchResult* result,
                         ScanBounds* bounds = nullptr);

/// The online stage of GBDA (Algorithm 1, Steps 2-4): per database graph,
/// compute GBD from precomputed branches, evaluate the posterior
/// Pr[GED <= tau_hat | GBD] and keep graphs passing the probability
/// threshold. O(nd + tau_hat^3) per graph as analysed in Theorem 3. The
/// serial scan never arms the prefix filter: it stays the full-range
/// reference the serving layer's answers are checked against.
class GbdaSearch {
 public:
  /// Checked construction: fails when `index` does not agree with `db`
  /// (graph counts and per-graph branch sizes), e.g. a stale persisted
  /// artifact. Prefer this over the raw constructor whenever the index
  /// provenance is not statically known. Accepts any IndexReader — an
  /// owned GbdaIndex or a mapped GbdaIndexView.
  static Result<std::unique_ptr<GbdaSearch>> Create(const GraphDatabase* db,
                                                    const IndexReader* index);

  /// `db` and `index` must outlive the search object. The index must have
  /// been built over exactly this database (Create enforces this; the raw
  /// constructor defers the check to query time, where PrepareScan rejects
  /// a size mismatch before any out-of-bounds access can happen).
  GbdaSearch(const GraphDatabase* db, const IndexReader* index);

  /// Runs one similarity query. Fails when options.tau_hat exceeds the
  /// index's tau_max.
  Result<SearchResult> Query(const Graph& query, const SearchOptions& options);

  /// Top-k variant: the k database graphs with the highest posterior
  /// Pr[GED <= tau_hat | GBD], ignoring the gamma threshold (ties broken by
  /// smaller GBD, then id). Useful when the caller wants a ranking rather
  /// than a yes/no set. k == 0 returns an empty result without scanning
  /// (see kScanAllMatches for the sentinel/zero distinction). Runs the
  /// early-terminated scan unless options.early_termination is off —
  /// bit-identical either way.
  Result<SearchResult> QueryTopK(const Graph& query, size_t k,
                                 const SearchOptions& options);

 private:
  /// Shared scan: evaluates Phi for every (or every surviving) candidate.
  /// `top_k` != kScanAllMatches arms early termination on ranking scans
  /// (when options.early_termination is set); the result is still the
  /// full untruncated match list — QueryTopK sorts and truncates it.
  Result<SearchResult> Scan(const Graph& query, const SearchOptions& options,
                            bool apply_gamma,
                            size_t top_k = kScanAllMatches);

  const GraphDatabase* db_;
  const IndexReader* index_;
  PosteriorEngine posterior_;
  /// Profiled from the corpus Graphs, not from the index, so this serial
  /// reference checks the serving snapshots' branch-derived profiles.
  /// Built on the first prefiltered query: profile extraction is O(corpus)
  /// and cold-start sensitive (bench/bench_coldstart.cc), so queries that
  /// never enable the prefilter never pay for it. call_once keeps
  /// concurrent Query calls as safe as they were with the eager member
  /// (the engine is internally synchronized already).
  std::once_flag prefilter_once_;
  std::unique_ptr<Prefilter> prefilter_;
};

}  // namespace gbda
