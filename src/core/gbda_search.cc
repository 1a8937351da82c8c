#include "core/gbda_search.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/timer.h"

namespace gbda {

bool SearchMatchRankBefore(const SearchMatch& a, const SearchMatch& b) {
  if (a.phi_score != b.phi_score) return a.phi_score > b.phi_score;
  if (a.gbd != b.gbd) return a.gbd < b.gbd;
  return a.graph_id < b.graph_id;
}

void SortTopK(std::vector<SearchMatch>* matches, size_t k) {
  if (k >= matches->size()) {
    std::sort(matches->begin(), matches->end(), SearchMatchRankBefore);
    return;
  }
  std::partial_sort(matches->begin(),
                    matches->begin() + static_cast<ptrdiff_t>(k),
                    matches->end(), SearchMatchRankBefore);
  matches->resize(k);
}

Result<ScanContext> PrepareScan(const Graph& query,
                                const SearchOptions& options, bool apply_gamma,
                                const CorpusRef& corpus,
                                const IndexReader& index) {
  if (corpus.size() != index.num_graphs()) {
    return Status::FailedPrecondition(
        "index/database mismatch: index covers " +
        std::to_string(index.num_graphs()) + " graphs, corpus holds " +
        std::to_string(corpus.size()) + " (stale index artifact?)");
  }
  return PrepareScan(query, options, apply_gamma, index);
}

Result<ScanContext> PrepareScan(const Graph& query,
                                const SearchOptions& options, bool apply_gamma,
                                const IndexReader& index) {
  if (options.tau_hat < 0 || options.tau_hat > index.tau_max()) {
    return Status::InvalidArgument(
        "tau_hat outside the range supported by this index");
  }
  if (options.variant == GbdaVariant::kWeightedGbd &&
      !std::isfinite(options.vgbd_w)) {
    return Status::InvalidArgument("GBDA-V2 weight vgbd_w must be finite");
  }
  ScanContext ctx;
  ctx.options = options;
  ctx.apply_gamma = apply_gamma;
  // The query's branches as dictionary ids, sorted: the query side of every
  // kernel call the scan makes. A branch the dictionary lacks maps to its
  // size, an id no candidate holds.
  const BranchMultiset branches = ExtractBranches(query);
  const BranchSetRef query_branches = branches;
  const BranchDictionary& dictionary = index.dictionary();
  ctx.query_fps.resize(query_branches.size());
  for (size_t i = 0; i < query_branches.size(); ++i) {
    ctx.query_fps[i] = dictionary.Find(query_branches.root(i),
                                       query_branches.edge_labels(i));
  }
  std::sort(ctx.query_fps.begin(), ctx.query_fps.end());
  // Only the prefilter's Passes reads the profile: the bounds and the
  // approximate navigation take the query side from query_fps. It is read
  // off the query's branches, as the corpus side is off the index's.
  if (options.use_prefilter) {
    ctx.query_profile = BuildFilterProfile(query_branches);
  }

  // GBDA-V1 replaces the pair-specific |V'1| by a database average estimated
  // from alpha sampled graphs. Sampled once per query so every shard of the
  // same query sees the same estimate. A graph's size is its branch count
  // (ValidateIndexForDatabase pins branch count = |V|).
  if (options.variant == GbdaVariant::kAverageSize) {
    Rng rng(options.seed);
    const size_t alpha = std::max<size_t>(
        1, std::min(options.v1_sample_alpha, index.num_graphs()));
    const std::vector<size_t> picks =
        rng.SampleWithoutReplacement(index.num_graphs(), alpha);
    const uint64_t* offsets = index.columns().fp_offsets;
    double sum = 0.0;
    for (size_t id : picks) {
      sum += static_cast<double>(offsets[id + 1] - offsets[id]);
    }
    ctx.v1_size = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(sum / static_cast<double>(alpha))));
  }
  return ctx;
}

bool PrefixFilterApplies(const ScanContext& ctx) {
  const SearchOptions& options = ctx.options;
  const bool variant_ok = options.variant != GbdaVariant::kWeightedGbd ||
                          (options.vgbd_w > 0.0 && options.vgbd_w <= 1.0);
  return ctx.apply_gamma && options.early_termination &&
         options.gamma > 0.0 && !options.use_prefilter && variant_ok &&
         ctx.query_fps.size() > static_cast<size_t>(2 * options.tau_hat);
}

bool ArmPrefixFilter(const BranchPostings& postings, ScanContext* ctx) {
  const size_t num_graphs = postings.num_graphs();
  if (!PrefixFilterApplies(*ctx) ||
      num_graphs > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  // The query's ids with multiplicity, rarest first; ties by id, so the
  // list is a function of the query and the index alone. Equal ids sort
  // next to each other and share one posting.
  std::vector<std::pair<size_t, uint64_t>> ranked;
  ranked.reserve(ctx->query_fps.size());
  for (uint64_t id : ctx->query_fps) {
    ranked.emplace_back(postings.Posting(id).size(), id);
  }
  const size_t prefix = static_cast<size_t>(2 * ctx->options.tau_hat + 1);
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<ptrdiff_t>(prefix),
                    ranked.end());
  // The union through one bit per graph: O(entries + num_graphs / 64),
  // where a sort of the entries would dominate at large tau_hat.
  std::vector<uint64_t> bits((num_graphs + 63) / 64, 0);
  size_t entries = 0;
  for (size_t i = 0; i < prefix; ++i) {
    if (i > 0 && ranked[i].second == ranked[i - 1].second) continue;
    for (uint32_t g : postings.Posting(ranked[i].second)) {
      bits[g / 64] |= uint64_t{1} << (g % 64);
    }
    entries += ranked[i].first;
  }
  std::vector<uint32_t>& listed = ctx->prefix_candidates.emplace();
  listed.reserve(std::min(entries, num_graphs));
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      listed.push_back(static_cast<uint32_t>(w * 64) +
                       static_cast<uint32_t>(__builtin_ctzll(word)));
    }
  }
  return true;
}

namespace {

/// GBDA-V2's phi: Eq. 26's VGBD rounded to the nearest integer, saturated
/// where llround is unspecified — 0 for every value <= 0 (a VGBD a weight
/// above 1 drives below zero) and INT64_MAX from 2^63 up (past every Phi
/// row's cap, so Phi is +0.0), as a huge or negative finite weight yields.
/// Every other value rounds exactly as llround does. Stage B's phi_lower
/// and stage C share it, so the bound and the score cannot disagree.
int64_t RoundVgbd(double vgbd) {
  if (!(vgbd > 0.0)) return 0;
  if (vgbd >= 0x1p63) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(std::llround(vgbd));
}

constexpr int64_t kCapUnset = std::numeric_limits<int64_t>::min();

/// Everything stage B needs for a candidate is determined by its multiset
/// size alone (the query side is fixed), so it is derived once per
/// distinct size and tier 1 collapses to one entry load and two compares.
/// A size whose extended v < 1 (empty query AND candidate) gets ub = +inf
/// and no row, i.e. never prunes and skips tier 2, exactly matching the
/// exhaustive scan's evaluation (which fails identically either way).
///
/// `cap` is the tier-2 cut: the largest common-branch count that still
/// proves "strictly worse" (kCapUnset = not yet derived, -1 = nothing
/// provable). It is valid only for the floor and witness it was derived
/// from; those only tighten, so a stale cap is sound — it merely prunes
/// less — and the scan resets every cap whenever either moves. The gamma
/// floor never moves, so a threshold scan derives each size's cap once.
struct SizeBound {
  int64_t lb = -1;  // tier 1's phi lower bound; -1 = not yet derived
  double ub = 0.0;  // the row's Phi upper bound at lb
  const PhiRow* row = nullptr;
  int64_t cap = kCapUnset;
};

/// The two id sequences the shared evaluation loop runs over: a contiguous
/// [begin, begin + count) range (ScanRange) and an explicit candidate list
/// (ScanCandidateList, the verification half of approximate mode). Both are
/// trivial index adapters so the loop below compiles to the same code the
/// plain range scan had.
struct ContiguousIds {
  size_t begin;
  size_t count;
  size_t size() const { return count; }
  size_t operator[](size_t i) const { return begin + i; }
};

struct ListedIds {
  const uint32_t* ids;
  size_t count;
  size_t size() const { return count; }
  size_t operator[](size_t i) const { return ids[i]; }
};

/// One evaluation loop for both entry points: candidate admission, the
/// two-tier pruning bound, the id-intersection + posterior scoring
/// and the witness bookkeeping are shared verbatim, so a match appended for
/// id X is bit-identical whichever sequence listed X — the property
/// approximate mode's "subset with exact scores" contract rests on.
template <typename IdSeq>
Status ScanIdSequence(const ScanContext& ctx, const IndexReader& index,
                      const Prefilter* prefilter, const IdSeq& id_seq,
                      PosteriorEngine* posterior, SearchResult* result,
                      ScanBounds* bounds) {
  const SearchOptions& options = ctx.options;
  const size_t range = id_seq.size();
  // Resolved once per scan call: the GBDA_FORCE_SCALAR_KERNELS environment
  // override, then the per-scan knob, then cpuid (common/kernels.h). Both
  // tables compute identical values, so everything downstream is
  // bit-identical whichever is picked.
  const ScanKernels& kernels =
      GetScanKernels(ResolveKernels(options.kernel_dispatch));
  const CandidateColumns columns = index.columns();
  // Stage B skips a candidate whose Phi upper bound is strictly below a
  // floor, in one of two shapes. A ranking scan (every candidate is a
  // match) prunes against its k-th-best witness, from `bounds`. A threshold
  // scan prunes against gamma itself: Step 4 rejects every Phi < gamma, and
  // a row's suffix maxima are its own Phi doubles, so "bound < gamma" only
  // skips candidates Step 4 rejects. gamma never moves, so each skip is
  // a function of the candidate alone. gamma <= 0 or NaN never arms: no
  // bound (every Phi is >= 0) compares strictly below it.
  const bool rank_prune = options.early_termination && bounds != nullptr &&
                          !ctx.apply_gamma && bounds->k() > 0;
  const double gamma_floor =
      options.early_termination && ctx.apply_gamma && options.gamma > 0.0
          ? options.gamma
          : -std::numeric_limits<double>::infinity();
  // The k best (phi_score, gbd) pairs appended by THIS call under the
  // SearchMatchRankBefore order (ids never matter: pruning tests are
  // strictly-worse only), root = local k-th best. Keeping gbd alongside phi
  // lets the bound prune through the tie-break too — essential when the
  // k-th best phi_score is exactly 0 (more ranks requested than candidates
  // with posterior mass), where a phi-only threshold could never prune.
  // Only full heaps yield witnesses, so a shard with fewer than k
  // candidates simply never prunes locally.
  struct Witness {
    double phi;
    int64_t gbd;
  };
  // "Ranks before" on (phi desc, gbd asc); priority_queue's root is then
  // the worst retained witness, i.e. the local k-th best.
  const auto witness_rank_before = [](const Witness& a, const Witness& b) {
    if (a.phi != b.phi) return a.phi > b.phi;
    return a.gbd < b.gbd;
  };
  std::priority_queue<Witness, std::vector<Witness>,
                      decltype(witness_rank_before)>
      local_topk(witness_rank_before);
  // The engine's Phi rows this scan has looked up, by extended size v: one
  // engine lookup per distinct v and scan, then plain pointer reads.
  std::vector<const PhiRow*> rows_by_v;
  const auto row_for = [&](int64_t v) -> Result<const PhiRow*> {
    if (static_cast<size_t>(v) >= rows_by_v.size()) {
      rows_by_v.resize(static_cast<size_t>(v) + 1, nullptr);
    }
    const PhiRow*& row = rows_by_v[static_cast<size_t>(v)];
    if (row == nullptr) {
      Result<const PhiRow*> found = posterior->Row(v, options.tau_hat);
      if (!found.ok()) return found;
      row = *found;
    }
    return row;
  };
  // Stage B's state per candidate size (see SizeBound), derived at the
  // first candidate of that size the bound meets.
  std::vector<SizeBound> by_size;
  Witness last_kth{-1.0, -1};
  double last_floor = -std::numeric_limits<double>::infinity();
  // Only the no-gamma, no-prefilter scan has a known match count (every
  // candidate); under the gamma cut or the prefilter the accepted set is
  // small in real workloads, so a modest reservation avoids the early
  // doubling churn without over-allocating per shard.
  const size_t expected =
      !ctx.apply_gamma && !options.use_prefilter
          ? range
          : std::min<size_t>(range, 64);
  result->matches.reserve(result->matches.size() + expected);

  // The candidate's phi can only land at or above the phi_lb derived from
  // a common-branch UPPER bound: GBD (and, for w >= 0, the rounded VGBD —
  // llround is monotone) decreases as the common count grows. phi_lb also
  // bounds the ranking's gbd field directly (the scan stores the variant
  // phi there), so one quantity serves both the upper-bound lookup and the
  // tie-break test.
  const auto phi_lower = [&](int64_t max_size, int64_t common_ub) -> int64_t {
    if (options.variant == GbdaVariant::kWeightedGbd) {
      const double vgbd_lb =
          options.vgbd_w >= 0.0
              ? static_cast<double>(max_size) -
                    options.vgbd_w * static_cast<double>(common_ub)
              : static_cast<double>(max_size);
      return RoundVgbd(vgbd_lb);
    }
    return max_size - common_ub;
  };
  const uint64_t* query_keys = ctx.query_fps.data();
  const size_t query_keys_n = ctx.query_fps.size();  // the query's |V|

  // One pass per candidate: admission (stage A), the bounds against gamma
  // or the witness as it stands after the previous candidate (stage B),
  // then scoring (stage C). Every skip is provably outside the answer, so
  // the matches are those of the exhaustive scan (see ScanRange), and
  // candidates_evaluated / prefiltered_out are stage-A facts that keep
  // their determinism contract. On a ranking scan pruned_by_bound /
  // verified_count follow the witness, which tightens as matches arrive
  // (excluded from the bit-identity gates; see SearchResult).
  for (size_t i = 0; i < range; ++i) {
    const size_t id = id_seq[i];
    // -- Stage A: admission ------------------------------------------------
    if (options.use_prefilter &&
        !prefilter->Passes(ctx.query_profile, id, options.tau_hat)) {
      ++result->prefiltered_out;
      continue;
    }
    // Deterministic by design: pruned candidates still count, so this
    // counter stays bit-identical to the exhaustive scan (see SearchResult).
    ++result->candidates_evaluated;
    // The candidate's sorted ids, straight from the fp_keys column (zero
    // pointer chases); their count is its size.
    const uint64_t lo = columns.fp_offsets[id];
    const size_t g_size = static_cast<size_t>(columns.fp_offsets[id + 1] - lo);
    const uint64_t* ck = columns.fp_keys + lo;
    const int64_t max_size =
        static_cast<int64_t>(std::max(query_keys_n, g_size));
    // The extended size the Phi row is read at, exact from sizes alone.
    const int64_t v = options.variant == GbdaVariant::kAverageSize
                          ? ctx.v1_size
                          : max_size;

    // -- Stage B: bounds ---------------------------------------------------
    // phi_floor: gamma on a threshold scan, the cross-shard k-th-best phi
    // on a ranking scan, -infinity when disarmed.
    bool local_full = false;
    double phi_floor = gamma_floor;
    if (rank_prune) {
      local_full = local_topk.size() >= bounds->k();
      phi_floor = bounds->threshold();
    }
    if (local_full || phi_floor >= 0.0) {
      const Witness kth = local_full ? local_topk.top() : Witness{-1.0, -1};
      if (kth.phi != last_kth.phi || kth.gbd != last_kth.gbd ||
          phi_floor != last_floor) {
        for (SizeBound& entry : by_size) entry.cap = kCapUnset;
        last_kth = kth;
        last_floor = phi_floor;
      }
      // True when the candidate's best reachable phi_score is strictly
      // below the floor (a threshold scan's Step 4 rejects it; a ranking
      // scan has k better matches), or when it ranks strictly after the
      // local witness of k matches under SearchMatchRankBefore: it ties
      // the witness phi while its gbd can only be strictly larger. Ties in
      // both must be evaluated — the id tie-break is not bounded.
      const auto strictly_worse = [&](double phi_ub, int64_t phi_lb) {
        if (phi_ub < phi_floor) return true;
        if (!local_full) return false;
        return phi_ub < kth.phi || (phi_ub == kth.phi && phi_lb > kth.gbd);
      };
      if (g_size >= by_size.size()) by_size.resize(g_size + 1);
      SizeBound& bound = by_size[g_size];
      if (bound.lb < 0) {
        // First candidate of this size.
        if (v >= 1) {
          Result<const PhiRow*> row = row_for(v);
          if (!row.ok()) return row.status();
          bound.row = *row;
          // Tier 1: the common count never exceeds the smaller multiset,
          // so outside GBDA-V2 the bound is |query size - candidate size|.
          bound.lb = phi_lower(
              max_size,
              static_cast<int64_t>(std::min(query_keys_n, g_size)));
          bound.ub = bound.row->UpperBound(bound.lb);
        } else {
          bound.lb = std::numeric_limits<int64_t>::max();
          bound.ub = std::numeric_limits<double>::infinity();
        }
      }
      // Tier 1 costs one entry load; tier 2 a capped kernel merge, still
      // far cheaper than the full scoring it stands in for.
      bool pruned = strictly_worse(bound.ub, bound.lb);
      if (!pruned && bound.row != nullptr) {
        if (options.variant == GbdaVariant::kWeightedGbd) {
          // VGBD's rounding makes the phi_lb <-> common-cap inversion
          // fiddly; take the exact counting merge instead.
          const int64_t lb2 = phi_lower(
              max_size, kernels.intersect_count(query_keys, query_keys_n, ck,
                                                g_size));
          pruned = strictly_worse(bound.row->UpperBound(lb2), lb2);
        } else {
          // phi_lb = max_size - common exactly, and strictly_worse is
          // monotone in phi_lb (the suffix max is non-increasing), so
          // "prune" is equivalent to common <= cap for the per-size cut
          // below — decidable by an early-exiting capped kernel merge.
          if (bound.cap == kCapUnset) {
            // Tier 1 failed at lb, so the cut lies strictly above.
            int64_t p = bound.lb + 1;
            while (p <= max_size) {
              if (strictly_worse(bound.row->UpperBound(p), p)) break;
              ++p;
            }
            bound.cap = p > max_size ? -1 : max_size - p;
          }
          pruned = bound.cap >= 0 &&
                   kernels.intersect_at_most(query_keys, query_keys_n, ck,
                                             g_size, bound.cap);
        }
      }
      if (pruned) {
        ++result->pruned_by_bound;
        continue;
      }
    }

    // -- Stage C: score ----------------------------------------------------
    // Past every skip: this candidate pays the full scoring below.
    ++result->verified_count;
    // GBD (Definition 4) as max(|q|, |g|) minus the id intersection, exact
    // by the dictionary; GBDA-V2 rounds Eq. 26's VGBD, the double
    // expression Vgbd (core/branch.h) evaluates.
    const int64_t common =
        kernels.intersect_count(query_keys, query_keys_n, ck, g_size);
    int64_t phi;
    if (options.variant == GbdaVariant::kWeightedGbd) {
      const double vgbd = static_cast<double>(max_size) -
                          options.vgbd_w * static_cast<double>(common);
      phi = RoundVgbd(vgbd);
    } else {
      phi = max_size - common;
    }

    // Phi is exactly +0.0 past the row's cap (see PhiRow), so only a phi
    // inside the support fetches the row. An exhaustive scan thus builds
    // the Lambda3 rows (persisted with the index) only for sizes where
    // some candidate lands inside the support.
    double score = 0.0;
    if (phi <= PhiRow::Cap(v, options.tau_hat)) {
      Result<const PhiRow*> row = row_for(v);
      if (!row.ok()) return row.status();
      score = (*row)->Phi(phi);
    }
    if (!ctx.apply_gamma || score >= options.gamma) {
      result->matches.push_back(SearchMatch{id, score, phi});
      if (rank_prune) {
        // Fold the match into the local top-k and publish the k-th-best
        // phi whenever the full heap's root improves — one shard's strong
        // hits then prune the other shards' tails through the shared
        // bound. (Only phi is shared: a two-field witness would need a
        // 16-byte atomic to stay tear-free; the local heap keeps the full
        // (phi, gbd) pair for the tie-break test.) The improved witness
        // bounds the very next candidate.
        const Witness candidate{score, phi};
        if (local_topk.size() < bounds->k()) {
          local_topk.push(candidate);
          if (local_topk.size() == bounds->k()) {
            bounds->Publish(local_topk.top().phi);
          }
        } else if (witness_rank_before(candidate, local_topk.top())) {
          local_topk.pop();
          local_topk.push(candidate);
          bounds->Publish(local_topk.top().phi);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ScanRange(const ScanContext& ctx, const IndexReader& index,
                 const Prefilter* prefilter, size_t begin, size_t end,
                 PosteriorEngine* posterior, SearchResult* result,
                 ScanBounds* bounds) {
  if (!ctx.prefix_candidates) {
    return ScanIdSequence(ctx, index, prefilter,
                          ContiguousIds{begin, end - begin}, posterior, result,
                          bounds);
  }
  // Armed: the range's slice of the list is all that can pass stage B;
  // every other id there is counted as the pruned candidate it would be.
  const std::vector<uint32_t>& listed = *ctx.prefix_candidates;
  const auto first = std::lower_bound(listed.begin(), listed.end(), begin);
  const auto last = std::lower_bound(first, listed.end(), end);
  const size_t count = static_cast<size_t>(last - first);
  const size_t skipped = (end - begin) - count;
  result->candidates_evaluated += skipped;
  result->pruned_by_bound += skipped;
  result->skipped_by_prefix += skipped;
  return ScanIdSequence(ctx, index, prefilter,
                        ListedIds{listed.data() + (first - listed.begin()),
                                  count},
                        posterior, result, bounds);
}

Status ScanCandidateList(const ScanContext& ctx, const IndexReader& index,
                         const Prefilter* prefilter,
                         const std::vector<uint32_t>& ids,
                         PosteriorEngine* posterior, SearchResult* result,
                         ScanBounds* bounds) {
  // The range scan's bounds are implicit in [0, num_graphs); a listed id is
  // caller data (the navigator, or eventually a wire client), so check it
  // before the column reads would go out of bounds.
  for (uint32_t id : ids) {
    if (id >= index.num_graphs()) {
      return Status::InvalidArgument(
          "candidate id " + std::to_string(id) +
          " out of range for index of " + std::to_string(index.num_graphs()) +
          " graphs");
    }
  }
  return ScanIdSequence(ctx, index, prefilter, ListedIds{ids.data(), ids.size()},
                        posterior, result, bounds);
}

Result<std::unique_ptr<GbdaSearch>> GbdaSearch::Create(
    const GraphDatabase* db, const IndexReader* index) {
  Status agree = ValidateIndexForDatabase(*db, *index);
  if (!agree.ok()) return agree;
  return std::make_unique<GbdaSearch>(db, index);
}

GbdaSearch::GbdaSearch(const GraphDatabase* db, const IndexReader* index)
    : db_(db),
      index_(index),
      posterior_(index->num_vertex_labels(), index->num_edge_labels(),
                 index->tau_max(), index->mutable_ged_prior(),
                 &index->gbd_prior()) {}

Result<SearchResult> GbdaSearch::Scan(const Graph& query,
                                      const SearchOptions& options,
                                      bool apply_gamma, size_t top_k) {
  WallTimer timer;
  Result<ScanContext> ctx =
      PrepareScan(query, options, apply_gamma, CorpusRef(db_), *index_);
  if (!ctx.ok()) return ctx.status();
  // Threshold scans arm their gamma floor from ctx alone (no bounds). k >=
  // corpus can never prune (no k strictly-better matches exist), so such
  // ranking scans skip the heap bookkeeping entirely and run exhaustively.
  const bool early_terminate = !apply_gamma && top_k != kScanAllMatches &&
                               top_k < db_->size() &&
                               options.early_termination;
  // Touch prefilter_ only on the use_prefilter branch: a non-prefiltered
  // query reading the pointer while another thread's call_once is
  // constructing it would be an unsynchronized read.
  const Prefilter* prefilter = nullptr;
  if (options.use_prefilter) {
    std::call_once(prefilter_once_,
                   [this] { prefilter_ = std::make_unique<Prefilter>(db_); });
    prefilter = prefilter_.get();
  }
  SearchResult result;
  ScanBounds bounds(top_k);
  Status scan = ScanRange(*ctx, *index_, prefilter, 0, db_->size(),
                          &posterior_, &result,
                          early_terminate ? &bounds : nullptr);
  if (!scan.ok()) return scan;
  result.seconds = timer.Seconds();
  return result;
}

Result<SearchResult> GbdaSearch::Query(const Graph& query,
                                       const SearchOptions& options) {
  return Scan(query, options, /*apply_gamma=*/true);
}

Result<SearchResult> GbdaSearch::QueryTopK(const Graph& query, size_t k,
                                           const SearchOptions& options) {
  // k == 0 asks for an empty ranking: defined as an empty result, decided
  // here at the API boundary so no scan runs (see kScanAllMatches).
  if (k == 0) return SearchResult{};
  // Clamp below the sentinel (as the service layers do) so an oversized k
  // cannot disarm the ranking sort; a scan never yields more matches than
  // the database has graphs, so the clamp is behavior-free.
  k = std::min(k, db_->size());
  Result<SearchResult> scan = Scan(query, options, /*apply_gamma=*/false, k);
  if (!scan.ok()) return scan.status();
  SearchResult result = std::move(*scan);
  SortTopK(&result.matches, k);
  return result;
}

}  // namespace gbda
