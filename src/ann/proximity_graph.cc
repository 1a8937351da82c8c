#include "ann/proximity_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "common/rng.h"

namespace gbda {

ProximityGraphRef ProximityGraph::ref() const {
  ProximityGraphRef r;
  r.offsets = offsets.data();
  r.neighbors = neighbors.data();
  r.num_nodes = num_nodes();
  r.num_edges = neighbors.size();
  r.entry_point = entry_point;
  r.degree_bound = degree_bound;
  return r;
}

FingerprintStore FingerprintStore::FromIndex(const IndexReader& index) {
  const CandidateColumns columns = index.columns();
  FingerprintStore store;
  store.offsets_ = columns.fp_offsets;
  store.keys_ = columns.fp_keys;
  store.size_ = index.num_graphs();
  return store;
}

int64_t FingerprintDistance(Span<const uint64_t> a, Span<const uint64_t> b,
                            const ScanKernels& kernels) {
  return static_cast<int64_t>(std::max(a.size(), b.size())) -
         kernels.intersect_count(a.data(), a.size(), b.data(), b.size());
}

bool FingerprintDistanceAtMost(Span<const uint64_t> a, Span<const uint64_t> b,
                               int64_t t, const ScanKernels& kernels) {
  const int64_t larger = static_cast<int64_t>(std::max(a.size(), b.size()));
  const int64_t smaller = static_cast<int64_t>(std::min(a.size(), b.size()));
  // The size difference bounds the distance from below (the scan's tier 1);
  // past it, distance <= t iff the intersection reaches larger - t, the
  // capped decision the scan's tier 2 makes (t >= larger gives a negative
  // cap, which intersect_at_most always fails: every distance passes).
  if (larger - smaller > t) return false;
  return !kernels.intersect_at_most(a.data(), a.size(), b.data(), b.size(),
                                    larger - t - 1);
}

namespace internal {

int64_t AlphaPruneCap(int64_t dist_pj, double alpha) {
  const double limit = static_cast<double>(dist_pj);
  const auto passes = [&](int64_t d) {
    return static_cast<double>(d) * alpha <= limit;
  };
  // The truncated quotient is the answer up to rounding; the two walks
  // settle it under the test's own arithmetic. 0 * inf is NaN, so
  // alpha = +inf drops nothing (cap -1).
  int64_t cap = static_cast<int64_t>(limit / alpha);
  while (cap >= 0 && !passes(cap)) --cap;
  while (passes(cap + 1)) ++cap;
  return cap;
}

}  // namespace internal

namespace {

/// One (distance, id) candidate; the pair order IS the navigation order —
/// ties in distance break by smaller id, keeping every search deterministic
/// on collision-heavy corpora.
using Candidate = std::pair<int64_t, uint32_t>;

/// The buffers of one beam search, reused across the builder's insertions.
/// `stamp[id] == epoch` marks id as seen by the current search, so the array
/// is never cleared: each search starts a new epoch.
struct BeamScratch {
  explicit BeamScratch(size_t num_nodes) : stamp(num_nodes, 0) {}

  std::vector<Candidate> frontier;  // min-heap: closest unexpanded first
  std::vector<Candidate> window;    // max-heap: worst retained first
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
};

/// Beam search shared by the builder (adjacency still in per-node vectors)
/// and the query-time navigator (CSR ref): expand the closest unexpanded
/// candidate, keep the best `window_size` nodes seen, stop when a full window
/// beats the whole frontier. Appends expanded nodes, in expansion order,
/// with their distances to `query` (the builder's RobustPrune pool);
/// `scratch->window` holds the final window as a heap.
///
/// Once the window is full, a newcomer only matters if it beats the worst
/// retained candidate, so that is decided first with a capped distance
/// test; exact distances are computed only for nodes that enter.
template <typename NeighborsFn>
void BeamSearch(uint32_t entry, size_t window_size,
                const NeighborsFn& neighbors_of, Span<const uint64_t> query,
                const FingerprintStore& store, const ScanKernels& kernels,
                BeamScratch* scratch, std::vector<Candidate>* expanded) {
  std::vector<Candidate>& frontier = scratch->frontier;
  std::vector<Candidate>& window = scratch->window;
  const uint32_t epoch = ++scratch->epoch;
  frontier.clear();
  window.clear();
  const Candidate start(FingerprintDistance(query, store.keys(entry), kernels),
                        entry);
  frontier.push_back(start);
  window.push_back(start);
  scratch->stamp[entry] = epoch;
  while (!frontier.empty()) {
    const Candidate closest = frontier.front();
    // A full window whose worst retained distance beats every unexpanded
    // candidate cannot improve; equal distances keep expanding so ties are
    // explored deterministically rather than by insertion luck.
    if (window.size() >= window_size && closest.first > window.front().first) {
      break;
    }
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    frontier.pop_back();
    expanded->push_back(closest);
    const auto [nbrs, count] = neighbors_of(closest.second);
    for (size_t e = 0; e < count; ++e) {
      const uint32_t nb = nbrs[e];
      if (scratch->stamp[nb] == epoch) continue;
      scratch->stamp[nb] = epoch;
      const Span<const uint64_t> nb_keys = store.keys(nb);
      if (window.size() >= window_size) {
        // (d, nb) < worst: d below the worst distance, or equal to it with
        // the smaller id.
        const Candidate& worst = window.front();
        const int64_t t = nb < worst.second ? worst.first : worst.first - 1;
        if (!FingerprintDistanceAtMost(query, nb_keys, t, kernels)) continue;
        std::pop_heap(window.begin(), window.end());
        window.pop_back();
      }
      const Candidate entered(FingerprintDistance(query, nb_keys, kernels), nb);
      window.push_back(entered);
      std::push_heap(window.begin(), window.end());
      frontier.push_back(entered);
      std::push_heap(frontier.begin(), frontier.end(), std::greater<>());
    }
  }
}

/// Vamana's RobustPrune over a (distance-to-p, id) pool: greedily keep the
/// closest candidate, then drop every pool member an alpha factor closer to
/// a kept neighbor than to p — the kept set stays diverse in direction, so
/// a bounded degree still navigates well. Pool may contain p and
/// duplicates; both are ignored. Sorts `pool` in place.
std::vector<uint32_t> RobustPrune(uint32_t p, std::vector<Candidate>* pool,
                                  double alpha, uint32_t degree,
                                  const FingerprintStore& store,
                                  const ScanKernels& kernels) {
  std::sort(pool->begin(), pool->end());
  pool->erase(std::unique(pool->begin(), pool->end()), pool->end());
  const size_t n = pool->size();
  // The alpha test double(d(c, cj)) * alpha <= double(d(p, cj)) as an
  // integer cap on d(c, cj), fixed per pool member.
  std::vector<int64_t> drop_cap(n);
  for (size_t j = 0; j < n; ++j) {
    drop_cap[j] = internal::AlphaPruneCap((*pool)[j].first, alpha);
  }
  std::vector<uint32_t> kept;
  kept.reserve(std::min<size_t>(degree, n));
  std::vector<char> dropped(n, 0);
  for (size_t i = 0; i < n && kept.size() < degree; ++i) {
    if (dropped[i]) continue;
    const uint32_t c = (*pool)[i].second;
    if (c == p) continue;
    kept.push_back(c);
    const Span<const uint64_t> c_keys = store.keys(c);
    for (size_t j = i + 1; j < n; ++j) {
      if (dropped[j]) continue;
      const uint32_t cj = (*pool)[j].second;
      if (cj == c ||
          FingerprintDistanceAtMost(c_keys, store.keys(cj), drop_cap[j],
                                    kernels)) {
        dropped[j] = 1;
      }
    }
  }
  return kept;
}

}  // namespace

Result<ProximityGraph> BuildProximityGraph(const FingerprintStore& store,
                                           const AnnBuildParams& params) {
  if (params.graph_degree == 0) {
    return Status::InvalidArgument("ann graph_degree must be >= 1");
  }
  if (params.build_window == 0) {
    return Status::InvalidArgument("ann build_window must be >= 1");
  }
  if (!(params.alpha >= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("ann alpha must be >= 1.0");
  }
  const size_t n = store.size();
  ProximityGraph out;
  out.degree_bound = params.graph_degree;
  out.entry_point = 0;
  if (n == 0) {
    out.offsets.assign(1, 0);
    return out;
  }
  if (n > static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument(
        "ann graph supports at most 2^32 - 1 nodes");
  }
  const uint32_t degree = params.graph_degree;
  const ScanKernels& kernels =
      GetScanKernels(ResolveKernels(KernelDispatch::kAuto));
  Rng rng(params.seed);

  // Random bounded-degree initialization: navigable from the first
  // insertion, and the prune passes below only ever improve edges.
  std::vector<std::vector<uint32_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t want = std::min<size_t>(degree, n - 1);
    const std::vector<size_t> picks =
        rng.SampleWithoutReplacement(n - 1, want);
    adj[i].reserve(want);
    for (size_t p : picks) {
      // Sampled from [0, n-2] with the self slot spliced out.
      adj[i].push_back(static_cast<uint32_t>(p >= i ? p + 1 : p));
    }
  }

  // Entry point: approximate medoid — the sampled node with the smallest
  // total distance to the sample (ties to the smaller id), so greedy
  // searches start near the corpus center.
  {
    const size_t sample_count = std::min<size_t>(n, 64);
    std::vector<size_t> sample = rng.SampleWithoutReplacement(n, sample_count);
    std::sort(sample.begin(), sample.end());
    int64_t best_total = std::numeric_limits<int64_t>::max();
    for (size_t c : sample) {
      int64_t total = 0;
      for (size_t s : sample) {
        total += FingerprintDistance(store.keys(c), store.keys(s), kernels);
      }
      if (total < best_total) {
        best_total = total;
        out.entry_point = static_cast<uint32_t>(c);
      }
    }
  }

  const auto neighbors_of = [&adj](uint32_t id) {
    return std::make_pair(adj[id].data(), adj[id].size());
  };

  // Randomized insertion pass (Vamana): greedy-search each node from the
  // entry point, RobustPrune the visited pool into its out-edges, then add
  // backward edges, re-pruning any list the bound overflows.
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&perm);
  BeamScratch scratch(n);
  std::vector<Candidate> pool;
  for (uint32_t p : perm) {
    const Span<const uint64_t> p_keys = store.keys(p);
    pool.clear();
    BeamSearch(out.entry_point, params.build_window, neighbors_of, p_keys,
               store, kernels, &scratch, &pool);
    for (uint32_t nb : adj[p]) {
      pool.emplace_back(FingerprintDistance(p_keys, store.keys(nb), kernels),
                        nb);
    }
    adj[p] = RobustPrune(p, &pool, params.alpha, degree, store, kernels);
    for (uint32_t j : adj[p]) {
      if (std::find(adj[j].begin(), adj[j].end(), p) != adj[j].end()) continue;
      adj[j].push_back(p);
      if (adj[j].size() > degree) {
        const Span<const uint64_t> j_keys = store.keys(j);
        pool.clear();
        for (uint32_t nb : adj[j]) {
          pool.emplace_back(
              FingerprintDistance(j_keys, store.keys(nb), kernels), nb);
        }
        adj[j] = RobustPrune(j, &pool, params.alpha, degree, store, kernels);
      }
    }
  }

  // Reachability repair: RobustPrune can orphan nodes (every in-edge
  // pruned away). Attach each BFS-unreachable node, in id order, to the
  // entry point — only the entry point's degree may exceed the bound — so
  // beam search with window >= n provably reaches the whole corpus (the
  // guarantee the full-window equivalence tests rely on).
  {
    std::vector<char> reached(n, 0);
    std::vector<uint32_t> stack;
    const auto drain = [&] {
      while (!stack.empty()) {
        const uint32_t u = stack.back();
        stack.pop_back();
        for (uint32_t nb : adj[u]) {
          if (!reached[nb]) {
            reached[nb] = 1;
            stack.push_back(nb);
          }
        }
      }
    };
    reached[out.entry_point] = 1;
    stack.push_back(out.entry_point);
    drain();
    for (uint32_t u = 0; u < n; ++u) {
      if (reached[u]) continue;
      adj[out.entry_point].push_back(u);
      reached[u] = 1;
      stack.push_back(u);
      drain();
    }
  }

  // Flatten to CSR.
  out.offsets.assign(n + 1, 0);
  size_t total_edges = 0;
  for (size_t i = 0; i < n; ++i) total_edges += adj[i].size();
  out.neighbors.reserve(total_edges);
  for (size_t i = 0; i < n; ++i) {
    out.neighbors.insert(out.neighbors.end(), adj[i].begin(), adj[i].end());
    out.offsets[i + 1] = out.neighbors.size();
  }
  return out;
}

std::vector<uint32_t> NavigateProximityGraph(const ProximityGraphRef& graph,
                                             const FingerprintStore& store,
                                             Span<const uint64_t> query_keys,
                                             size_t window) {
  if (graph.num_nodes == 0) return {};
  window = std::max<size_t>(1, window);
  const auto neighbors_of = [&graph](uint32_t id) {
    return std::make_pair(graph.neighbors + graph.offsets[id],
                          static_cast<size_t>(graph.offsets[id + 1] -
                                              graph.offsets[id]));
  };
  BeamScratch scratch(static_cast<size_t>(graph.num_nodes));
  std::vector<Candidate> expanded;
  BeamSearch(graph.entry_point, window, neighbors_of, query_keys, store,
             GetScanKernels(ResolveKernels(KernelDispatch::kAuto)), &scratch,
             &expanded);
  // Verification set: every expanded node (in expansion order) plus any
  // window survivor the loop never got to expand (in window order) — all
  // distance-computed nodes the search considered worth keeping. Expanded
  // ids are distinct; re-stamping them marks the survivors already emitted.
  const uint32_t emitted = scratch.epoch + 1;
  std::vector<uint32_t> out;
  out.reserve(expanded.size() + scratch.window.size());
  for (const Candidate& c : expanded) {
    out.push_back(c.second);
    scratch.stamp[c.second] = emitted;
  }
  std::sort(scratch.window.begin(), scratch.window.end());
  for (const Candidate& c : scratch.window) {
    if (scratch.stamp[c.second] != emitted) out.push_back(c.second);
  }
  return out;
}

namespace {

template <typename T>
void AppendScalar(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

std::string SerializeProximityGraph(const ProximityGraph& graph) {
  std::string out;
  const uint64_t num_nodes = graph.num_nodes();
  const uint64_t num_edges = graph.neighbors.size();
  out.reserve(32 + (num_nodes + 1) * sizeof(uint64_t) +
              num_edges * sizeof(uint32_t));
  AppendScalar<uint32_t>(&out, kAnnGraphFormatVersion);
  AppendScalar<uint32_t>(&out, graph.degree_bound);
  AppendScalar<uint32_t>(&out, graph.entry_point);
  AppendScalar<uint32_t>(&out, 0);  // reserved
  AppendScalar<uint64_t>(&out, num_nodes);
  AppendScalar<uint64_t>(&out, num_edges);
  out.append(reinterpret_cast<const char*>(graph.offsets.data()),
             graph.offsets.size() * sizeof(uint64_t));
  out.append(reinterpret_cast<const char*>(graph.neighbors.data()),
             graph.neighbors.size() * sizeof(uint32_t));
  return out;
}

Result<ProximityGraphRef> ParseProximityGraphSection(
    const void* data, size_t length, uint64_t expected_nodes,
    const std::string& source) {
  const auto fail = [&source](const std::string& what) {
    return Status::InvalidArgument(source + ": ann_graph section " + what);
  };
  if (reinterpret_cast<uintptr_t>(data) % alignof(uint64_t) != 0) {
    return fail("payload is not 8-byte aligned");
  }
  constexpr size_t kHeaderBytes = 32;
  if (length < kHeaderBytes) return fail("truncated header");
  const char* bytes = static_cast<const char*>(data);
  uint32_t format = 0, degree = 0, entry = 0, reserved = 0;
  uint64_t num_nodes = 0, num_edges = 0;
  std::memcpy(&format, bytes, sizeof(format));
  std::memcpy(&degree, bytes + 4, sizeof(degree));
  std::memcpy(&entry, bytes + 8, sizeof(entry));
  std::memcpy(&reserved, bytes + 12, sizeof(reserved));
  std::memcpy(&num_nodes, bytes + 16, sizeof(num_nodes));
  std::memcpy(&num_edges, bytes + 24, sizeof(num_edges));
  if (format != kAnnGraphFormatVersion) {
    return Status::NotSupported(source + ": ann_graph format version " +
                                std::to_string(format) +
                                " (this build reads version " +
                                std::to_string(kAnnGraphFormatVersion) + ")");
  }
  if (num_nodes != expected_nodes) {
    return fail("covers " + std::to_string(num_nodes) +
                " nodes but the artifact holds " +
                std::to_string(expected_nodes) + " graphs");
  }
  // Overflow-safe exact-length check: both counts are bounded before the
  // multiplications can wrap.
  constexpr uint64_t kMaxCount = uint64_t{1} << 48;
  if (num_nodes >= kMaxCount || num_edges >= kMaxCount) {
    return fail("has an implausible node/edge count");
  }
  const uint64_t want = kHeaderBytes + (num_nodes + 1) * sizeof(uint64_t) +
                        num_edges * sizeof(uint32_t);
  if (want != length) {
    return fail("length " + std::to_string(length) + " does not match its " +
                std::to_string(num_nodes) + " nodes / " +
                std::to_string(num_edges) + " edges");
  }
  ProximityGraphRef ref;
  ref.offsets = reinterpret_cast<const uint64_t*>(bytes + kHeaderBytes);
  ref.neighbors = reinterpret_cast<const uint32_t*>(
      bytes + kHeaderBytes + (num_nodes + 1) * sizeof(uint64_t));
  ref.num_nodes = num_nodes;
  ref.num_edges = num_edges;
  ref.entry_point = entry;
  ref.degree_bound = degree;
  if (num_nodes == 0) {
    if (ref.offsets[0] != 0 || num_edges != 0 || entry != 0) {
      return fail("is empty but carries edges or an entry point");
    }
    return ref;
  }
  if (entry >= num_nodes) return fail("entry point out of range");
  if (ref.offsets[0] != 0) return fail("offsets do not start at 0");
  for (uint64_t i = 0; i < num_nodes; ++i) {
    if (ref.offsets[i + 1] < ref.offsets[i]) {
      return fail("offsets are not nondecreasing");
    }
  }
  if (ref.offsets[num_nodes] != num_edges) {
    return fail("offsets do not end at the edge count");
  }
  for (uint64_t e = 0; e < num_edges; ++e) {
    if (ref.neighbors[e] >= num_nodes) {
      return fail("neighbor id out of range");
    }
  }
  return ref;
}

}  // namespace gbda
