#include "core/prefilter.h"

#include <algorithm>
#include <cmath>

namespace gbda {
namespace {

int64_t SortedMultisetDistance(const std::vector<LabelId>& a,
                               const std::vector<LabelId>& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return static_cast<int64_t>(std::max(a.size(), b.size()) - common);
}

/// The profile of the branches at(0), ..., at(n - 1) of `entries`. The
/// roots arrive ascending unless a graph holds ids appended out of content
/// order (dynamic commits), so they are sorted only then.
template <typename At>
FilterProfile ProfileOfBranches(const BranchSetRef& entries, size_t n, At at) {
  FilterProfile p;
  p.num_vertices = static_cast<int64_t>(n);
  p.vertex_labels.reserve(n);
  size_t num_endpoints = 0;
  for (size_t i = 0; i < n; ++i) {
    num_endpoints += entries.edge_labels(at(i)).size();
  }
  std::vector<LabelId> endpoint_labels;  // each edge label once per endpoint
  endpoint_labels.reserve(num_endpoints);
  for (size_t i = 0; i < n; ++i) {
    p.vertex_labels.push_back(entries.root(at(i)));
    const Span<const LabelId> labels = entries.edge_labels(at(i));
    endpoint_labels.insert(endpoint_labels.end(), labels.begin(), labels.end());
  }
  if (!std::is_sorted(p.vertex_labels.begin(), p.vertex_labels.end())) {
    std::sort(p.vertex_labels.begin(), p.vertex_labels.end());
  }
  std::sort(endpoint_labels.begin(), endpoint_labels.end());
  p.edge_labels.reserve(endpoint_labels.size() / 2);
  for (size_t i = 0; i < endpoint_labels.size(); i += 2) {
    p.edge_labels.push_back(endpoint_labels[i]);
  }
  p.num_edges = static_cast<int64_t>(p.edge_labels.size());
  return p;
}

}  // namespace

FilterProfile BuildFilterProfile(const Graph& g) {
  FilterProfile p;
  p.num_vertices = static_cast<int64_t>(g.num_vertices());
  p.vertex_labels.reserve(g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    p.vertex_labels.push_back(g.VertexLabel(v));
  }
  std::sort(p.vertex_labels.begin(), p.vertex_labels.end());
  p.edge_labels.reserve(g.num_edges());
  // Epsilon edges do not exist (Definition 2) and no branch holds them, so
  // they are skipped to keep this derivation equal to the branch one.
  for (const Graph::EdgeTriple& e : g.SortedEdges()) {
    if (e.label != kVirtualLabel) p.edge_labels.push_back(e.label);
  }
  std::sort(p.edge_labels.begin(), p.edge_labels.end());
  p.num_edges = static_cast<int64_t>(p.edge_labels.size());
  return p;
}

FilterProfile BuildFilterProfile(const BranchSetRef& branches) {
  return ProfileOfBranches(branches, branches.size(),
                           [](size_t i) { return i; });
}

FilterProfile BuildFilterProfile(Span<const uint64_t> ids,
                                 const BranchDictionary& dictionary) {
  return ProfileOfBranches(dictionary.entries(), ids.size(),
                           [&ids](size_t i) { return ids[i]; });
}

int64_t FilterLowerBound(const FilterProfile& a, const FilterProfile& b) {
  // Size layer: AV/DV change |V| by one, AE/DE change |E| by one.
  const int64_t dv = std::llabs(a.num_vertices - b.num_vertices);
  const int64_t de = std::llabs(a.num_edges - b.num_edges);
  // Label layer: every operation fixes at most one label mismatch of one
  // kind, and vertex/edge operations are disjoint, so the sum is admissible.
  const int64_t labels =
      SortedMultisetDistance(a.vertex_labels, b.vertex_labels) +
      SortedMultisetDistance(a.edge_labels, b.edge_labels);
  return std::max({dv, de, labels});
}

Prefilter::Prefilter(const GraphDatabase* db) {
  profiles_.reserve(db->size());
  for (size_t i = 0; i < db->size(); ++i) {
    profiles_.push_back(BuildFilterProfile(db->graph(i)));
  }
}

Prefilter::Prefilter(const IndexReader& index) {
  const CandidateColumns columns = index.columns();
  profiles_.reserve(index.num_graphs());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    const uint64_t lo = columns.fp_offsets[i];
    const size_t n = static_cast<size_t>(columns.fp_offsets[i + 1] - lo);
    profiles_.push_back(BuildFilterProfile(
        Span<const uint64_t>(columns.fp_keys + lo, n), index.dictionary()));
  }
}

std::vector<size_t> Prefilter::Candidates(const Graph& query,
                                          int64_t tau) const {
  const FilterProfile query_profile = BuildFilterProfile(query);
  std::vector<size_t> out;
  for (size_t id = 0; id < profiles_.size(); ++id) {
    if (Passes(query_profile, id, tau)) out.push_back(id);
  }
  return out;
}

bool Prefilter::Passes(const FilterProfile& query_profile, size_t id,
                       int64_t tau) const {
  const FilterProfile& g = profiles_[id];
  // Cheapest checks first: the size layer is O(1).
  if (std::llabs(query_profile.num_vertices - g.num_vertices) > tau) {
    return false;
  }
  if (std::llabs(query_profile.num_edges - g.num_edges) > tau) return false;
  return FilterLowerBound(query_profile, g) <= tau;
}

size_t Prefilter::MemoryBytes() const {
  size_t bytes = sizeof(Prefilter);
  for (const FilterProfile& p : profiles_) {
    bytes += sizeof(FilterProfile) +
             p.vertex_labels.capacity() * sizeof(LabelId) +
             p.edge_labels.capacity() * sizeof(LabelId);
  }
  return bytes;
}

}  // namespace gbda
