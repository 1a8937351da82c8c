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

}  // namespace

// FNV-1a over the branch's root label and ascending edge-label multiset
// (see the header contract).
uint64_t BranchFingerprint(LabelId root, const LabelId* edge_labels,
                           size_t count) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  // +1 keeps label id 0 from hashing like "no label".
  mix(static_cast<uint64_t>(root) + 1);
  for (size_t i = 0; i < count; ++i) {
    mix(static_cast<uint64_t>(edge_labels[i]) + 1);
  }
  return h;
}

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
  FilterProfile p;
  p.num_vertices = static_cast<int64_t>(branches.size());
  p.vertex_labels.reserve(branches.size());
  size_t num_endpoints = 0;
  for (size_t i = 0; i < branches.size(); ++i) {
    num_endpoints += branches.edge_labels(i).size();
  }
  std::vector<LabelId> endpoint_labels;  // each edge label once per endpoint
  endpoint_labels.reserve(num_endpoints);
  for (size_t i = 0; i < branches.size(); ++i) {
    // A multiset is sorted by root first, so the roots arrive ascending.
    p.vertex_labels.push_back(branches.root(i));
    const Span<const LabelId> labels = branches.edge_labels(i);
    endpoint_labels.insert(endpoint_labels.end(), labels.begin(), labels.end());
  }
  std::sort(endpoint_labels.begin(), endpoint_labels.end());
  p.edge_labels.reserve(endpoint_labels.size() / 2);
  for (size_t i = 0; i < endpoint_labels.size(); i += 2) {
    p.edge_labels.push_back(endpoint_labels[i]);
  }
  p.num_edges = static_cast<int64_t>(p.edge_labels.size());
  return p;
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
  profiles_.reserve(index.num_graphs());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    profiles_.push_back(BuildFilterProfile(index.branch_set(i)));
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
