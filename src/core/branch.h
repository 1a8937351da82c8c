#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/span.h"
#include "graph/graph.h"

namespace gbda {

/// A branch B(v) = {L(v), N(v)} (Definition 2): the label of vertex v plus
/// the sorted multiset of labels of its incident edges. Virtual (epsilon)
/// edges do not actually exist and are excluded from N(v); a virtual vertex
/// contributes a branch rooted at the virtual label.
struct Branch {
  LabelId root = kVirtualLabel;
  std::vector<LabelId> edge_labels;  // ascending

  /// Branch isomorphism (Definition 3) is exact equality of root label and
  /// edge-label multiset; the lexicographic order is the storage order of the
  /// branch multiset (the paper's std::lexicographical_compare ordering).
  bool operator==(const Branch& o) const {
    return root == o.root && edge_labels == o.edge_labels;
  }
  bool operator!=(const Branch& o) const { return !(*this == o); }
  bool operator<(const Branch& o) const {
    return std::tie(root, edge_labels) < std::tie(o.root, o.edge_labels);
  }
  bool operator>(const Branch& o) const { return o < *this; }
  bool operator<=(const Branch& o) const { return !(o < *this); }
  bool operator>=(const Branch& o) const { return !(*this < o); }
};

/// The sorted multiset B_G of all branches of a graph, stored as an ascending
/// vector. Precomputed once per graph and reused by every GBD evaluation, as
/// Section III prescribes for fair efficiency comparisons.
using BranchMultiset = std::vector<Branch>;

/// Non-owning view of one sorted branch multiset, the unit the scan contract
/// (core/index_reader.h) hands to GBD evaluation. Two backings share one
/// code path:
///   - owned: a BranchMultiset held by a GbdaIndex;
///   - flat:  arena slices of a mapped v3 artifact (storage/index_view.h) —
///     parallel root / label-offset arrays plus a shared label pool, read in
///     place with zero deserialization.
/// Both present branch i as (root label, ascending edge-label span), and the
/// comparisons below are the exact (root, edge_labels) lexicographic order of
/// Branch::operator<, so GBD computed through a view is bit-identical to GBD
/// computed from the owning multisets. The viewed storage must outlive the
/// ref.
class BranchSetRef {
 public:
  /// Empty multiset (e.g. ScanContext::query_ref before PrepareScan sets it).
  BranchSetRef() = default;
  /// View over an owned multiset.
  explicit BranchSetRef(const BranchMultiset& owned)
      : owned_(&owned), size_(owned.size()) {}
  /// View over a flat arena: `label_offsets` holds size + 1 absolute offsets
  /// into `label_pool` (entry i / i+1 bound branch i's edge labels); offsets
  /// must be nondecreasing and in bounds (the artifact loader validates this
  /// once at open, so per-branch access is unchecked).
  BranchSetRef(const uint32_t* roots, const uint64_t* label_offsets,
               const LabelId* label_pool, size_t size)
      : roots_(roots),
        label_offsets_(label_offsets),
        label_pool_(label_pool),
        size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  LabelId root(size_t i) const {
    return owned_ ? (*owned_)[i].root : roots_[i];
  }
  Span<const LabelId> edge_labels(size_t i) const {
    if (owned_) {
      const std::vector<LabelId>& v = (*owned_)[i].edge_labels;
      return Span<const LabelId>(v.data(), v.size());
    }
    return Span<const LabelId>(
        label_pool_ + label_offsets_[i],
        static_cast<size_t>(label_offsets_[i + 1] - label_offsets_[i]));
  }

  /// Raw backing, for the specialized merge loops in branch.cc (the scan's
  /// innermost hot path dispatches once per multiset pair instead of per
  /// branch access). owned() is nullptr for flat and empty refs.
  const BranchMultiset* owned() const { return owned_; }
  const uint32_t* flat_roots() const { return roots_; }
  const uint64_t* flat_label_offsets() const { return label_offsets_; }
  const LabelId* flat_label_pool() const { return label_pool_; }

 private:
  const BranchMultiset* owned_ = nullptr;
  const uint32_t* roots_ = nullptr;
  const uint64_t* label_offsets_ = nullptr;
  const LabelId* label_pool_ = nullptr;
  size_t size_ = 0;
};

/// Extracts the sorted branch multiset of `g` in O(sum of degrees + n log n).
BranchMultiset ExtractBranches(const Graph& g);

/// |A ∩ B| for two sorted branch multisets (two-pointer merge,
/// O(|A| + |B|) branch comparisons).
size_t BranchIntersectionSize(const BranchMultiset& a, const BranchMultiset& b);

/// |A ∩ B| over views — the same merge and the same comparison order as the
/// owned overload, so mixed owned/flat pairs (a decoded query against a
/// mapped candidate) count intersections bit-identically.
size_t BranchIntersectionSize(const BranchSetRef& a, const BranchSetRef& b);

/// Graph Branch Distance (Definition 4):
///   GBD(G1,G2) = max(|V1|, |V2|) - |B_G1 ∩ B_G2|.
size_t Gbd(const Graph& g1, const Graph& g2);

/// GBD from precomputed multisets (|B_G| = |V| for ordinary graphs).
size_t GbdFromBranches(const BranchMultiset& b1, const BranchMultiset& b2);
size_t GbdFromBranches(const BranchSetRef& b1, const BranchSetRef& b2);

/// Variant GBD of GBDA-V2 (Eq. 26):
///   VGBD(G1,G2) = max(|V1|,|V2|) - w * |B_G1 ∩ B_G2|, w user-defined.
double Vgbd(const BranchMultiset& b1, const BranchMultiset& b2, double w);
double Vgbd(const BranchSetRef& b1, const BranchSetRef& b2, double w);

/// Branch-based lower bound on GED in the style of Zheng et al. [15]: the
/// optimal assignment between the two branch multisets (padded with empty
/// virtual branches) under the cost
///   cost(b1, b2) = [root1 != root2] + (max(|N1|,|N2|) - |N1 ∩ N2|) / 2,
/// solved exactly with the Hungarian algorithm. Each edge edit touches two
/// branches and each vertex edit one, so the assignment cost never exceeds
/// GED; the returned value is floor-compatible: LB <= GED(G1,G2).
double BranchGedLowerBound(const Graph& g1, const Graph& g2);

}  // namespace gbda
