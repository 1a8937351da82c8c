/// \file candidate_columns.h
/// The owned form of the SoA candidate columns (core/index_reader.h) and
/// the one materialisation routine every backing shares: the v3 arena
/// writer persists exactly what BuildCandidateColumns computes
/// (storage/index_arena.cc), and an owned GbdaIndex — including every
/// dynamic snapshot — materialises the same columns lazily on first use.
/// One deterministic function of the branch data, so an artifact's columns
/// and an on-the-fly build are bit-identical — the property the
/// cross-backing equivalence suites rest on.
/// See docs/ARCHITECTURE.md, "Scan kernels & column layout".

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/index_reader.h"

namespace gbda {

/// Content equality of two branches given as (root, edge-label span) —
/// branch isomorphism (Definition 3). Used by the corpus-side collision
/// audit here and by the query-side audit in PrepareScan.
inline bool SameBranchContent(const BranchSetRef& a, size_t ai,
                              const BranchSetRef& b, size_t bi) {
  if (a.root(ai) != b.root(bi)) return false;
  const Span<const LabelId> la = a.edge_labels(ai);
  const Span<const LabelId> lb = b.edge_labels(bi);
  return la.size() == lb.size() && std::equal(la.begin(), la.end(), lb.begin());
}

/// Heap-owning candidate columns plus the accessor that views them through
/// the non-owning CandidateColumns contract.
struct OwnedCandidateColumns {
  std::vector<uint32_t> sizes;       // [num_graphs]
  std::vector<uint64_t> fp_offsets;  // [num_graphs + 1], == branch_start
  std::vector<uint64_t> fp_keys;     // per-graph ascending, packed
  /// Collision directory (empty vectors when `certified` is false): the
  /// ascending distinct fingerprints and, parallel to them, one
  /// representative branch each, packed (graph_id << 32 | branch_index).
  std::vector<uint64_t> fp_unique;
  std::vector<uint64_t> fp_rep;
  /// True when the fingerprint -> branch-content mapping is injective over
  /// the whole corpus (see CandidateColumns::exactness_certified).
  bool certified = false;

  CandidateColumns View() const {
    CandidateColumns c;
    c.sizes = sizes.data();
    c.fp_offsets = fp_offsets.data();
    c.fp_keys = fp_keys.data();
    if (certified) {
      c.fp_unique = fp_unique.data();
      c.fp_rep = fp_rep.data();
      c.num_distinct = fp_unique.size();
    }
    return c;
  }
};

/// Materialises the columns from any IndexReader's branch data: per-graph
/// branch counts, per-graph sorted FNV branch fingerprints, and — when the
/// corpus-wide fingerprint -> content audit finds no collision — the
/// exactness directory. O(total branches) plus one hash probe per branch;
/// deterministic in the branch data alone.
OwnedCandidateColumns BuildCandidateColumns(const IndexReader& index);

}  // namespace gbda
