/// \file candidate_columns.h
/// The owned form of the SoA candidate columns (core/index_reader.h): an
/// owned GbdaIndex — including every dynamic snapshot — concatenates its
/// per-graph id vectors into them lazily on first use. The v4 arena writer
/// (storage/index_arena.cc) persists the same layout, with the ids
/// renumbered in content order, which a fresh Build's ids already are.
/// See docs/ARCHITECTURE.md, "Scan kernels & column layout".

#pragma once

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "core/index_reader.h"

namespace gbda {

/// Heap-owning candidate columns plus the accessor that views them through
/// the non-owning CandidateColumns contract.
struct OwnedCandidateColumns {
  std::vector<uint32_t> sizes;       // [num_graphs]
  std::vector<uint64_t> fp_offsets;  // [num_graphs + 1]
  std::vector<uint64_t> fp_keys;     // per-graph ascending ids, packed

  CandidateColumns View() const {
    CandidateColumns c;
    c.sizes = sizes.data();
    c.fp_offsets = fp_offsets.data();
    c.fp_keys = fp_keys.data();
    return c;
  }
};

/// Concatenates the graphs' ascending id multisets, in order, into the
/// columns. O(total branches).
OwnedCandidateColumns BuildCandidateColumns(
    const std::vector<Span<const uint64_t>>& graph_ids);

}  // namespace gbda
