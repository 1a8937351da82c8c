/// \file candidate_columns.h
/// The owned form of the SoA candidate columns (core/index_reader.h), the
/// graph offsets and the packed ids (a graph's size is its offsets delta):
/// the owned GbdaIndex's only store of branch ids, and so of every dynamic
/// snapshot's. GbdaIndex::Build lays them out as it interns the branches,
/// and each AddGraphs / RemoveGraphs lays out a fresh object in place of
/// the old one, so a reader never builds them. The v4 arena writer
/// (storage/index_arena.cc) persists the same layout, with the ids
/// renumbered in content order, which a fresh Build's ids already are.
/// See docs/ARCHITECTURE.md, "Scan kernels & column layout".

#pragma once

#include <cstdint>
#include <vector>

#include "core/index_reader.h"

namespace gbda {

/// Heap-owning candidate columns plus the accessor that views them through
/// the non-owning CandidateColumns contract.
struct OwnedCandidateColumns {
  std::vector<uint64_t> fp_offsets;  // [num_graphs + 1]
  std::vector<uint64_t> fp_keys;     // per-graph ascending ids, packed

  CandidateColumns View() const {
    CandidateColumns c;
    c.fp_offsets = fp_offsets.data();
    c.fp_keys = fp_keys.data();
    return c;
  }
};

}  // namespace gbda
