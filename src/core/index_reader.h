/// \file index_reader.h
/// The read surface of a GBDA index — the contract the online scan
/// (PrepareScan / ScanRange), the posterior-engine construction and the
/// serving layer consume. Two implementations exist:
///
///   - GbdaIndex (core/gbda_index.h): the heap-owning index the
///     offline stage builds and the dynamic corpus maintains incrementally;
///   - GbdaIndexView (storage/index_view.h): a non-owning view over a mapped
///     v4 arena artifact that serves the branch dictionary and the columns
///     in place, with zero deserialization (docs/ARCHITECTURE.md, "Storage
///     engine").
///
/// Both hold a graph as the ascending ids of its branches (its slice of
/// columns().fp_keys) and the branches themselves once each, in the
/// dictionary (core/branch_dictionary.h).
///
/// Everything downstream of the offline stage — GbdaSearch and every
/// serving snapshot (a frozen GbdaService's one, each DynamicGbdaService
/// generation) — speaks this interface, so an owned index and a mapped
/// artifact are interchangeable and bit-identical in query results.
/// Implementations must be internally synchronized for concurrent readers
/// (branch data immutable; GedPriorTable locks its lazy row cache).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/branch_dictionary.h"

namespace gbda {

class GbdPrior;
class GedPriorTable;
struct GbdaIndexOptions;

/// The structure-of-arrays candidate columns the scan kernels
/// (common/kernels.h) feed on — every graph's branch ids laid out
/// contiguously, delimited by one offsets column, so a candidate's ids are
/// one slice instead of a per-graph pointer chase (docs/ARCHITECTURE.md,
/// "Scan kernels & column layout"). A graph's size, its branch count (=
/// |V_g| for ordinary graphs), is its slice length: fp_offsets[g + 1] -
/// fp_offsets[g]. Two backings share this one view:
///
///   - a mapped v4 arena exposes its sections in place (64-byte aligned by
///     the format; storage/index_view.h);
///   - an owned GbdaIndex (and thus every dynamic snapshot) holds them as
///     its only store of branch ids, laid out by Build and by each
///     mutation (core/candidate_columns.h).
///
/// All pointers are non-owning; they stay valid while the index lives and
/// is not mutated. The names say "fp" for fingerprint, which the keys were
/// before the dictionary; they now hold dictionary ids.
struct CandidateColumns {
  /// fp_offsets[g] .. fp_offsets[g+1] bound graph g's ids in fp_keys;
  /// num_graphs() + 1 entries.
  const uint64_t* fp_offsets = nullptr;
  /// One packed blob of per-graph ASCENDING branch ids (dictionary() ids,
  /// each < dictionary().size()); total-branch entries.
  const uint64_t* fp_keys = nullptr;

  /// Both column pointers are non-null. False only for a backing with no
  /// branches to describe (e.g. a zero-graph owned index, whose fp_keys
  /// vector is empty); every range a scan would read through a null
  /// pointer there is empty.
  bool present() const { return fp_offsets != nullptr && fp_keys != nullptr; }
};

class IndexReader {
 public:
  virtual ~IndexReader() = default;

  /// Indexed graphs (dense scan range is [0, num_graphs())).
  virtual size_t num_graphs() const = 0;
  /// Mutations absorbed since Lambda2 was last fit (always 0 for persisted
  /// artifacts: the arena writer refuses to encode a drifted prior).
  virtual size_t gbd_staleness() const = 0;

  /// The SoA candidate columns of this backing (see CandidateColumns).
  /// Safe for concurrent readers. Graph g's branch ids are
  /// fp_keys[fp_offsets[g] .. fp_offsets[g + 1]).
  virtual CandidateColumns columns() const = 0;

  /// The root and edge labels of every id the columns hold. Immutable.
  virtual const BranchDictionary& dictionary() const = 0;

  /// The offline-stage options this index was built with (persisted by the
  /// arena so a reopened index refits Lambda2 with Build's exact
  /// arithmetic).
  virtual const GbdaIndexOptions& options() const = 0;

  virtual int64_t tau_max() const = 0;
  virtual int64_t num_vertex_labels() const = 0;
  virtual int64_t num_edge_labels() const = 0;
  /// Mean vertex count over the graphs (the GBDA-V1 size estimate's
  /// database-level analogue; persisted in the arena header).
  virtual double avg_vertices() const = 0;

  /// The GMM prior of GBD values (Lambda2). Immutable and shared.
  virtual const GbdPrior& gbd_prior() const = 0;
  /// The Jeffreys prior table (Lambda3) and the Lambda1 matrices it memoises.
  /// Non-const because both build lazily at query time; the table is
  /// internally synchronized, so every PosteriorEngine over it and every
  /// thread share it.
  virtual GedPriorTable* mutable_ged_prior() const = 0;
};

}  // namespace gbda
