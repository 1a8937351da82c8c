/// \file index_reader.h
/// The read surface of a GBDA index — the contract the online scan
/// (PrepareScan / ScanRange), the posterior-engine construction and the
/// serving layer consume. Two implementations exist:
///
///   - GbdaIndex (core/gbda_index.h): the heap-owning index the
///     offline stage builds and the dynamic corpus maintains incrementally;
///   - GbdaIndexView (storage/index_view.h): a non-owning view over a mapped
///     v3 arena artifact that serves branch multisets in place, with zero
///     deserialization (docs/ARCHITECTURE.md, "Storage engine").
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

#include "core/branch.h"

namespace gbda {

class GbdPrior;
class GedPriorTable;
struct GbdaIndexOptions;

/// The structure-of-arrays candidate columns the batched scan kernels
/// (common/kernels.h) feed on — per-graph scalars and fingerprint keys laid
/// out contiguously so a shard's candidates are evaluated as column sweeps
/// instead of per-graph pointer chases (docs/ARCHITECTURE.md, "Scan kernels
/// & column layout"). Two backings share this one view:
///
///   - a mapped v3 arena exposes its column sections in place (64-byte
///     aligned by the format; storage/index_view.h);
///   - an owned GbdaIndex (and thus every dynamic snapshot) materialises
///     the same columns on the fly from its branch multisets, lazily and
///     once (core/candidate_columns.h).
///
/// All pointers are non-owning; they stay valid while the index lives and
/// is not mutated (the same lifetime branch_set() refs have). Every backing
/// provides sizes, fp_offsets and fp_keys — the arena makes sections 8..10
/// mandatory — and they are the scan's only candidate-side fingerprint
/// copy. Only the exactness directory is optional.
struct CandidateColumns {
  /// sizes[g] = |B_g| (= |V_g| for ordinary graphs), the branch count of
  /// graph g; num_graphs() entries. The tier-1 size-bound column.
  const uint32_t* sizes = nullptr;
  /// fp_offsets[g] .. fp_offsets[g+1] bound graph g's keys in fp_keys;
  /// num_graphs() + 1 entries, identical to the branch_start table (one
  /// fingerprint per branch).
  const uint64_t* fp_offsets = nullptr;
  /// One packed blob of per-graph ASCENDING branch-fingerprint keys
  /// (BranchFingerprint, core/prefilter.h: FNV-1a over root + ascending
  /// edge-label multiset); total-branch entries.
  const uint64_t* fp_keys = nullptr;
  /// Optional collision directory certifying fingerprint EXACTNESS for this
  /// corpus: fp_unique is the ascending set of distinct fingerprints over
  /// every corpus branch, fp_rep[i] packs a representative branch holding
  /// fp_unique[i] as (graph_id << 32 | branch_index). The directory is
  /// emitted only when the fingerprint -> branch-content mapping is
  /// INJECTIVE corpus-wide, so a query whose own branches also pass the
  /// collision audit (PrepareScan) may compute exact branch intersections
  /// as fingerprint intersections. nullptr when the corpus has a collision
  /// (astronomically rare at 64 bits) or the artifact omits the directory.
  const uint64_t* fp_unique = nullptr;
  const uint64_t* fp_rep = nullptr;
  uint64_t num_distinct = 0;

  /// All three column pointers are non-null. False only for a backing
  /// with no branches to describe (e.g. a zero-graph owned index, whose
  /// column vectors are empty); every range a scan would read through a
  /// null pointer there is empty.
  bool present() const {
    return sizes != nullptr && fp_offsets != nullptr && fp_keys != nullptr;
  }
  /// The corpus additionally certifies collision-free fingerprints, so
  /// fingerprint intersections of audited queries are exact.
  bool exactness_certified() const {
    return present() && fp_unique != nullptr && fp_rep != nullptr;
  }
};

class IndexReader {
 public:
  virtual ~IndexReader() = default;

  /// Total id slots (dense scan range is [0, num_graphs())).
  virtual size_t num_graphs() const = 0;
  /// Live (non-tombstoned) slots; frozen consumers require
  /// num_live() == num_graphs().
  virtual size_t num_live() const = 0;
  /// Mutations absorbed since Lambda2 was last fit (always 0 for persisted
  /// artifacts: the arena writer refuses to encode a drifted prior).
  virtual size_t gbd_staleness() const = 0;

  /// The branch multiset of graph `id` as a non-owning view; empty for a
  /// tombstoned slot. Valid while the index outlives the ref.
  virtual BranchSetRef branch_set(size_t id) const = 0;

  /// The SoA candidate columns of this backing (see CandidateColumns).
  /// Implementations must keep this safe for concurrent readers; returned
  /// pointers follow branch_set()'s lifetime rules.
  virtual CandidateColumns columns() const = 0;

  /// The offline-stage options this index was built with (persisted by the
  /// arena so a reopened index refits Lambda2 with Build's exact
  /// arithmetic).
  virtual const GbdaIndexOptions& options() const = 0;

  virtual int64_t tau_max() const = 0;
  virtual int64_t num_vertex_labels() const = 0;
  virtual int64_t num_edge_labels() const = 0;
  /// Mean vertex count over live graphs (the GBDA-V1 size estimate's
  /// database-level analogue; persisted in the arena header).
  virtual double avg_vertices() const = 0;

  /// The GMM prior of GBD values (Lambda2). Immutable and shared.
  virtual const GbdPrior& gbd_prior() const = 0;
  /// The Jeffreys prior table (Lambda3) and the Lambda1 columns it memoises.
  /// Non-const because both build lazily at query time; the table is
  /// internally synchronized, so every PosteriorEngine over it and every
  /// thread share it.
  virtual GedPriorTable* mutable_ged_prior() const = 0;
};

}  // namespace gbda
