#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/serialize.h"
#include "common/span.h"
#include "common/thread_annotations.h"
#include "core/lambda1.h"

namespace gbda {

/// Largest tau_max any persisted artifact may claim. Shared by the index
/// and GED-prior decoders — the index loader cross-checks the two headers
/// for equality, so the bounds must never diverge. The bound reflects what
/// a loaded table can afford to compute, not just integer plausibility:
/// each extended size's Lambda1 matrix takes O(tau^2) memory, O(tau^3)
/// Omega4 evaluations and O(tau^4) multiply-adds, so an unbounded hostile
/// tau_max would turn the first query into an OOM or an effective hang (at
/// 1024 one matrix is ~17 MB; the paper uses tau <= 30).
inline constexpr int64_t kMaxPlausibleTau = 1024;

/// Jeffreys prior over GED values (Lambda3, Section V-C / Eq. 16).
///
/// For each extended-graph size v the table stores
///   Pr[GED = tau | v]  proportional to  sqrt( sum_phi Lambda1(tau,phi) * Z(tau,phi)^2 ),
/// where Z = d/dtau ln Lambda1 — the square root of the Fisher information of
/// the Lambda1 family, the textbook Jeffreys construction. Z is evaluated by
/// the centred difference of ln Lambda1 over integer tau (one-sided at the
/// boundaries); the paper's printed closed forms (Eqs. 36-41) contain typos,
/// see docs/ARCHITECTURE.md. Rows are normalised per v so sum_tau Pr[GED = tau] = 1
/// (the paper's 1/(k1 k2) constant does not normalise the distribution).
///
/// Rows are built lazily per distinct v and cached (the paper precomputes all
/// v in [1, n]; EagerBuild does the same when asked). A row is derived from
/// the size's Lambda1 matrix at tau_max + 1 levels (the centred difference
/// needs tau_max + 1), which the table memoises per v and also serves
/// Lambda1 columns from. Thread-safe.
class GedPriorTable {
 public:
  GedPriorTable(int64_t num_vertex_labels, int64_t num_edge_labels,
                int64_t tau_max);

  /// Movable (the mutex is not moved; the source must be quiescent — the
  /// analysis opt-out below is exactly that documented contract: no other
  /// thread may touch `other` during the move, so its guard is moot).
  GedPriorTable(GedPriorTable&& other) noexcept GBDA_NO_THREAD_SAFETY_ANALYSIS
      : num_vertex_labels_(other.num_vertex_labels_),
        num_edge_labels_(other.num_edge_labels_),
        tau_max_(other.tau_max_),
        rows_(std::move(other.rows_)),
        lambda1_(std::move(other.lambda1_)) {}

  /// Pr[GED = tau | extended size v]; 0 for tau outside [0, tau_max].
  double Probability(int64_t tau, int64_t v);

  /// The full normalised row for size v (indexed by tau in [0, tau_max]).
  const std::vector<double>& Row(int64_t v);

  /// Precomputes rows for every v in `sizes` (deduplicated).
  void EagerBuild(const std::vector<int64_t>& sizes);

  /// Lambda1(tau, phi) for every tau in [0, tau_max] at size v (Eq. 8 / 27);
  /// all +0.0 past the support. Lambda1 has the rows' key and no dependence
  /// on Lambda2, so the column is read from the size's memoised matrix,
  /// shared by every PosteriorEngine on the table; the span stays valid for
  /// the table's lifetime. The matrices are not persisted nor counted by
  /// MemoryBytes.
  Span<double> Lambda1Column(int64_t v, int64_t phi);

  int64_t tau_max() const { return tau_max_; }
  int64_t num_vertex_labels() const { return num_vertex_labels_; }
  int64_t num_edge_labels() const { return num_edge_labels_; }
  size_t num_cached_rows() const;
  /// Extended sizes whose Lambda1 matrix is memoised.
  size_t num_cached_matrices() const;
  size_t MemoryBytes() const;

  void Serialize(BinaryWriter* writer) const;
  /// Rejects (InvalidArgument) a Lambda3 row entry that is negative or not
  /// finite, which would make every Phi of that size NaN.
  static Result<GedPriorTable> Deserialize(BinaryReader* reader);

 private:
  /// The Lambda1 matrix of size v at tau_max + 1 levels, built on first use.
  const Lambda1Calculator& Lambda1(int64_t v);
  std::vector<double> BuildRow(const Lambda1Calculator& lambda1) const;

  int64_t num_vertex_labels_;
  int64_t num_edge_labels_;
  int64_t tau_max_;
  mutable Mutex mutex_;
  /// Built entries are append-only and never mutated in place, so the
  /// references Row() and Lambda1() hand out stay valid outside the lock
  /// (an unordered_map does not move its values on insertion).
  std::unordered_map<int64_t, std::vector<double>> rows_
      GBDA_GUARDED_BY(mutex_);
  std::unordered_map<int64_t, Lambda1Calculator> lambda1_
      GBDA_GUARDED_BY(mutex_);
};

}  // namespace gbda
