#include "core/ged_prior.h"

#include <algorithm>
#include <cmath>

#include "math/log_combinatorics.h"

namespace gbda {

GedPriorTable::GedPriorTable(int64_t num_vertex_labels, int64_t num_edge_labels,
                             int64_t tau_max)
    : num_vertex_labels_(num_vertex_labels),
      num_edge_labels_(num_edge_labels),
      tau_max_(tau_max) {}

std::vector<double> GedPriorTable::BuildRow(
    const Lambda1Calculator& lambda1) const {
  // The matrix has one extra tau level, so the centred difference has a
  // right neighbour at tau = tau_max. Column by column, phi ascending: each
  // ln Lambda1 is taken once, and each Fisher sum adds its phi terms in
  // ascending order.
  const int64_t tau_hi = tau_max_ + 1;
  // weights[tau] sums the Fisher information, then takes its square root.
  std::vector<double> weights(static_cast<size_t>(tau_max_ + 1), 0.0);
  std::vector<double> logs(static_cast<size_t>(tau_hi + 1));
  for (int64_t phi = 0; phi <= 2 * tau_hi; ++phi) {
    const Span<double> column = lambda1.Column(phi);
    for (size_t tau = 0; tau < logs.size(); ++tau) {
      logs[tau] = column[tau] > 0.0 ? std::log(column[tau]) : NegInf();
    }
    for (size_t tau = 0; tau < weights.size(); ++tau) {
      const double p = column[tau];
      if (p <= 0.0) continue;
      // Z = d/dtau ln Lambda1 by centred difference, one-sided when a
      // neighbour has zero mass at this phi.
      const double here = logs[tau];
      const double left = tau > 0 ? logs[tau - 1] : NegInf();
      const double right = logs[tau + 1];
      double z;
      const bool has_left = !std::isinf(left);
      const bool has_right = !std::isinf(right);
      if (has_left && has_right) {
        z = 0.5 * (right - left);
      } else if (has_right) {
        z = right - here;
      } else if (has_left) {
        z = here - left;
      } else {
        continue;  // isolated support point: no informative derivative
      }
      weights[tau] += p * z * z;
    }
  }

  for (double& w : weights) w = std::sqrt(std::max(w, 0.0));

  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    // Degenerate (e.g. v = 1 with tau beyond the slot count): fall back to a
    // uniform prior over the support of Lambda1.
    std::fill(weights.begin(), weights.end(),
              1.0 / static_cast<double>(tau_max_ + 1));
    return weights;
  }
  for (double& w : weights) w /= total;
  return weights;
}

double GedPriorTable::Probability(int64_t tau, int64_t v) {
  if (tau < 0 || tau > tau_max_) return 0.0;
  return Row(v)[static_cast<size_t>(tau)];
}

const std::vector<double>& GedPriorTable::Row(int64_t v) {
  {
    MutexLock lock(&mutex_);
    auto it = rows_.find(v);
    if (it != rows_.end()) return it->second;
  }
  std::vector<double> row = BuildRow(Lambda1(v));
  MutexLock lock(&mutex_);
  return rows_.emplace(v, std::move(row)).first->second;
}

void GedPriorTable::EagerBuild(const std::vector<int64_t>& sizes) {
  for (int64_t v : sizes) Row(v);
}

const Lambda1Calculator& GedPriorTable::Lambda1(int64_t v) {
  // As in Row(), the matrix is built outside the lock and inserted if
  // absent; a racing duplicate is identical and dropped.
  {
    MutexLock lock(&mutex_);
    auto it = lambda1_.find(v);
    if (it != lambda1_.end()) return it->second;
  }
  Lambda1Calculator built(
      MakeModelParams(std::max<int64_t>(v, 1), num_vertex_labels_,
                      num_edge_labels_),
      tau_max_ + 1);
  MutexLock lock(&mutex_);
  return lambda1_.emplace(v, std::move(built)).first->second;
}

Span<double> GedPriorTable::Lambda1Column(int64_t v, int64_t phi) {
  // The first tau_max + 1 entries of a column are the whole column of a
  // tau_max matrix: no entry at tau depends on the matrix's height.
  return Span<double>(Lambda1(v).Column(phi).data(),
                      static_cast<size_t>(tau_max_ + 1));
}

size_t GedPriorTable::num_cached_rows() const {
  MutexLock lock(&mutex_);
  return rows_.size();
}

size_t GedPriorTable::num_cached_matrices() const {
  MutexLock lock(&mutex_);
  return lambda1_.size();
}

size_t GedPriorTable::MemoryBytes() const {
  MutexLock lock(&mutex_);
  size_t bytes = sizeof(GedPriorTable);
  for (const auto& [v, row] : rows_) {
    (void)v;
    bytes += sizeof(int64_t) + row.capacity() * sizeof(double) + 64;
  }
  return bytes;
}

void GedPriorTable::Serialize(BinaryWriter* writer) const {
  MutexLock lock(&mutex_);
  writer->PutI64(num_vertex_labels_);
  writer->PutI64(num_edge_labels_);
  writer->PutI64(tau_max_);
  writer->PutU64(rows_.size());
  for (const auto& [v, row] : rows_) {
    writer->PutI64(v);
    writer->PutPodVector(row);
  }
}

Result<GedPriorTable> GedPriorTable::Deserialize(BinaryReader* reader) {
  Result<int64_t> lv = reader->GetI64();
  if (!lv.ok()) return lv.status();
  Result<int64_t> le = reader->GetI64();
  if (!le.ok()) return le.status();
  Result<int64_t> tau_max = reader->GetI64();
  if (!tau_max.ok()) return tau_max.status();
  if (*lv < 1 || *le < 1 || *tau_max < 0 || *tau_max > kMaxPlausibleTau) {
    return Status::InvalidArgument("GED prior: implausible header");
  }
  GedPriorTable table(*lv, *le, *tau_max);
  Result<uint64_t> count = reader->GetU64();
  if (!count.ok()) return count.status();
  // Each cached row occupies at least its size key plus the row length word.
  if (*count > reader->remaining() / 16) {
    return Status::OutOfRange("GED prior: row count exceeds file size");
  }
  for (uint64_t i = 0; i < *count; ++i) {
    Result<int64_t> v = reader->GetI64();
    if (!v.ok()) return v.status();
    Result<std::vector<double>> row = reader->GetPodVector<double>();
    if (!row.ok()) return row.status();
    if (row->size() != static_cast<size_t>(*tau_max + 1)) {
      return Status::InvalidArgument("GED prior row has wrong length");
    }
    for (double p : *row) {
      if (!std::isfinite(p) || p < 0.0) {
        return Status::InvalidArgument(
            "GED prior: a row entry is negative or not finite");
      }
    }
    table.rows_.emplace(*v, std::move(*row));
  }
  return table;
}

}  // namespace gbda
