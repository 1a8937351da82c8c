#include "core/gbd_prior.h"

#include <algorithm>
#include <cmath>

#include "common/kernels.h"

namespace gbda {
namespace {

bool IsProbability(double p) { return std::isfinite(p) && p >= 0.0; }

}  // namespace

Result<GbdPrior> GbdPrior::Fit(const std::vector<Span<const uint64_t>>& graphs,
                               const GbdPriorOptions& options, Rng* rng) {
  const size_t n = graphs.size();
  if (n < 2) {
    return Status::InvalidArgument("GBD prior: need at least two graphs");
  }
  size_t max_v = 0;
  for (const Span<const uint64_t>& g : graphs) {
    max_v = std::max(max_v, g.size());
  }
  // Every dispatch counts the same intersection, so the prior does not
  // depend on the kernel picked.
  const ScanKernels& kernels =
      GetScanKernels(ResolveKernels(KernelDispatch::kAuto));
  const auto gbd = [&graphs, &kernels](size_t i, size_t j) {
    const Span<const uint64_t> a = graphs[i], b = graphs[j];
    return static_cast<double>(
        std::max(a.size(), b.size()) -
        static_cast<size_t>(kernels.intersect_count(a.data(), a.size(),
                                                    b.data(), b.size())));
  };

  // Collect GBD samples over pairs.
  std::vector<double> samples;
  const uint64_t total_pairs =
      static_cast<uint64_t>(n) * static_cast<uint64_t>(n - 1) / 2;
  if (total_pairs <= options.num_sample_pairs) {
    samples.reserve(static_cast<size_t>(total_pairs));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) samples.push_back(gbd(i, j));
    }
  } else {
    samples.reserve(options.num_sample_pairs);
    while (samples.size() < options.num_sample_pairs) {
      const size_t i =
          static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
      const size_t j =
          static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
      if (i == j) continue;
      samples.push_back(gbd(i, j));
    }
  }

  GbdPrior prior;
  prior.pairs_sampled_ = samples.size();
  prior.floor_ = options.probability_floor;
  prior.histogram_.assign(max_v + 1, 0);
  for (double s : samples) {
    const size_t phi = static_cast<size_t>(s);
    if (phi < prior.histogram_.size()) ++prior.histogram_[phi];
  }

  Result<GaussianMixture> gmm = GaussianMixture::Fit(samples, options.gmm);
  if (!gmm.ok()) return gmm.status();
  prior.gmm_ = std::move(*gmm);

  prior.table_.resize(max_v + 1);
  for (size_t phi = 0; phi <= max_v; ++phi) {
    prior.table_[phi] = prior.gmm_.IntervalProbability(
        static_cast<double>(phi) - 0.5, static_cast<double>(phi) + 0.5);
  }
  return prior;
}

double GbdPrior::Probability(int64_t phi) const {
  double p = 0.0;
  if (phi >= 0 && phi < static_cast<int64_t>(table_.size())) {
    p = table_[static_cast<size_t>(phi)];
  } else if (phi >= 0) {
    // phi beyond the tabulated range (e.g. a query larger than any database
    // graph): fall back to the continuous mixture.
    p = gmm_.IntervalProbability(static_cast<double>(phi) - 0.5,
                                 static_cast<double>(phi) + 0.5);
  }
  return std::max(p, floor_);
}

size_t GbdPrior::MemoryBytes() const {
  return sizeof(GbdPrior) + table_.capacity() * sizeof(double) +
         histogram_.capacity() * sizeof(size_t) +
         gmm_.components().capacity() * sizeof(GmmComponent);
}

void GbdPrior::Serialize(BinaryWriter* writer) const {
  writer->PutU64(pairs_sampled_);
  writer->PutDouble(floor_);
  writer->PutU64(gmm_.components().size());
  for (const GmmComponent& c : gmm_.components()) {
    writer->PutDouble(c.weight);
    writer->PutDouble(c.mean);
    writer->PutDouble(c.stddev);
  }
  writer->PutPodVector(table_);
  writer->PutPodVector(histogram_);
}

Result<GbdPrior> GbdPrior::Deserialize(BinaryReader* reader) {
  GbdPrior prior;
  Result<uint64_t> pairs = reader->GetU64();
  if (!pairs.ok()) return pairs.status();
  prior.pairs_sampled_ = *pairs;
  Result<double> floor = reader->GetDouble();
  if (!floor.ok()) return floor.status();
  if (!IsProbability(*floor)) {
    return Status::InvalidArgument(
        "GBD prior: probability floor is negative or not finite");
  }
  prior.floor_ = *floor;
  Result<uint64_t> ncomp = reader->GetU64();
  if (!ncomp.ok()) return ncomp.status();
  // Each component occupies three doubles; a larger count cannot be honest.
  if (*ncomp > reader->remaining() / (3 * sizeof(double))) {
    return Status::OutOfRange("GBD prior: component count exceeds file size");
  }
  std::vector<GmmComponent> comps;
  comps.reserve(static_cast<size_t>(*ncomp));
  for (uint64_t i = 0; i < *ncomp; ++i) {
    GmmComponent c;
    Result<double> w = reader->GetDouble();
    if (!w.ok()) return w.status();
    Result<double> mu = reader->GetDouble();
    if (!mu.ok()) return mu.status();
    Result<double> sd = reader->GetDouble();
    if (!sd.ok()) return sd.status();
    c.weight = *w;
    c.mean = *mu;
    c.stddev = *sd;
    comps.push_back(c);
  }
  Result<GaussianMixture> gmm = GaussianMixture::FromComponents(std::move(comps));
  if (!gmm.ok()) return gmm.status();
  prior.gmm_ = std::move(*gmm);
  Result<std::vector<double>> table = reader->GetPodVector<double>();
  if (!table.ok()) return table.status();
  if (!std::all_of(table->begin(), table->end(), IsProbability)) {
    return Status::InvalidArgument(
        "GBD prior: a tabulated probability is negative or not finite");
  }
  prior.table_ = std::move(*table);
  Result<std::vector<size_t>> hist = reader->GetPodVector<size_t>();
  if (!hist.ok()) return hist.status();
  prior.histogram_ = std::move(*hist);
  return prior;
}

}  // namespace gbda
