#include "datagen/dataset_profiles.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace gbda {
namespace {

size_t Scaled(size_t count, double scale) {
  const double n = static_cast<double>(count) * scale;  // NaN fails both tests
  return n >= 2.0 && n < 0x1p63 ? static_cast<size_t>(std::llround(n)) : 2;
}

/// Splits `total` into `parts` roughly equal chunks.
std::vector<size_t> SplitEvenly(size_t total, size_t parts) {
  std::vector<size_t> out(parts, total / parts);
  for (size_t i = 0; i < total % parts; ++i) ++out[i];
  return out;
}

/// Descending size ladder from `max_size` with the given gap.
std::vector<size_t> SizeLadder(size_t max_size, size_t gap, size_t min_size,
                               size_t max_rungs) {
  std::vector<size_t> sizes;
  for (size_t s = max_size; s >= min_size && sizes.size() < max_rungs;
       s -= gap) {
    sizes.push_back(s);
    if (s < min_size + gap) break;
  }
  return sizes;
}

}  // namespace

DatasetProfile AidsProfile(double scale) {
  DatasetProfile p;
  p.name = "AIDS";
  p.rung_sizes = SizeLadder(/*max_size=*/95, /*gap=*/12, /*min_size=*/20, 7);
  p.graphs_per_rung = SplitEvenly(Scaled(1896, scale), p.rung_sizes.size());
  p.queries_per_rung = SplitEvenly(Scaled(100, scale), p.rung_sizes.size());
  p.num_vertex_labels = 42;  // atom types occurring in the AIDS screen
  p.num_edge_labels = 3;     // single / double / aromatic bonds
  p.scale_free = true;
  p.target_avg_degree = 2.1;
  p.max_modifications = 12;
  p.num_centers = 8;
  p.family_size = 16;
  p.certified_tau = 10;
  p.seed = 0xA1D5;
  return p;
}

DatasetProfile FingerprintProfile(double scale) {
  DatasetProfile p;
  p.name = "Fingerprint";
  p.rung_sizes = {26, 20};
  p.graphs_per_rung = SplitEvenly(Scaled(2159, scale), p.rung_sizes.size());
  p.queries_per_rung = SplitEvenly(Scaled(114, scale), p.rung_sizes.size());
  p.num_vertex_labels = 8;  // discretised ridge orientations
  p.num_edge_labels = 4;
  p.scale_free = true;
  p.target_avg_degree = 1.7;
  p.max_modifications = 8;
  p.num_centers = 4;
  p.family_size = 14;
  p.certified_tau = 10;
  p.seed = 0xF1A6;
  return p;
}

DatasetProfile GrecProfile(double scale) {
  DatasetProfile p;
  p.name = "GREC";
  p.rung_sizes = {24, 18};
  p.graphs_per_rung = SplitEvenly(Scaled(1045, scale), p.rung_sizes.size());
  p.queries_per_rung = SplitEvenly(Scaled(55, scale), p.rung_sizes.size());
  p.num_vertex_labels = 20;  // symbol primitives
  p.num_edge_labels = 6;
  p.scale_free = true;
  p.target_avg_degree = 2.1;
  p.max_modifications = 8;
  p.num_centers = 4;
  p.family_size = 14;
  p.certified_tau = 10;
  p.seed = 0x63EC;
  return p;
}

DatasetProfile AasdProfile(double scale) {
  DatasetProfile p;
  p.name = "AASD";
  p.rung_sizes = SizeLadder(/*max_size=*/93, /*gap=*/12, /*min_size=*/20, 7);
  p.graphs_per_rung = SplitEvenly(Scaled(37995, scale), p.rung_sizes.size());
  // AASD's |Q| is only 100 for 38K graphs; keep queries proportionally
  // larger at small scales but never above the paper's count.
  p.queries_per_rung = SplitEvenly(Scaled(100, std::min(1.0, scale * 10.0)),
                                   p.rung_sizes.size());
  p.num_vertex_labels = 42;
  p.num_edge_labels = 3;
  p.scale_free = true;
  p.target_avg_degree = 2.1;
  p.max_modifications = 12;
  p.num_centers = 8;
  p.family_size = 16;
  p.certified_tau = 10;
  p.seed = 0xAA5D;
  return p;
}

DatasetProfile SynProfile(bool scale_free, std::vector<size_t> subset_sizes,
                          size_t graphs_per_subset, size_t queries_per_subset) {
  DatasetProfile p;
  p.name = scale_free ? "Syn-1" : "Syn-2";
  std::sort(subset_sizes.begin(), subset_sizes.end(), std::greater<size_t>());
  p.rung_sizes = std::move(subset_sizes);
  p.graphs_per_rung.assign(p.rung_sizes.size(), graphs_per_subset);
  p.queries_per_rung.assign(p.rung_sizes.size(), queries_per_subset);
  p.num_vertex_labels = 10;
  p.num_edge_labels = 5;
  p.scale_free = scale_free;
  p.target_avg_degree = scale_free ? 9.6 : 9.4;
  p.edges_per_vertex = 4;  // spanning tree + 4 preferential edges -> d ~ 9.x
  p.max_modifications = 30;  // thresholds up to 30 in Figures 8-9 / 31-42
  p.num_centers = 15;
  p.family_size = 25;
  p.certified_tau = 30;
  p.seed = scale_free ? 0x5151 : 0x5252;
  return p;
}

Result<GeneratedDataset> GenerateDataset(const DatasetProfile& profile) {
  if (profile.rung_sizes.empty()) {
    return Status::InvalidArgument("profile has no rungs");
  }
  if (profile.rung_sizes.size() != profile.graphs_per_rung.size() ||
      profile.rung_sizes.size() != profile.queries_per_rung.size()) {
    return Status::InvalidArgument("profile rung vectors disagree in length");
  }
  const size_t markers = profile.marker_count();
  for (size_t n : profile.rung_sizes) {
    if (n < markers + 6) {
      return Status::InvalidArgument(StrFormat(
          "rung size %zu too small for %zu marker vertices plus a core", n,
          markers));
    }
  }

  GeneratedDataset ds;
  ds.profile = profile;
  // Shared core alphabets, interned up front so core ids are stable; family
  // marker labels are interned as families are created.
  ds.db.vertex_labels().InternNumbered(profile.num_vertex_labels, "V");
  ds.db.edge_labels().InternNumbered(profile.num_edge_labels, "E");

  Rng rng(profile.seed);
  uint32_t family_id = 0;
  for (size_t r = 0; r < profile.rung_sizes.size(); ++r) {
    const size_t n = profile.rung_sizes[r];
    const size_t core = n - markers;
    const size_t num_families = std::max<size_t>(
        1, (profile.graphs_per_rung[r] + profile.family_size / 2) /
               profile.family_size);
    const std::vector<size_t> fam_graphs =
        SplitEvenly(profile.graphs_per_rung[r], num_families);
    const std::vector<size_t> fam_queries =
        SplitEvenly(profile.queries_per_rung[r], num_families);

    for (size_t f = 0; f < num_families; ++f, ++family_id) {
      if (fam_graphs[f] == 0 && fam_queries[f] == 0) continue;
      FamilyOptions fam;
      fam.generator.num_vertices = core;
      fam.generator.num_vertex_labels = profile.num_vertex_labels;
      fam.generator.num_edge_labels = profile.num_edge_labels;
      fam.generator.scale_free = profile.scale_free;
      fam.generator.edges_per_vertex = profile.edges_per_vertex;
      if (!profile.scale_free) {
        const double extra = std::max(
            0.0, profile.target_avg_degree * static_cast<double>(core) / 2.0 -
                     static_cast<double>(core - 1));
        fam.generator.extra_edges = static_cast<size_t>(extra);
      }
      fam.num_members = fam_graphs[f] + fam_queries[f];
      fam.max_modifications = profile.max_modifications;
      fam.delete_fraction = profile.delete_fraction;
      fam.signature_hops = profile.signature_hops;
      fam.num_centers = profile.num_centers;
      fam.center_min_degree = 2;
      fam.num_marker_vertices = markers;
      fam.marker_vertex_label = ds.db.vertex_labels().Intern(
          StrFormat("M%u", family_id));
      fam.marker_edge_label =
          ds.db.edge_labels().Intern(StrFormat("m%u", family_id));

      Result<KnownGedFamily> family = GenerateKnownGedFamily(fam, &rng);
      if (!family.ok()) {
        return Status(family.status().code(),
                      StrFormat("rung %zu family %zu (|V|=%zu): %s", r, f, n,
                                family.status().message().c_str()));
      }

      // The first fam_graphs[f] members feed the database; the rest are
      // queries.
      for (size_t m = 0; m < family->members.size(); ++m) {
        if (m < fam_graphs[f]) {
          ds.db.Add(std::move(family->members[m]));
          ds.graph_rung.push_back(static_cast<uint32_t>(r));
          ds.graph_family.push_back(family_id);
          ds.graph_states.push_back(std::move(family->member_states[m]));
        } else {
          ds.queries.push_back(std::move(family->members[m]));
          ds.query_rung.push_back(static_cast<uint32_t>(r));
          ds.query_family.push_back(family_id);
          ds.query_states.push_back(std::move(family->member_states[m]));
        }
      }
    }
  }
  ds.num_families = family_id;
  return ds;
}

int64_t GeneratedDataset::KnownGedOrFar(size_t query_idx,
                                        size_t graph_id) const {
  if (query_family[query_idx] != graph_family[graph_id]) return -1;
  return StateHammingDistance(query_states[query_idx], graph_states[graph_id]);
}

std::vector<size_t> GeneratedDataset::TrueMatches(size_t query_idx,
                                                  int64_t tau) const {
  std::vector<size_t> matches;
  for (size_t g = 0; g < db.size(); ++g) {
    const int64_t ged = KnownGedOrFar(query_idx, g);
    if (ged >= 0 && ged <= tau) matches.push_back(g);
  }
  return matches;
}

}  // namespace gbda
