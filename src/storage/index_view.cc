#include "storage/index_view.h"

#include <string_view>
#include <utility>

#include "common/serialize.h"

namespace gbda {

Result<GbdaIndexView> GbdaIndexView::Open(const std::string& path,
                                          const OpenOptions& open_options) {
  Result<MappedFile> mapped =
      MappedFile::OpenReadOnly(path, open_options.prefetch);
  if (!mapped.ok()) return mapped.status();
  const std::string_view data(mapped->data(), mapped->size());

  Result<ArenaInfo> info = ParseArenaHeader(data, path);
  if (!info.ok()) return info.status();
  // Serving safety: after this check every branch_set() access derived from
  // the offset tables is in-bounds, so the scan can read unchecked.
  Status offsets_ok = ValidateArenaOffsets(data, *info, path);
  if (!offsets_ok.ok()) return offsets_ok;
  // Same serving-safety standard for the candidate-column sections: after
  // this, every column sweep and every fp_rep dereference the scan performs
  // is in-bounds.
  Status columns_ok = ValidateArenaColumns(data, *info, path);
  if (!columns_ok.ok()) return columns_ok;
  if (open_options.verify_checksums) {
    Status crc_ok = VerifyArenaChecksums(data, *info, path);
    if (!crc_ok.ok()) return crc_ok;
  }

  GbdaIndexView view;
  view.options_ = info->options;
  view.num_vertex_labels_ = info->num_vertex_labels;
  view.num_edge_labels_ = info->num_edge_labels;
  view.avg_vertices_ = info->avg_vertices;
  view.num_graphs_ = static_cast<size_t>(info->num_graphs);
  view.total_branches_ = info->total_branches;
  view.total_labels_ = info->total_labels;

  // The format guarantees 64-byte aligned section offsets, so these casts
  // yield properly aligned typed arrays.
  const char* base = data.data();
  view.branch_start_ = reinterpret_cast<const uint64_t*>(
      base + info->sections[0].offset);
  view.roots_ =
      reinterpret_cast<const uint32_t*>(base + info->sections[1].offset);
  view.label_start_ = reinterpret_cast<const uint64_t*>(
      base + info->sections[2].offset);
  view.labels_ =
      reinterpret_cast<const LabelId*>(base + info->sections[3].offset);

  // Candidate columns, served in place like the branch arena (the header
  // parse guarantees 8..10; the exactness directory is optional).
  view.columns_.sizes = reinterpret_cast<const uint32_t*>(
      base + info->FindSection(kSecGraphSizes)->offset);
  view.columns_.fp_offsets = reinterpret_cast<const uint64_t*>(
      base + info->FindSection(kSecFpOffsets)->offset);
  view.columns_.fp_keys = reinterpret_cast<const uint64_t*>(
      base + info->FindSection(kSecFpKeys)->offset);
  if (const ArenaSectionInfo* uniq = info->FindSection(kSecFpUnique)) {
    view.columns_.fp_unique =
        reinterpret_cast<const uint64_t*>(base + uniq->offset);
    view.columns_.fp_rep = reinterpret_cast<const uint64_t*>(
        base + info->FindSection(kSecFpRep)->offset);
    view.columns_.num_distinct = uniq->length / sizeof(uint64_t);
  }

  // The prior blobs are the only decoded state: both are small (a GMM plus
  // probability tables, and the cached Lambda3 rows), and GedPriorTable is
  // inherently mutable — rows for unseen sizes build lazily at query time.
  {
    const ArenaSectionInfo& sec = info->sections[4];
    BinaryReader reader(data.substr(static_cast<size_t>(sec.offset),
                                    static_cast<size_t>(sec.length)),
                        path + " [gbd_prior]");
    Result<GbdPrior> prior = GbdPrior::Deserialize(&reader);
    if (!prior.ok()) return prior.status();
    if (!reader.AtEnd()) {
      return Status::InvalidArgument(
          reader.DescribeHere("trailing bytes after GBD prior section"));
    }
    view.gbd_prior_ = std::make_shared<const GbdPrior>(std::move(*prior));
  }
  {
    const ArenaSectionInfo& sec = info->sections[5];
    BinaryReader reader(data.substr(static_cast<size_t>(sec.offset),
                                    static_cast<size_t>(sec.length)),
                        path + " [ged_prior]");
    Result<GedPriorTable> ged = GedPriorTable::Deserialize(&reader);
    if (!ged.ok()) return ged.status();
    if (!reader.AtEnd()) {
      return Status::InvalidArgument(
          reader.DescribeHere("trailing bytes after GED prior section"));
    }
    // The embedded prior carries its own header; both pass their own
    // plausibility checks, but they must also agree with each other — a
    // crafted artifact could otherwise serve silently wrong scores (e.g.
    // zero GED mass above the embedded tau_max while the index admits a
    // larger tau_hat).
    if (ged->tau_max() != view.options_.tau_max ||
        ged->num_vertex_labels() != view.num_vertex_labels_ ||
        ged->num_edge_labels() != view.num_edge_labels_) {
      return Status::InvalidArgument(
          "index arena: GED prior header disagrees with the arena header in " +
          path);
    }
    view.ged_prior_ = std::make_shared<GedPriorTable>(std::move(*ged));
  }

  // Optional trailing section: the proximity graph for approximate
  // navigation. A parse failure from a future payload revision
  // (kNotSupported) degrades to "no graph" per the forward-compat contract;
  // anything else is corruption and fails the open like any other section.
  if (const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph)) {
    Result<ProximityGraphRef> graph = ParseProximityGraphSection(
        base + sec->offset, static_cast<size_t>(sec->length),
        info->num_graphs, path + " [ann_graph]");
    if (graph.ok()) {
      view.ann_graph_ = *graph;
    } else if (graph.status().code() != StatusCode::kNotSupported) {
      return graph.status();
    }
  }

  view.file_ = std::move(*mapped);
  return view;
}

}  // namespace gbda
