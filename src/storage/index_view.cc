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
  // Serving safety: after this check every column sweep, every id's
  // dictionary read and every dictionary probe is in-bounds, so the scan,
  // the prefilter and PrepareScan read unchecked.
  Status tables_ok = ValidateArenaTables(data, *info, path);
  if (!tables_ok.ok()) return tables_ok;
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

  // The format guarantees 64-byte aligned section offsets, so these casts
  // yield properly aligned typed arrays.
  const char* base = data.data();
  const auto at = [base](const ArenaSectionInfo& sec) {
    return base + sec.offset;
  };
  view.columns_.fp_offsets =
      reinterpret_cast<const uint64_t*>(at(info->sections[0]));
  view.columns_.fp_keys =
      reinterpret_cast<const uint64_t*>(at(*info->FindSection(kSecFpKeys)));
  view.dictionary_ = BranchDictionary(BranchSetRef(
      reinterpret_cast<const uint32_t*>(at(info->sections[1])),
      reinterpret_cast<const uint64_t*>(at(info->sections[2])),
      reinterpret_cast<const LabelId*>(at(info->sections[3])),
      static_cast<size_t>(info->dictionary_size)));

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
