/// \file index_view.h
/// GbdaIndexView: a non-owning, zero-deserialization implementation of the
/// IndexReader scan contract over a mapped v4 arena artifact
/// (storage/index_arena.h; docs/ARCHITECTURE.md, "Storage engine").
///
/// Open() maps the file, validates the header and, in one pass, the tables
/// (ValidateArenaTables: the check that makes every unchecked column and
/// dictionary read in-bounds), builds the dictionary's hash index in
/// O(distinct branches), and decodes only the two small prior blobs — the
/// dictionary and the candidate columns are served in place. Cold start is
/// therefore O(header + tables + priors), never a per-branch decode, and
/// concurrent replicas mapping the same artifact share its pages through
/// the OS page cache (bench/bench_coldstart.cc measures open -> first query
/// and RSS).
///
/// Queries through a view are bit-identical to queries through the owned
/// GbdaIndex the artifact was written from (index_view_equivalence_test):
/// both hold a graph as ascending dictionary ids, and every consumer takes
/// the IndexReader interface the view implements.
///
/// Lifetime: the view owns its mapping; the columns, the dictionary and the
/// priors returned by gbd_prior()/mutable_ged_prior() are valid while the
/// view lives. A service serving from a view must keep it alive for as long
/// as the service (exactly the contract an owned GbdaIndex already has);
/// snapshot generations pin it via shared_ptr.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/gbda_index.h"
#include "storage/index_arena.h"
#include "storage/mapped_file.h"

namespace gbda {

class GbdaIndexView : public IndexReader {
 public:
  struct OpenOptions {
    /// Verify every section's CRC32 at open. Reads every byte of the
    /// artifact — right for tooling (gbda_indexctl verify) and one-shot
    /// batch jobs, wasteful on the serving path where it defeats lazy page
    /// faulting. Structural validation (header CRC, ValidateArenaTables)
    /// always runs regardless.
    bool verify_checksums = false;
    /// Advise the kernel to fault the whole artifact in (MADV_WILLNEED).
    bool prefetch = true;
  };

  /// Maps and validates `path`. The returned view is self-contained and
  /// movable; moving does not invalidate pointers into the mapping. (Two
  /// overloads rather than a default argument: the in-class default would
  /// need OpenOptions complete before the enclosing class is.)
  static Result<GbdaIndexView> Open(const std::string& path,
                                    const OpenOptions& options);
  static Result<GbdaIndexView> Open(const std::string& path) {
    return Open(path, OpenOptions());
  }

  // -- IndexReader -----------------------------------------------------------
  size_t num_graphs() const override { return num_graphs_; }
  /// Persisted artifacts never encode a drifted Lambda2 (the writer
  /// refuses), so a view is always fresh.
  size_t gbd_staleness() const override { return 0; }
  const GbdaIndexOptions& options() const override { return options_; }
  int64_t tau_max() const override { return options_.tau_max; }
  int64_t num_vertex_labels() const override { return num_vertex_labels_; }
  int64_t num_edge_labels() const override { return num_edge_labels_; }
  double avg_vertices() const override { return avg_vertices_; }
  const GbdPrior& gbd_prior() const override { return *gbd_prior_; }
  GedPriorTable* mutable_ged_prior() const override {
    return ged_prior_.get();
  }
  /// The mapped graph_offsets and fp_keys sections, zero-copy. Validated
  /// at open by ValidateArenaTables.
  CandidateColumns columns() const override { return columns_; }
  /// The mapped dictionary sections, with a hash index built at open.
  const BranchDictionary& dictionary() const override { return dictionary_; }

  // -- View-specific ---------------------------------------------------------
  const std::string& path() const { return file_.path(); }
  size_t file_bytes() const { return file_.size(); }
  uint64_t total_branches() const { return columns_.fp_offsets[num_graphs_]; }

  /// Whether the artifact carries a readable proximity graph (optional
  /// ann_graph section). False when the section is absent — or present but
  /// written by a future format revision this build cannot read, in which
  /// case Open degrades to exhaustive-only instead of failing (the
  /// forward-compat contract in index_arena.h).
  bool has_ann_graph() const { return ann_graph_.offsets != nullptr; }
  /// The mapped proximity graph (empty ref unless has_ann_graph()). Valid
  /// while the view lives; zero-copy, like columns().
  const ProximityGraphRef& ann_graph() const { return ann_graph_; }

 private:
  GbdaIndexView() = default;

  MappedFile file_;
  GbdaIndexOptions options_;
  int64_t num_vertex_labels_ = 1;
  int64_t num_edge_labels_ = 1;
  double avg_vertices_ = 0.0;
  size_t num_graphs_ = 0;
  /// Typed pointers into the mapped sections (64-byte aligned by the
  /// format).
  CandidateColumns columns_;
  BranchDictionary dictionary_;
  /// Parsed at open when the optional ann_graph section is present and
  /// readable; points into the mapping.
  ProximityGraphRef ann_graph_;
  /// Decoded prior blobs. shared_ptr so a PosteriorEngine built over them
  /// stays valid across view moves; GedPriorTable grows rows lazily under
  /// its own lock, exactly as in the owned index.
  std::shared_ptr<const GbdPrior> gbd_prior_;
  std::shared_ptr<GedPriorTable> ged_prior_;
};

}  // namespace gbda
