/// \file index_shards.h
/// Static partitioning of a GbdaIndex for shard-parallel scans. Graph ids
/// are split into contiguous, near-equal ranges; each ShardView bundles the
/// id range with a read-only view of the branch store, which is all a
/// worker needs to run core ScanRange over its slice (the optional
/// admission Prefilter travels separately in ParallelScanEnv). Because
/// shards are contiguous and ascending, concatenating per-shard results in
/// shard order reproduces the serial scan's id order exactly — the
/// determinism contract of the serving layer (docs/ARCHITECTURE.md,
/// "Serving layer").

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gbda_index.h"

namespace gbda {

/// Read-only view of one shard: the contiguous id range plus an accessor
/// into the shared index. Ids are positions in the partitioned index
/// (absolute database ids for a frozen database, dense live positions for a
/// dynamic snapshot). The index is consumed through the IndexReader contract,
/// so shards partition an owned GbdaIndex and a mapped v3 artifact alike.
class ShardView {
 public:
  ShardView(size_t shard_id, size_t begin, size_t end,
            const IndexReader* index)
      : shard_id_(shard_id), begin_(begin), end_(end), index_(index) {}

  size_t shard_id() const { return shard_id_; }
  size_t begin() const { return begin_; }
  size_t end() const { return end_; }
  size_t size() const { return end_ - begin_; }

  /// The shared branch store; scan with core ScanRange over [begin, end).
  const IndexReader& index() const { return *index_; }

 private:
  size_t shard_id_;
  size_t begin_;
  size_t end_;
  const IndexReader* index_;
};

/// Splits [0, index.num_graphs()) into `num_shards` contiguous ranges whose
/// sizes differ by at most one. The index is borrowed — the owner
/// (GbdaService, or a dynamic-corpus Snapshot) must keep it alive.
class IndexShards {
 public:
  /// `num_shards` is clamped to [1, max(1, num_graphs)] so no shard is
  /// empty (except when the index itself is empty).
  IndexShards(const IndexReader* index, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  size_t num_graphs() const { return num_graphs_; }
  const ShardView& shard(size_t s) const { return shards_[s]; }

 private:
  size_t num_graphs_;
  std::vector<ShardView> shards_;
};

}  // namespace gbda
