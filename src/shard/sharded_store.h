// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The sharded store: one dataset partitioned into K shards, each owning
// its own columnar arena and index, built by the existing per-index
// builders. The scatter-gather engines (shard/sharded_query.h) fan a
// query across the shards and merge the per-shard best-known lists into
// an answer bit-identical to a single unsharded index over the same data
// (the merge contract; see BestKnownList::MergeFrom).
//
// Partition layout is deterministic in (data, options) — see
// shard/partitioner.h — and entries keep their GLOBAL ids (positions in
// the source vector), so answers from any shard line up with answers from
// an unsharded index over the same vector.

#ifndef HYPERDOM_SHARD_SHARDED_STORE_H_
#define HYPERDOM_SHARD_SHARDED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/m_tree.h"
#include "index/rstar_tree.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "obs/metrics.h"

namespace hyperdom {
namespace shard {

/// Which partitioning policy assigns entries to shards.
enum class ShardPolicy {
  kHash,    ///< SplitMix64 on the global id, modulo K
  kKmeans,  ///< nearest of K seeded-Lloyd centroids over sphere centers
};

/// "hash" / "kmeans".
std::string_view ShardPolicyName(ShardPolicy policy);

/// Parses "hash"/"kmeans"; false on anything else.
bool ParseShardPolicy(std::string_view name, ShardPolicy* out);

/// Which index structure each shard builds over its slice.
enum class ShardIndexKind {
  kSsTree,
  kRStarTree,
  kVpTree,
  kMTree,
};

/// "ss" / "rstar" / "vp" / "m".
std::string_view ShardIndexKindName(ShardIndexKind kind);

/// Options for ShardedStore::Build.
struct ShardingOptions {
  /// Number of shards (>= 1).
  size_t shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
  ShardIndexKind index = ShardIndexKind::kSsTree;
  /// Seed and Lloyd rounds for the k-means policy; ignored under hash.
  uint64_t kmeans_seed = 42;
  size_t kmeans_iterations = 8;
};

/// \brief One shard: the slice of the dataset it owns (in global order,
/// with global ids) plus its index. Exactly one tree pointer matching
/// ShardingOptions.index is set once the store is built; a shard of an
/// empty dataset has no tree.
struct Shard {
  std::vector<Hypersphere> spheres;
  std::vector<uint64_t> ids;
  std::unique_ptr<SsTree> ss;
  std::unique_ptr<RStarTree> rstar;
  std::unique_ptr<VpTree> vp;
  std::unique_ptr<MTree> m;

  size_t size() const { return spheres.size(); }

  /// Calls `fn(tree)` with the shard's index, whatever its kind; no call
  /// for a shard without one.
  template <typename Fn>
  void VisitIndex(Fn&& fn) const {
    if (ss != nullptr) fn(*ss);
    if (rstar != nullptr) fn(*rstar);
    if (vp != nullptr) fn(*vp);
    if (m != nullptr) fn(*m);
  }
};

/// \brief K shards over one dataset.
///
/// Immutable once built. Thread-compatible: concurrent queries against a
/// built store are safe (per-shard trees are read-only).
class ShardedStore {
 public:
  ShardedStore() = default;
  ShardedStore(ShardedStore&&) = default;
  ShardedStore& operator=(ShardedStore&&) = default;

  /// Partitions `data` per `options` and builds every shard's index.
  /// Entries keep their global ids (positions in `data`). Replaces `*out`.
  /// With K=1 and the hash policy the single shard holds the dataset in
  /// its original order, so its tree is identical to an unsharded build.
  static Status Build(const std::vector<Hypersphere>& data,
                      const ShardingOptions& options, ShardedStore* out);

  size_t shards() const { return shards_.size(); }
  const Shard& shard(size_t j) const { return shards_[j]; }
  const ShardingOptions& options() const { return options_; }
  /// Total entries across shards.
  size_t size() const { return size_; }
  /// Data dimensionality (0 for an empty dataset).
  size_t dim() const { return dim_; }

  /// Bumps the per-shard query counter (hyperdom_shard_queries_total
  /// {shard="j"}); the pointers are cached at build time because the
  /// labels are runtime values the literal-only hot-path macros cannot
  /// register. No-op when observability is compiled out.
  void CountShardQuery(size_t j) const {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
    query_counters_[j]->Inc();
#else
    (void)j;
#endif
  }

 private:
  friend class ShardedSnapshotSet;

  /// Partitions `data` into shard slices without building indexes; shared
  /// by Build and the snapshot loader (which re-partitions to know what
  /// each generation file must contain).
  static Status Partition(const std::vector<Hypersphere>& data,
                          const ShardingOptions& options, ShardedStore* out);

  /// Builds shard `j`'s index from its slice per options().index.
  Status BuildShardIndex(size_t j);

  /// Registers/updates the shard gauges and caches the per-shard counter
  /// handles. Called once per (re)build.
  void PublishMetrics();

  ShardingOptions options_;
  std::vector<Shard> shards_;
  size_t size_ = 0;
  size_t dim_ = 0;
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  std::vector<obs::Counter*> query_counters_;
#endif
};

}  // namespace shard
}  // namespace hyperdom

#endif  // HYPERDOM_SHARD_SHARDED_STORE_H_
