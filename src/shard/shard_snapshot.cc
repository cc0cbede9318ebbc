// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "shard/shard_snapshot.h"

#include <sstream>
#include <utility>

#include "common/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {
namespace shard {

namespace {

constexpr char kManifestName[] = "SHARDS";
constexpr char kManifestMagic[] = "hyperdom-shards-v1";
constexpr std::string_view kStemPrefix = "shard-";

// Generation stems are "shard-<j>".
bool IsShardStem(std::string_view stem) {
  uint64_t shard = 0;
  return stem.substr(0, kStemPrefix.size()) == kStemPrefix &&
         SnapshotGenerations::ParseSeq(stem.substr(kStemPrefix.size()),
                                       &shard);
}

}  // namespace

ShardedSnapshotSet::ShardedSnapshotSet(std::string dir)
    : generations_(std::move(dir), kManifestName, IsShardStem) {}

std::string ShardedSnapshotSet::ShardPath(size_t shard, uint64_t seq) const {
  return generations_.Path(std::string(kStemPrefix) + std::to_string(shard),
                           seq);
}

uint64_t ShardedSnapshotSet::CurrentSeq() const {
  Result<std::string> body = ReadFileToString(generations_.ManifestPath());
  if (!body.ok()) return 0;
  std::istringstream in(body.ValueOrDie());
  std::string magic;
  uint64_t seq = 0;
  if (!(in >> magic >> seq) || magic != kManifestMagic) return 0;
  return seq;
}

Status ShardedSnapshotSet::Persist(const ShardedStore& store,
                                   uint64_t* published_seq) {
  if (store.options().index != ShardIndexKind::kSsTree) {
    return Status::NotSupported(
        "sharded snapshots require SS-tree shards");
  }
  HYPERDOM_SPAN(span, "shard/persist");
  const uint64_t next = generations_.NextSeq(CurrentSeq());
  HYPERDOM_SPAN_ANNOTATE(span, "generation", std::to_string(next));

  std::ostringstream manifest;
  manifest << kManifestMagic << ' ' << next << ' ' << store.shards() << ' '
           << ShardPolicyName(store.options().policy) << ' '
           << store.options().kmeans_seed << ' '
           << store.options().kmeans_iterations << '\n';
  // All K generation files land before the manifest swings; empty shards
  // write nothing, which the loader reproduces by re-partitioning the same
  // data.
  const Status status = generations_.Publish(
      next,
      [&](std::vector<std::string>* written) {
        for (size_t j = 0; j < store.shards(); ++j) {
          if (store.shard(j).ss == nullptr) continue;
          const std::string path = ShardPath(j, next);
          HYPERDOM_RETURN_NOT_OK(SaveSnapshot(*store.shard(j).ss, path));
          written->push_back(path);
        }
        return Status::OK();
      },
      manifest.str());
  HYPERDOM_SPAN_ANNOTATE(span, "result", status.ok() ? "ok" : "error");
  if (!status.ok()) return status;
  if (published_seq != nullptr) *published_seq = next;
  return Status::OK();
}

Status ShardedSnapshotSet::LoadLatest(
    const std::vector<Hypersphere>& data, const ShardingOptions& options,
    ShardedStore* out, std::vector<SnapshotLoadOutcome>* outcomes,
    uint64_t* seq_out) {
  if (options.index != ShardIndexKind::kSsTree) {
    return Status::NotSupported(
        "sharded snapshots require SS-tree shards");
  }
  Result<std::string> body = ReadFileToString(generations_.ManifestPath());
  if (!body.ok()) {
    return Status::NotFound("no sharded snapshot manifest in '" +
                            generations_.dir() + "'");
  }
  std::istringstream in(body.ValueOrDie());
  std::string magic;
  std::string policy_name;
  uint64_t seq = 0;
  uint64_t shards = 0;
  uint64_t kmeans_seed = 0;
  uint64_t kmeans_iterations = 0;
  if (!(in >> magic >> seq >> shards >> policy_name >> kmeans_seed >>
        kmeans_iterations) ||
      magic != kManifestMagic || seq == 0) {
    return Status::Corruption("malformed sharded snapshot manifest '" +
                              generations_.ManifestPath() + "'");
  }
  ShardPolicy policy = ShardPolicy::kHash;
  if (!ParseShardPolicy(policy_name, &policy)) {
    return Status::Corruption("unknown shard policy '" + policy_name +
                              "' in manifest");
  }
  // The generation files hold exactly the slices the manifest's options
  // produced; loading them under a different partition would misplace
  // entries, so a mismatch is the caller's error, not a fallback case.
  if (shards != options.shards || policy != options.policy ||
      (policy == ShardPolicy::kKmeans &&
       (kmeans_seed != options.kmeans_seed ||
        kmeans_iterations != options.kmeans_iterations))) {
    return Status::InvalidArgument(
        "sharding options do not match the snapshot manifest");
  }

  HYPERDOM_SPAN(span, "shard/load_latest");
  HYPERDOM_SPAN_ANNOTATE(span, "generation", std::to_string(seq));
  ShardedStore store;
  HYPERDOM_RETURN_NOT_OK(ShardedStore::Partition(data, options, &store));
  if (outcomes != nullptr) {
    outcomes->assign(store.shards(), SnapshotLoadOutcome::kLoaded);
  }
  for (size_t j = 0; j < store.shards(); ++j) {
    Shard& s = store.shards_[j];
    if (s.spheres.empty()) continue;  // nothing persisted, nothing to load
    SsTree tree(store.dim());
    const Status load = LoadSnapshot(ShardPath(j, seq), &tree);
    if (load.ok() && tree.size() == s.spheres.size() &&
        tree.dim() == store.dim()) {
      s.ss = std::make_unique<SsTree>(std::move(tree));
      continue;
    }
    // Per-shard fallback: only this shard pays the rebuild; its siblings
    // keep loading from disk.
    HYPERDOM_COUNTER_INC(obs::kSnapshotRebuildFallback);
    HYPERDOM_RETURN_NOT_OK(store.BuildShardIndex(j));
    if (outcomes != nullptr) (*outcomes)[j] = SnapshotLoadOutcome::kRebuilt;
  }
  store.PublishMetrics();
  if (seq_out != nullptr) *seq_out = seq;
  *out = std::move(store);
  return Status::OK();
}

}  // namespace shard
}  // namespace hyperdom
