// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "layers.h"

#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "data/csv.h"
#include "dominance/instrumented.h"
#include "eval/workload.h"
#include "geometry/point.h"
#include "index/mutable_ss_tree.h"
#include "index/ss_tree.h"
#include "loadgen.h"
#include "query/knn.h"
#include "query/mut_query.h"
#include "require.h"
#include "server/protocol.h"
#include "shard/sharded_query.h"
#include "shard/sharded_store.h"

namespace perfbench {

using hyperdom::Hypersphere;
using hyperdom::KnnResult;
using hyperdom::KnnStats;

namespace {

constexpr int kBuildRepeats = 3;
constexpr size_t kDecideTriples = 8192;
constexpr size_t kDecideBlock = 512;
constexpr size_t kMinMaxBlockRows = 4096;
constexpr size_t kMinMaxBlocks = 64;
constexpr size_t kPinBlock = 1024;
constexpr size_t kPinBlocks = 64;
/// Writes replayed in-process: at a 3:1 insert:remove mix this is about
/// 9,000 inserts, so the 4,096-row auto-compaction fires at least twice.
constexpr size_t kReplayWrites = 12'000;
constexpr size_t kProbeShards = 4;

// Durations (us) of the spans named `name` recorded since `from`.
std::vector<double> Durations(const SpanBuffer* spans, const char* name,
                              size_t from = 0) {
  std::vector<double> out;
  for (size_t i = from; i < spans->spans().size(); ++i) {
    const Span& span = spans->spans()[i];
    if (std::strcmp(span.name, name) == 0) out.push_back(span.duration_us());
  }
  return out;
}

double MedianUs(const SpanBuffer* spans, const char* name) {
  return Quantile(Durations(spans, name), 0.5);
}

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), uint64_t{0});
  return ids;
}

}  // namespace

LayerResult RunLayerProbes(const LayerInputs& in, SpanBuffer* spans) {
  const WorkloadSpec& spec = *in.spec;
  const std::vector<Hypersphere>& data = *in.data;
  const size_t dim = data.front().dim();
  const size_t nq = in.queries.size();
  LayerResult out;
  auto& m = out.metrics;
  // The server's criterion: Hyperbola behind the metrics wrapper.
  const auto criterion =
      hyperdom::MakeInstrumentedCriterion(hyperdom::CriterionKind::kHyperbola);
  hyperdom::KnnOptions options;
  options.k = spec.k;
  options.strategy = hyperdom::SearchStrategy::kBestFirst;
  const hyperdom::KnnSearcher searcher(criterion.get(), options);
  hyperdom::shard::ShardingOptions sharding;
  sharding.shards = spec.shards > 0 ? spec.shards : kProbeShards;

  // data + index: what the server does between exec and ready.
  for (int r = 0; r < kBuildRepeats; ++r) {
    ScopedSpan span(spans, "data.csv_load");
    const auto loaded =
        Require(hyperdom::LoadSpheresCsv(in.csv_path), "LoadSpheresCsv");
    if (loaded.size() != data.size()) {
      throw std::runtime_error("LoadSpheresCsv: row count differs");
    }
  }
  m["data.csv_load_s"] = MedianUs(spans, "data.csv_load") / 1e6;

  hyperdom::SsTree tree(dim);
  Require(tree.BulkLoad(data), "SsTree::BulkLoad");
  hyperdom::shard::ShardedStore store;
  hyperdom::MutableSsTree mutable_tree(dim);
  for (int r = 0; r < kBuildRepeats; ++r) {
    ScopedSpan span(spans, "index.bulk_load");
    if (spec.shards > 0) {
      Require(hyperdom::shard::ShardedStore::Build(data, sharding, &store),
              "ShardedStore::Build");
    } else if (spec.mutable_store) {
      Require(mutable_tree.Build(data, Iota(data.size())),
              "MutableSsTree::Build");
    } else {
      hyperdom::SsTree fresh(dim);
      Require(fresh.BulkLoad(data), "SsTree::BulkLoad");
    }
  }
  m["index.bulk_load_s"] = MedianUs(spans, "index.bulk_load") / 1e6;
  if (spec.shards == 0) {
    Require(hyperdom::shard::ShardedStore::Build(data, sharding, &store),
            "ShardedStore::Build");
  }
  if (!spec.mutable_store) {
    Require(mutable_tree.Build(data, Iota(data.size())),
            "MutableSsTree::Build");
  }

  // query: the unsharded search (MutableKnn on the mutable workload).
  KnnStats totals;
  uint64_t answers = 0;
  std::vector<KnnResult> unsharded(nq);
  for (size_t i = 0; i < nq; ++i) {
    ScopedSpan span(spans, "query.search", i + 1);
    unsharded[i] = spec.mutable_store
                       ? hyperdom::MutableKnn(mutable_tree, *criterion,
                                              options, in.queries[i])
                             .result
                       : searcher.Search(tree, in.queries[i]);
  }
  for (const KnnResult& r : unsharded) {
    totals.nodes_visited += r.stats.nodes_visited;
    totals.entries_accessed += r.stats.entries_accessed;
    totals.dominance_checks += r.stats.dominance_checks;
    totals.pruned_case2 += r.stats.pruned_case2;
    totals.pruned_case3 += r.stats.pruned_case3;
    answers += r.answers.size();
  }
  const double per_query = 1.0 / static_cast<double>(nq);
  m["query.search_us"] = MedianUs(spans, "query.search");
  m["query.nodes_visited"] = static_cast<double>(totals.nodes_visited) * per_query;
  m["query.entries_accessed"] =
      static_cast<double>(totals.entries_accessed) * per_query;
  m["query.dominance_checks"] =
      static_cast<double>(totals.dominance_checks) * per_query;
  m["query.answers"] = static_cast<double>(answers) * per_query;
  m["query.prune_ratio"] =
      totals.entries_accessed == 0
          ? 0.0
          : static_cast<double>(totals.pruned_case2 + totals.pruned_case3) /
                static_cast<double>(totals.entries_accessed);

  // shard: ShardedKnn with serial scatter (as the server runs it), then
  // the same per-shard searches alone; the difference is the merge.
  uint64_t sharded_checks = 0;
  std::vector<KnnResult> sharded(nq);
  std::vector<double> merge_us;
  for (size_t i = 0; i < nq; ++i) {
    const size_t knn_from = spans->spans().size();
    {
      ScopedSpan span(spans, "shard.knn", i + 1);
      sharded[i] = Require(hyperdom::shard::ShardedKnn(store, in.queries[i],
                                                       *criterion, options),
                           "ShardedKnn");
    }
    sharded_checks += sharded[i].stats.dominance_checks;
    {
      ScopedSpan span(spans, "shard.scatter", i + 1);
      for (size_t j = 0; j < store.shards(); ++j) {
        ScopedSpan search(spans, "shard.search");
        (void)searcher.Search(*store.shard(j).ss, in.queries[i]);
      }
    }
    merge_us.push_back(Quantile(Durations(spans, "shard.knn", knn_from), 0.5) -
                       Quantile(Durations(spans, "shard.scatter", knn_from), 0.5));
  }
  m["shard.knn_us"] = MedianUs(spans, "shard.knn");
  m["shard.scatter_us"] = MedianUs(spans, "shard.scatter");
  m["shard.merge_us"] = Quantile(merge_us, 0.5);
  // Against the unsharded SS-tree search on every workload (the mutable
  // store's base tree is built differently and checks more).
  uint64_t unsharded_checks = totals.dominance_checks;
  if (spec.mutable_store) {
    unsharded_checks = 0;
    for (const Hypersphere& q : in.queries) {
      unsharded_checks += searcher.Search(tree, q).stats.dominance_checks;
    }
  }
  m["shard.check_amplification"] =
      unsharded_checks == 0 ? 0.0
                            : static_cast<double>(sharded_checks) /
                                  static_cast<double>(unsharded_checks);

  // The served path per kNN, for server.tax_us and the dominance share.
  const std::vector<KnnResult>& served = spec.shards > 0 ? sharded : unsharded;
  out.served_search_us =
      spec.shards > 0 ? m["shard.knn_us"] : m["query.search_us"];
  const double served_checks =
      static_cast<double>(spec.shards > 0 ? sharded_checks
                                          : totals.dominance_checks) *
      per_query;

  // protocol: the served answers through the response codec.
  double response_bytes = 0.0;
  for (size_t i = 0; i < nq; ++i) {
    hyperdom::server::KnnResponse response;
    response.completeness = served[i].completeness;
    response.answers = served[i].answers;
    std::string payload;
    {
      ScopedSpan span(spans, "protocol.encode", i + 1);
      payload = hyperdom::server::EncodeKnnResponse(response);
    }
    response_bytes += static_cast<double>(
        hyperdom::server::EncodeFrameV2(
            hyperdom::server::FrameKind::kKnnResponse, i + 1, payload)
            .size());
    hyperdom::Result<hyperdom::server::KnnResponse> decoded =
        hyperdom::Status::Internal("not decoded");
    {
      ScopedSpan span(spans, "protocol.decode", i + 1);
      decoded = hyperdom::server::DecodeKnnResponse(payload);
    }
    Require(decoded.status(), "DecodeKnnResponse");
    if (decoded->answers.size() != response.answers.size()) {
      throw std::runtime_error("DecodeKnnResponse lost answers");
    }
  }
  m["protocol.response_bytes"] = response_bytes * per_query;
  m["protocol.encode_us"] = MedianUs(spans, "protocol.encode");
  m["protocol.decode_us"] = MedianUs(spans, "protocol.decode");

  // dominance: DecideVerdict on seeded triples of the workload's data.
  const auto triples =
      hyperdom::MakeDominanceWorkload(data, kDecideTriples, in.seed);
  for (size_t b = 0; b + kDecideBlock <= triples.size(); b += kDecideBlock) {
    ScopedSpan span(spans, "dominance.decide");
    for (size_t t = b; t < b + kDecideBlock; ++t) {
      (void)criterion->DecideVerdict(triples[t].sa, triples[t].sb,
                                     triples[t].sq);
    }
  }
  const double decide_ns =
      MedianUs(spans, "dominance.decide") * 1e3 / kDecideBlock;
  m["dominance.decide_ns"] = decide_ns;
  m["dominance.share"] =
      out.served_search_us > 0.0
          ? decide_ns * served_checks / (out.served_search_us * 1e3)
          : 0.0;

  // geometry: the fused min/max distance kernel over the data's rows.
  std::vector<double> rows(data.size() * dim);
  std::vector<double> radii(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::copy(data[i].center().begin(), data[i].center().end(),
              rows.begin() + static_cast<std::ptrdiff_t>(i * dim));
    radii[i] = data[i].radius();
  }
  std::vector<double> min_out(kMinMaxBlockRows), max_out(kMinMaxBlockRows);
  const size_t row_blocks = data.size() / kMinMaxBlockRows;
  for (size_t b = 0; b < kMinMaxBlocks; ++b) {
    const size_t first = (b % row_blocks) * kMinMaxBlockRows;
    const Hypersphere& q = in.queries[b % nq];
    ScopedSpan span(spans, "geometry.minmax");
    hyperdom::BatchedMinMaxDistSpan(rows.data() + first * dim,
                                    radii.data() + first, dim,
                                    kMinMaxBlockRows, q.center().data(),
                                    q.radius(), min_out.data(), max_out.data());
  }
  m["geometry.minmax_ns_per_row"] =
      MedianUs(spans, "geometry.minmax") * 1e3 / kMinMaxBlockRows;

  // storage: pinning a read view of the mutable store.
  for (size_t b = 0; b < kPinBlocks; ++b) {
    ScopedSpan span(spans, "storage.pin");
    for (size_t i = 0; i < kPinBlock; ++i) (void)mutable_tree.Pin();
  }
  m["storage.pin_ns"] = MedianUs(spans, "storage.pin") * 1e3 / kPinBlock;

  // index writes: the seeded write stream replayed in-process.
  WriteStream writes(data, spec.insert_share, in.seed ^ 0x3417E5ull);
  for (size_t j = 0; j < kReplayWrites; ++j) {
    const WriteStream::Write write = writes.Next();
    const size_t delta_before = mutable_tree.delta_rows();
    hyperdom::Status status;
    {
      ScopedSpan span(spans, write.insert ? "index.insert" : "index.remove",
                      j + 1);
      status = write.insert ? mutable_tree.Insert(write.sphere, write.id)
                            : mutable_tree.Remove(write.id);
      // A write that pushes the delta past its threshold runs the
      // compaction inline; its time belongs to the compaction.
      if (mutable_tree.delta_rows() < delta_before) {
        span.set_name("index.compaction");
      }
    }
    Require(status, write.insert ? "MutableSsTree::Insert"
                                 : "MutableSsTree::Remove");
    writes.Ack(write, true);
  }
  m["index.insert_us"] = MedianUs(spans, "index.insert");
  m["index.remove_us"] = MedianUs(spans, "index.remove");
  m["index.compaction_ms"] = MedianUs(spans, "index.compaction") / 1e3;
  return out;
}

}  // namespace perfbench
