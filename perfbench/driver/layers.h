// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The traced run's in-process probes: each layer's public functions
// called on the workload's own data, with a span around every call. A
// probe runs on every workload's data, also for a layer the workload's
// server leaves idle (the shard probe on an unsharded workload, say), so
// every per-layer figure is defined on every workload.

#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geometry/hypersphere.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  const std::vector<hyperdom::Hypersphere>* data = nullptr;
  std::string csv_path;
  /// The queries every query/shard/protocol probe runs, in this order.
  std::vector<hyperdom::Hypersphere> queries;
  uint64_t seed = 0;
};

struct LayerResult {
  std::map<std::string, double> metrics;  ///< per_layer name -> value
  /// Median in-process time of the call the server makes per kNN
  /// (SS-tree search, ShardedKnn or MutableKnn), for server.tax_us.
  double served_search_us = 0.0;
};

/// Runs every probe, recording spans into `spans`; the figures derive
/// from those spans.
LayerResult RunLayerProbes(const LayerInputs& inputs, SpanBuffer* spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
