// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "workload.h"

#include <algorithm>
#include <cmath>

#include "data/generator.h"

namespace perfbench {

using hyperdom::Hypersphere;

namespace {

constexpr double kCenterMean = 1000.0;
constexpr double kCenterStddev = 250.0;
constexpr double kRadiusMean = 10.0;
constexpr double kRadiusSigmaRatio = 0.25;

// `rungs` rates above `reference`, each 10% above the one before.
std::vector<double> Ladder(double reference, size_t rungs) {
  std::vector<double> out;
  double rate = reference;
  for (size_t i = 0; i < rungs; ++i) {
    rate *= 1.1;
    out.push_back(std::round(rate));
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(2);
    w[0].name = "point_d4";
    w[0].reference_knn_qps = 650;
    w[0].ladder_knn_qps = Ladder(w[0].reference_knn_qps, 20);
    w[0].knn_limit_ms = 25.0;
    w[0].query_pool = 64;
    w[0].data_variants = 5;

    w[1].name = "mixed_d4_writes";
    w[1].mutable_store = true;
    w[1].writes_per_knn = 3.0;
    w[1].reference_knn_qps = 150;
    w[1].ladder_knn_qps = Ladder(w[1].reference_knn_qps, 20);
    w[1].knn_limit_ms = 100.0;
    w[1].query_pool = 48;
    w[1].data_variants = 5;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<Hypersphere> MakeDataset(uint64_t seed) {
  hyperdom::SyntheticSpec synthetic;
  synthetic.n = 100'000;
  synthetic.dim = 4;
  synthetic.radius_mean = kRadiusMean;
  synthetic.radius_sigma_ratio = kRadiusSigmaRatio;
  synthetic.center_mean = kCenterMean;
  synthetic.center_stddev = kCenterStddev;
  synthetic.seed = seed;
  return hyperdom::GenerateSynthetic(synthetic);
}

WriteStream::WriteStream(const std::vector<Hypersphere>& initial,
                         double insert_share, uint64_t seed)
    : rng_(seed),
      insert_share_(insert_share),
      dim_(initial.empty() ? 0 : initial.front().dim()),
      rows_(initial) {
  live_ids_.resize(rows_.size());
  live_pos_.resize(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    live_ids_[i] = i;
    live_pos_[i] = static_cast<int64_t>(i);
  }
}

WriteStream::Write WriteStream::Next() {
  Write write;
  write.insert = live_ids_.empty() || rng_.NextDouble() < insert_share_;
  if (!write.insert) {
    write.id = live_ids_[rng_.UniformU64(live_ids_.size())];
    return write;
  }
  // Same distribution as the Gaussian datasets, so inserts land among the
  // existing rows rather than in an empty corner of the space.
  hyperdom::Point center(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    center[d] = rng_.Gaussian(kCenterMean, kCenterStddev);
  }
  const double radius = std::max(
      0.0, rng_.Gaussian(kRadiusMean, kRadiusMean * kRadiusSigmaRatio));
  write.id = rows_.size();
  write.sphere = Hypersphere(std::move(center), radius);
  rows_.push_back(write.sphere);
  live_pos_.push_back(-1);
  return write;
}

void WriteStream::Ack(const Write& write, bool applied) {
  if (!applied) return;
  if (write.insert) {
    live_pos_[write.id] = static_cast<int64_t>(live_ids_.size());
    live_ids_.push_back(write.id);
    return;
  }
  const int64_t pos = live_pos_[write.id];
  const uint64_t moved = live_ids_.back();
  live_ids_[static_cast<size_t>(pos)] = moved;
  live_pos_[moved] = pos;
  live_ids_.pop_back();
  live_pos_[write.id] = -1;
}

void WriteStream::Live(std::vector<Hypersphere>* spheres,
                       std::vector<uint64_t>* ids) const {
  spheres->clear();
  ids->clear();
  for (size_t id = 0; id < rows_.size(); ++id) {
    if (live_pos_[id] < 0) continue;
    spheres->push_back(rows_[id]);
    ids->push_back(id);
  }
}

}  // namespace perfbench
