// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The benchmark's workloads: what data the server loads, how it is
// served, and the traffic it receives. perfbench/README.md gives the
// reason for each workload and the layer each one stresses.

#ifndef PERFBENCH_DRIVER_WORKLOAD_H_
#define PERFBENCH_DRIVER_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "geometry/hypersphere.h"

namespace perfbench {

/// Every workload serves N = 100k, d = 4 spheres with Gaussian centers
/// (1000, 250) and radii mu = 10: the data spec of bench/server_load.
struct WorkloadSpec {
  std::string name;
  size_t shards = 0;           ///< --shards for the server; 0 = unsharded
  bool mutable_store = false;  ///< --mutable=1
  size_t k = 10;
  /// Writes per kNN query (mutable workloads only); the write mix is
  /// `insert_share` inserts, the rest removes of live ids.
  double writes_per_knn = 0.0;
  double insert_share = 0.75;
  /// kNN arrivals per second for the latency and CPU figures.
  double reference_knn_qps = 0.0;
  /// Rates tried above the reference rate, ascending.
  std::vector<double> ladder_knn_qps;
  /// kNN p99 limit (due time to response) that a rate must meet.
  double knn_limit_ms = 0.0;
  /// Queries cycle through a seeded pool of this many data spheres per
  /// dataset; a small pool makes each query repeat (knn_best_p50_ms).
  size_t query_pool = 0;
  /// Datasets (each with its own query pool) per end-to-end run, served
  /// by the started servers in turn, so a run's figures do not rest on one
  /// draw of the data.
  size_t data_variants = 1;
};

const std::vector<WorkloadSpec>& Workloads();

/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The workloads' dataset drawn from `seed`.
std::vector<hyperdom::Hypersphere> MakeDataset(uint64_t seed);

/// \brief The seeded write stream of a mutable workload: inserts under
/// fresh ids and removes of ids known to be live.
///
/// Writes are applied (or sent) one at a time: Next() proposes a write
/// against the acknowledged state and Ack() records whether it landed,
/// so a remove only ever names an id whose insert was acknowledged.
class WriteStream {
 public:
  struct Write {
    bool insert = true;
    uint64_t id = 0;
    hyperdom::Hypersphere sphere;  ///< inserts only
  };

  /// Ids 0..initial.size()-1 are the initial rows (the server seeds row
  /// numbers as ids); inserts take ids from initial.size() upward.
  WriteStream(const std::vector<hyperdom::Hypersphere>& initial,
              double insert_share, uint64_t seed);

  Write Next();
  void Ack(const Write& write, bool applied);

  /// The acknowledged live rows and their ids.
  void Live(std::vector<hyperdom::Hypersphere>* spheres,
            std::vector<uint64_t>* ids) const;

 private:
  hyperdom::Rng rng_;
  double insert_share_;
  size_t dim_;
  std::vector<hyperdom::Hypersphere> rows_;  // indexed by id
  std::vector<uint64_t> live_ids_;
  std::vector<int64_t> live_pos_;  // id -> index in live_ids_, -1 if dead
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOAD_H_
