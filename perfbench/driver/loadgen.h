// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Open-loop load over HDNP. Arrivals follow a seeded Poisson schedule and
// every operation is timed from the moment it was DUE, not from when a
// connection got round to sending it: when all connections are busy the
// wait lands in the latency, so a generator that falls behind shows up
// instead of quietly lowering the offered load. How late each send was is
// reported on its own.
//
// Connections are synchronous (server::Client), one per load thread; kNN
// threads share one arrival schedule and writes go through a single
// connection in schedule order, so every remove names an id whose insert
// was already acknowledged.

#ifndef PERFBENCH_DRIVER_LOADGEN_H_
#define PERFBENCH_DRIVER_LOADGEN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/hypersphere.h"
#include "server/client.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

struct LoadTarget {
  const std::vector<hyperdom::Hypersphere>* pool = nullptr;
  size_t k = 10;
  /// Expected answer ids per pool entry, in server order. Null: answers
  /// are only required to be exact (the store is changing under writes).
  const std::vector<std::vector<uint64_t>>* expected = nullptr;
  /// Null when the workload sends no writes.
  WriteStream* writes = nullptr;
};

struct PhaseSpec {
  std::string name;
  double knn_qps = 0.0;
  double write_qps = 0.0;
  double seconds = 0.0;
  double limit_ms = 0.0;
  /// Ladder rungs stop sending once the rung can no longer pass, so an
  /// overloaded rung costs little time. Unsent operations are not counted
  /// as attempted.
  bool stop_when_failing = false;
  uint64_t seed = 0;
};

struct OpTally {
  /// Due-to-response latency of every attempted operation; +inf for one
  /// that failed (a failure misses any limit).
  std::vector<double> latency_ms;
  /// Pool entry of each kNN, parallel to latency_ms; empty for writes.
  std::vector<size_t> pool_index;
  uint64_t planned = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< refused, errored, timed out or inexact
  uint64_t over_limit = 0;  ///< failed, or slower than the phase limit

  uint64_t completed() const { return attempted - failed; }
};

struct PhaseResult {
  PhaseSpec spec;
  OpTally knn;
  OpTally write;
  std::vector<double> late_ms;  ///< send time minus due time, every send
  uint64_t mismatches = 0;
  std::string first_mismatch;
  bool stopped_early = false;
  /// kNN p99 within the limit, every planned kNN sent, and the sends
  /// keeping up with the schedule (send lateness p99 within the limit).
  bool passed = false;
  double knn_completed_per_s = 0.0;
};

class LoadGenerator {
 public:
  /// `connections` kNN connections, plus one write connection when the
  /// target has writes.
  explicit LoadGenerator(size_t connections) : connections_(connections) {}

  /// (Re)opens every connection, to the server on `port` that serves
  /// `target`, and pings it.
  hyperdom::Status Connect(uint16_t port, const LoadTarget& target);

  size_t threads() const {
    return readers_.size() + (writer_ != nullptr ? 1 : 0);
  }

  /// Runs one phase. The calling thread runs `idle` about every 20 ms
  /// while the load threads work (the admin-plane scrape). `spans`, when
  /// given, holds one buffer per load thread (threads() of them).
  PhaseResult Run(const PhaseSpec& spec, const std::function<void()>& idle,
                  const std::vector<SpanBuffer*>* spans);

  /// Sends the pool entries `indices` one at a time on an otherwise idle
  /// connection, checking each answer. Returns the round-trip times (us).
  std::vector<double> RunSerial(const std::vector<size_t>& indices,
                                SpanBuffer* spans, PhaseResult* tally);

  /// One kNN round trip; the served answer ids in server order.
  hyperdom::Result<std::vector<uint64_t>> Query(
      const hyperdom::Hypersphere& query);

 private:
  void ReaderLoop(size_t reader, const PhaseSpec& spec,
                  const std::vector<double>& due_s,
                  std::chrono::steady_clock::time_point start,
                  SpanBuffer* spans, PhaseResult* out);
  void WriterLoop(const PhaseSpec& spec, const std::vector<double>& due_s,
                  std::chrono::steady_clock::time_point start,
                  SpanBuffer* spans, PhaseResult* out);
  /// Empty when `response` is exact and matches the expected answer of
  /// pool entry `index`; otherwise what differs.
  std::string CheckAnswer(size_t index,
                          const hyperdom::server::KnnResponse& response) const;

  size_t connections_;
  LoadTarget target_;
  // Per-phase state shared by the load threads.
  std::atomic<size_t> next_knn_{0};
  std::atomic<uint64_t> knn_over_limit_{0};
  std::atomic<bool> stop_{false};
  uint64_t allowed_over_limit_ = 0;

  std::vector<std::unique_ptr<hyperdom::server::Client>> readers_;
  std::unique_ptr<hyperdom::server::Client> writer_;
  size_t pool_cursor_ = 0;  // queries cycle through the pool across phases
};

/// The 1 Hz /metrics scrape a monitoring system would run, and what it
/// shows of the server's own counters.
class Scraper {
 public:
  using FetchFn = std::function<hyperdom::Result<std::string>()>;
  explicit Scraper(FetchFn fetch) : fetch_(std::move(fetch)) {}

  /// Scrapes when a second has passed since the last scrape.
  void MaybeScrape();
  /// Scrapes now; returns the exposition parsed as series -> value.
  hyperdom::Result<std::map<std::string, double>> ScrapeNow();

  const std::vector<double>& scrape_ms() const { return scrape_ms_; }
  const std::vector<double>& scrape_bytes() const { return scrape_bytes_; }
  double epoch_lag_max() const { return epoch_lag_max_; }
  uint64_t failures() const { return failures_; }

 private:
  FetchFn fetch_;
  std::chrono::steady_clock::time_point next_{};
  std::vector<double> scrape_ms_;
  std::vector<double> scrape_bytes_;
  double epoch_lag_max_ = 0.0;
  uint64_t failures_ = 0;
};

/// Prometheus text exposition -> {"name{labels}": value}.
std::map<std::string, double> ParsePrometheus(const std::string& text);
/// Sum of every series of metric `name` (all label sets) whose labels
/// contain `label_filter` (empty: all).
double SumSeries(const std::map<std::string, double>& series,
                 const std::string& name,
                 const std::string& label_filter = "");

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LOADGEN_H_
