// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// perfbench_driver: one benchmark run of one workload against the shipped
// hyperdom_server. perfbench/run.py builds it and passes the paths; the
// README describes the workloads, phases and metrics.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=T --trace=0|1
//       --server-bin=PATH --work-dir=DIR --results-dir=DIR
//       [--git-sha=SHA] [--source-digest=HEX]
//
// --trace=0 measures the end-to-end metrics; --trace=1 is the separate
// traced run that gives the per-layer metrics. The last line of stdout is
// the result as one JSON object. Exit codes: 0 done and correct, 1 a wrong
// answer or a failed run, 2 a usage error (reported before any work).

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build_info.h"
#include "data/csv.h"
#include "dominance/criterion.h"
#include "eval/workload.h"
#include "exec/batch.h"
#include "geometry/point.h"
#include "index/ss_tree.h"
#include "json.h"
#include "layers.h"
#include "loadgen.h"
#include "query/knn.h"
#include "require.h"
#include "server_process.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using hyperdom::Hypersphere;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names and units.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"knn_best_p50_ms", "ms"},
    {"cpu_us_per_op", "us"},
    {"server_rss_mb", "MiB"},
};

// Printed and kept in the result record, not in BENCHMARK.json: the write
// figures and failed_frac read 0 (no writes, no failures) on the read-only
// workloads, and the kNN p50 and p99, the ladder's knn_slo_qps and the
// end-of-run peak RSS spread wider from run to run on a shared host than
// any bound a gate may use (README.md).
constexpr MetricDef kEndToEndExtra[] = {
    {"knn_p50_ms", "ms"},        {"knn_p99_ms", "ms"},
    {"knn_slo_qps", "1/s"},      {"server_rss_end_mb", "MiB"},
    {"write_p50_ms", "ms"},      {"write_p99_ms", "ms"},
    {"failed_frac", "ratio"}};

constexpr MetricDef kPerLayer[] = {
    {"server.tax_us", "us"},
    {"server.request_us", "us"},
    {"protocol.response_bytes", "B"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"query.search_us", "us"},
    {"query.nodes_visited", "count"},
    {"query.entries_accessed", "count"},
    {"query.dominance_checks", "count"},
    {"query.answers", "count"},
    {"query.prune_ratio", "ratio"},
    {"dominance.decide_ns", "ns"},
    {"dominance.share", "ratio"},
    {"geometry.minmax_ns_per_row", "ns"},
    {"data.csv_load_s", "s"},
    {"index.bulk_load_s", "s"},
    {"index.insert_us", "us"},
    {"index.remove_us", "us"},
    {"index.compactions", "count"},
    {"index.compaction_ms", "ms"},
    {"index.write_conflicts", "count"},
    {"storage.pin_ns", "ns"},
    {"storage.epoch_lag_max", "count"},
    {"shard.knn_us", "us"},
    {"shard.scatter_us", "us"},
    {"shard.merge_us", "us"},
    {"shard.check_amplification", "ratio"},
    {"obs.scrape_ms", "ms"},
    {"obs.scrape_bytes", "B"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.knn_p50_overhead_ms", "ms"},
};

// ---------------------------------------------------------------------------
// Run shape.

/// Server starts per end-to-end run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Share of the timed window spent at the reference rate; the rest is
/// split across the ladder rungs.
constexpr double kReferenceShare = 0.75;
/// Pool entries sent one at a time on an idle connection before the load:
/// a correctness pre-check and, in the traced run, server.tax_us.
constexpr size_t kSerialQueries = 64;
/// Sub-windows per ladder rung.
constexpr size_t kRungParts = 3;
/// kNN per reference window (see Run()).
constexpr double kWindowKnn = 100.0;
/// In-process probe queries in the traced run.
constexpr size_t kProbeQueries = 64;
/// Served answers per server checked against KnnLinearScan after the
/// writes stop.
constexpr size_t kFinalCheckQueries = 8;

// Bisection steps that settle a ladder of `rungs` rates above the
// reference rate.
size_t LadderSteps(size_t rungs) {
  size_t steps = 0;
  while ((size_t{1} << steps) < rungs + 1) ++steps;
  return std::max<size_t>(steps, 1);
}

double WarmupSeconds(double seconds) {
  return std::clamp(0.1 * seconds, 0.5, 2.0);
}

// ---------------------------------------------------------------------------
// Flags.

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string server_bin;
  std::string work_dir;
  std::string results_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload=NAME "
               "--seed=N --seconds=T --trace=0|1 --server-bin=PATH "
               "--work-dir=DIR --results-dir=DIR [--git-sha=SHA] "
               "[--source-digest=HEX]\n",
               message.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> raw;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) UsageError("unexpected argument '" + arg + "'");
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) UsageError("expected --flag=value, got " + arg);
    raw[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  Flags flags;
  auto take = [&](const std::string& key, bool required) -> std::string {
    auto it = raw.find(key);
    if (it == raw.end()) {
      if (required) UsageError("missing --" + key);
      return "";
    }
    std::string value = it->second;
    raw.erase(it);
    return value;
  };
  auto parse_uint = [](const std::string& key, const std::string& text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-') {
      UsageError("bad --" + key + " '" + text + "'");
    }
    return static_cast<uint64_t>(v);
  };
  flags.workload = take("workload", true);
  flags.seed = parse_uint("seed", take("seed", true));
  const uint64_t seconds = parse_uint("seconds", take("seconds", true));
  const uint64_t trace = parse_uint("trace", take("trace", true));
  flags.server_bin = take("server-bin", true);
  flags.work_dir = take("work-dir", true);
  flags.results_dir = take("results-dir", true);
  if (std::string sha = take("git-sha", false); !sha.empty()) flags.git_sha = sha;
  if (std::string digest = take("source-digest", false); !digest.empty()) {
    flags.source_digest = digest;
  }
  if (!raw.empty()) UsageError("unknown flag --" + raw.begin()->first);
  if (FindWorkload(flags.workload) == nullptr) {
    UsageError("unknown workload '" + flags.workload + "'");
  }
  if (seconds < 1 || seconds > 600) UsageError("--seconds must be in [1, 600]");
  if (trace > 1) UsageError("--trace must be 0 or 1");
  flags.seconds = static_cast<double>(seconds);
  flags.trace = static_cast<int>(trace);
  return flags;
}

// ---------------------------------------------------------------------------
// Provenance.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

JsonObject Provenance(const Flags& flags, size_t load_threads) {
  JsonObject host;
  host.Int("nproc", std::thread::hardware_concurrency())
      .Str("cpu_model", CpuModel())
      .Str("kernel_dispatch", hyperdom::KernelDispatchName())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("hyperdom_options", PERFBENCH_OPTIONS)
      .Str("git_sha", flags.git_sha)
      .Str("source_digest", flags.source_digest)
      .Int("load_threads", load_threads);
  return host;
}

// /statusz carries the server's mode: a mistyped flag would otherwise be
// ignored by hyperdom_server and silently benchmark another path.
std::string CheckMode(const std::string& statusz, const WorkloadSpec& spec,
                      std::string* build_info) {
  const std::string build_key = "\"build\":\"";
  const size_t b = statusz.find(build_key);
  const size_t s = statusz.find("\"shards\":");
  if (b == std::string::npos || s == std::string::npos) {
    return "unrecognised /statusz: " + statusz;
  }
  const size_t b_end = statusz.find('"', b + build_key.size());
  *build_info = statusz.substr(b + build_key.size(),
                               b_end - b - build_key.size());
  const size_t shards = std::strtoul(statusz.c_str() + s + 9, nullptr, 10);
  if (shards != spec.shards) {
    return "server reports " + std::to_string(shards) + " shards, want " +
           std::to_string(spec.shards);
  }
  const bool is_mutable = build_info->find("mutable") != std::string::npos;
  if (is_mutable != spec.mutable_store) {
    return "server mode '" + *build_info + "' does not match the workload";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Helpers.

std::string Fmt(double value, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// One dataset of a run, with its query pool and reference answers.
struct Variant {
  std::string csv_path;
  std::vector<Hypersphere> data;
  std::vector<Hypersphere> pool;
  std::vector<std::vector<uint64_t>> expected;
  uint64_t writes_seed = 0;
};

std::vector<std::vector<uint64_t>> ReferenceAnswers(
    const std::vector<Hypersphere>& data,
    const std::vector<Hypersphere>& queries, size_t k) {
  hyperdom::SsTree tree(data.front().dim());
  Require(tree.BulkLoad(data), "SsTree::BulkLoad");
  const auto criterion = hyperdom::MakeCriterion(hyperdom::CriterionKind::kHyperbola);
  hyperdom::KnnOptions options;
  options.k = k;
  options.strategy = hyperdom::SearchStrategy::kBestFirst;
  hyperdom::BatchOptions exec;
  exec.threads = 0;
  const hyperdom::BatchKnnResult batch =
      hyperdom::BatchKnn(tree, queries, *criterion, options, exec);
  std::vector<std::vector<uint64_t>> out;
  for (const hyperdom::KnnResult& result : batch.results) {
    std::vector<uint64_t> ids;
    for (const auto& entry : result.answers) ids.push_back(entry.id);
    out.push_back(std::move(ids));
  }
  return out;
}

// Served answers after the writes stopped, against a linear scan over the
// initial rows plus acknowledged inserts minus acknowledged removes.
// Returns the number of mismatching queries.
uint64_t FinalWriteCheck(LoadGenerator* gen, const WriteStream& writes,
                         const std::vector<Hypersphere>& pool, size_t k,
                         PhaseResult* tally, std::string* first_mismatch) {
  std::vector<Hypersphere> live;
  std::vector<uint64_t> ids;
  writes.Live(&live, &ids);
  const auto criterion = hyperdom::MakeCriterion(hyperdom::CriterionKind::kHyperbola);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < kFinalCheckQueries && i < pool.size(); ++i) {
    auto served = gen->Query(pool[i]);
    ++tally->knn.attempted;
    if (!served.ok()) {
      ++tally->knn.failed;
      continue;
    }
    const hyperdom::KnnResult reference =
        hyperdom::KnnLinearScan(live, pool[i], k, *criterion);
    std::vector<uint64_t> want;
    for (const auto& entry : reference.answers) want.push_back(ids[entry.id]);
    std::vector<uint64_t> got = *served;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got && mismatches++ == 0 && first_mismatch->empty()) {
      *first_mismatch = "final check, pool query " + std::to_string(i) +
                        ": served " + std::to_string(got.size()) +
                        " answers, linear scan " + std::to_string(want.size());
    }
  }
  return mismatches;
}

std::string PhaseLine(const PhaseResult& p) {
  std::string line = "  " + p.spec.name + " knn " + Fmt(p.spec.knn_qps, 0) +
                     "/s";
  if (p.spec.write_qps > 0) line += " + writes " + Fmt(p.spec.write_qps, 0) + "/s";
  line += " for " + Fmt(p.spec.seconds, 2) + " s: " +
          std::to_string(p.knn.attempted) + "/" +
          std::to_string(p.knn.planned) + " kNN sent, p50 " +
          Fmt(Quantile(p.knn.latency_ms, 0.5)) + " ms, p99 " +
          Fmt(Quantile(p.knn.latency_ms, 0.99)) + " ms, late p99 " +
          Fmt(Quantile(p.late_ms, 0.99)) + " ms, done " +
          Fmt(p.knn_completed_per_s, 1) + "/s";
  if (p.write.attempted > 0) {
    line += ", write p50 " + Fmt(Quantile(p.write.latency_ms, 0.5)) +
            " ms p99 " + Fmt(Quantile(p.write.latency_ms, 0.99)) + " ms";
  }
  line += p.passed ? " [meets limit]" : " [misses limit]";
  return line;
}

std::string PhaseJson(const PhaseResult& p) {
  JsonObject o;
  o.Str("name", p.spec.name)
      .Num("knn_qps", p.spec.knn_qps)
      .Num("write_qps", p.spec.write_qps)
      .Num("seconds", p.spec.seconds)
      .Int("knn_planned", p.knn.planned)
      .Int("knn_attempted", p.knn.attempted)
      .Int("knn_failed", p.knn.failed)
      .Int("knn_over_limit", p.knn.over_limit)
      .Num("knn_p50_ms", Quantile(p.knn.latency_ms, 0.5))
      .Num("knn_p95_ms", Quantile(p.knn.latency_ms, 0.95))
      .Num("knn_p99_ms", Quantile(p.knn.latency_ms, 0.99))
      .Int("write_attempted", p.write.attempted)
      .Int("write_failed", p.write.failed)
      .Num("write_p50_ms", Quantile(p.write.latency_ms, 0.5))
      .Num("write_p99_ms", Quantile(p.write.latency_ms, 0.99))
      .Num("late_p99_ms", Quantile(p.late_ms, 0.99))
      .Num("knn_completed_per_s", p.knn_completed_per_s)
      .Bool("passed", p.passed);
  return o.Serialize();
}

// Adds a phase's counts to the run's totals.
void Tally(const PhaseResult& p, uint64_t* attempted, uint64_t* failed,
           uint64_t* mismatches, std::string* first_mismatch) {
  *attempted += p.knn.attempted + p.write.attempted;
  *failed += p.knn.failed + p.write.failed;
  if (p.mismatches > 0 && *mismatches == 0) *first_mismatch = p.first_mismatch;
  *mismatches += p.mismatches;
}

// ---------------------------------------------------------------------------
// The run.

int Run(const Flags& flags, const WorkloadSpec& spec) {
  const Clock::time_point run_start = Clock::now();
  // Sleeps end within microseconds of the due time (the default 50 us
  // slack would land in every latency); load threads inherit this.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const bool traced = flags.trace == 1;
  const size_t budget_threads =
      std::min<size_t>(4, std::max(2u, std::thread::hardware_concurrency()));
  // The calling thread scrapes; the write stream has its own connection.
  const size_t readers = std::max<size_t>(
      1, budget_threads - 1 - (spec.mutable_store ? 1 : 0));

  const std::string work_dir = flags.work_dir + "/" + spec.name + "-" +
                               std::to_string(flags.seed) + "-" +
                               std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);
  std::filesystem::create_directories(flags.results_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{work_dir};

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.seconds,
              flags.trace);

  // Inputs, all from the seed: the end-to-end run serves spec.data_variants
  // datasets, variant 0 drawn from the seed itself. The reference reads
  // back the CSV the server loads, so both sides parse the same bytes.
  const size_t starts = traced ? 1 : kSetupRepeats;
  std::vector<Variant> variants(std::min(starts, spec.data_variants));
  for (size_t v = 0; v < variants.size(); ++v) {
    Variant& in = variants[v];
    const uint64_t seed = flags.seed ^ (v * 0x9E3779B97F4A7C15ull);
    in.csv_path = work_dir + "/data" + std::to_string(v) + ".csv";
    Require(hyperdom::SaveSpheresCsv(in.csv_path, MakeDataset(seed)),
            "SaveSpheresCsv");
    in.data = Require(hyperdom::LoadSpheresCsv(in.csv_path), "LoadSpheresCsv");
    in.pool = hyperdom::MakeKnnQueries(in.data, spec.query_pool,
                                       seed ^ 0x9001ull);
    in.expected = ReferenceAnswers(in.data, in.pool, spec.k);
    in.writes_seed = seed ^ 0x3417E5ull;
  }
  const double inputs_s =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  // Server starts: setup_s is their median. Every started server stays up,
  // serves the data variants in turn and part of the load (see the
  // reference windows below); on the mutable workload each has its own
  // write stream.
  ServerLaunch launch;
  launch.binary = flags.server_bin;
  launch.shards = spec.shards;
  launch.mutable_store = spec.mutable_store;
  std::vector<double> setups;
  std::vector<std::string> builds;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::vector<std::unique_ptr<WriteStream>> writes;
  const auto variant_of = [&](size_t i) -> Variant& {
    return variants[i % variants.size()];
  };
  for (size_t i = 0; i < starts; ++i) {
    launch.csv_path = variant_of(i).csv_path;
    launch.log_path = work_dir + "/server" + std::to_string(i) + ".log";
    servers.push_back(
        Require(ServerProcess::Start(launch), "starting the server"));
    setups.push_back(servers.back()->setup_seconds());
    std::string build_info;
    const std::string mode_error = CheckMode(
        Require(servers.back()->AdminGet("/statusz"), "/statusz"), spec,
        &build_info);
    if (!mode_error.empty()) throw std::runtime_error(mode_error);
    builds.push_back(build_info);
    if (spec.mutable_store) {
      writes.push_back(std::make_unique<WriteStream>(
          variant_of(i).data, spec.insert_share, variant_of(i).writes_seed));
    }
  }

  LoadGenerator gen(readers);
  // The server the load goes to; serve(i) moves the connections to server
  // i. Under writes the answers move, so once the writes start only
  // exactness is checked until the quiescent check at the end.
  ServerProcess* server = nullptr;
  bool check_ids = true;
  const auto serve = [&](size_t i) {
    server = servers[i].get();
    LoadTarget target;
    target.pool = &variant_of(i).pool;
    target.k = spec.k;
    target.expected = check_ids ? &variant_of(i).expected : nullptr;
    target.writes = writes.empty() ? nullptr : writes[i].get();
    Require(gen.Connect(server->port(), target), "connecting");
  };
  serve(servers.size() - 1);

  const Clock::time_point epoch = Clock::now();
  SpanBuffer main_spans(0, epoch);
  std::vector<std::unique_ptr<SpanBuffer>> load_spans;
  std::vector<SpanBuffer*> load_span_ptrs;
  for (size_t t = 0; t < gen.threads(); ++t) {
    load_spans.push_back(std::make_unique<SpanBuffer>(t + 1, epoch));
    load_span_ptrs.push_back(load_spans.back().get());
  }
  bool trace_scrapes = false;
  Scraper scraper([&]() -> hyperdom::Result<std::string> {
    ScopedSpan span(trace_scrapes ? &main_spans : nullptr, "obs.scrape");
    return server->AdminGet("/metrics");
  });
  const auto idle = [&] { scraper.MaybeScrape(); };

  uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::string first_mismatch;

  // Serial pre-check on an idle server, against the unsharded reference
  // (the initial rows, before any write). Its second pass gives the idle
  // round trip for server.tax_us.
  std::vector<size_t> serial_indices;
  for (size_t i = 0; i < kSerialQueries && i < spec.query_pool; ++i) {
    serial_indices.push_back(i);
  }
  PhaseResult serial;
  serial.spec.name = "serial";
  (void)gen.RunSerial(serial_indices, nullptr, &serial);
  const std::vector<double> idle_rtt_us = gen.RunSerial(
      serial_indices, traced ? &main_spans : nullptr, &serial);
  Tally(serial, &attempted, &failed, &mismatches, &first_mismatch);
  check_ids = !spec.mutable_store;

  auto phase = [&](const std::string& name, double knn_qps, double seconds,
                   bool stop_when_failing, uint64_t salt) {
    PhaseSpec p;
    p.name = name;
    p.knn_qps = knn_qps;
    p.write_qps = knn_qps * spec.writes_per_knn;
    p.seconds = seconds;
    p.limit_ms = spec.knn_limit_ms;
    p.stop_when_failing = stop_when_failing;
    p.seed = flags.seed * 1'000'003ull + salt;
    return p;
  };

  // Warm-up: caches, connections and each server's lazy state, untimed.
  // The loaded server's footprint is its set-up peak plus warm-up; the
  // later peak on the mutable workload depends on how compactions overlap
  // readers.
  const Clock::time_point warm_start = Clock::now();
  std::vector<PhaseResult> warmups;
  std::vector<double> rss_warm;
  const double warmup_each_s =
      WarmupSeconds(flags.seconds) / static_cast<double>(servers.size());
  for (size_t i = 0; i < servers.size(); ++i) {
    serve(i);
    warmups.push_back(gen.Run(phase("warmup" + std::to_string(i + 1),
                                    spec.reference_knn_qps, warmup_each_s,
                                    false, 1 + 100 * i),
                              idle, nullptr));
    Tally(warmups.back(), &attempted, &failed, &mismatches, &first_mismatch);
    rss_warm.push_back(Require(server->PeakRssMb(), "VmHWM"));
  }
  const double warmup_s =
      std::chrono::duration<double>(Clock::now() - warm_start).count();

  const auto before = Require(scraper.ScrapeNow(), "/metrics");

  std::vector<PhaseResult> phases;
  std::map<std::string, double> metrics;
  std::map<std::string, double> extra;
  const Clock::time_point timed_start = Clock::now();
  if (!traced) {
    // The reference rate runs as consecutive windows and cpu_us_per_op is
    // the median of its per-window values, so a disturbance from outside
    // the benchmark that hits a minority of the windows does not move it.
    // The windows take turns over the started servers, so the figures do
    // not rest on one process's memory layout. A window holds about
    // kWindowKnn kNN and lasts at least 1 s.
    const double reference_s = kReferenceShare * flags.seconds;
    const double min_window_s =
        std::max(1.0, kWindowKnn / spec.reference_knn_qps);
    const size_t windows = std::max<size_t>(
        servers.size(), static_cast<size_t>(reference_s / min_window_s));
    const double window_s = reference_s / static_cast<double>(windows);
    std::vector<double> cpus;
    std::vector<double> knn_latency_ms, write_latency_ms;
    // Repeats of each (variant, pool entry).
    std::vector<std::vector<double>> per_query_ms(variants.size() *
                                                  spec.query_pool);
    uint64_t reference_knn = 0, planned_knn = 0, over_limit_knn = 0;
    for (size_t w = 0; w < windows; ++w) {
      serve(w % servers.size());
      const double cpu_before = Require(server->CpuSeconds(), "CPU time");
      phases.push_back(gen.Run(phase("reference" + std::to_string(w + 1),
                                     spec.reference_knn_qps, window_s, false,
                                     2 + 100 * w),
                               idle, nullptr));
      const double cpu_after = Require(server->CpuSeconds(), "CPU time");
      const PhaseResult& p = phases.back();
      const uint64_t ops = p.knn.completed() + p.write.completed();
      reference_knn += p.knn.completed();
      planned_knn += p.knn.planned;
      over_limit_knn += p.knn.over_limit;
      const size_t variant = (w % servers.size()) % variants.size();
      for (size_t i = 0; i < p.knn.latency_ms.size(); ++i) {
        per_query_ms[variant * spec.query_pool + p.knn.pool_index[i]]
            .push_back(p.knn.latency_ms[i]);
      }
      cpus.push_back(ops == 0 ? 0.0
                              : (cpu_after - cpu_before) * 1e6 /
                                    static_cast<double>(ops));
      knn_latency_ms.insert(knn_latency_ms.end(), p.knn.latency_ms.begin(),
                            p.knn.latency_ms.end());
      write_latency_ms.insert(write_latency_ms.end(), p.write.latency_ms.begin(),
                              p.write.latency_ms.end());
    }
    metrics["setup_s"] = Median(setups);
    // knn_best_p50_ms is the median over the queries of every variant's
    // pool of each query's best latency across its repeats. A query costs
    // the same every time it runs; what varies is whether a host stall
    // (steal, a late wake-up) met it, and one repeat that no stall met is
    // enough. The p50 and p99 over all requests move with the share of
    // requests the stalls hit, which on a shared machine changes from run
    // to run.
    std::vector<double> best_ms;
    for (const std::vector<double>& repeats : per_query_ms) {
      if (!repeats.empty()) {
        best_ms.push_back(*std::min_element(repeats.begin(), repeats.end()));
      }
    }
    metrics["knn_best_p50_ms"] = Median(best_ms);
    metrics["cpu_us_per_op"] = Median(cpus);
    extra["knn_p50_ms"] = Quantile(knn_latency_ms, 0.5);
    extra["knn_p99_ms"] = Quantile(knn_latency_ms, 0.99);
    if (spec.mutable_store) {
      extra["write_p50_ms"] = Quantile(write_latency_ms, 0.5);
      extra["write_p99_ms"] = Quantile(write_latency_ms, 0.99);
    }
    // The ladder, searched by bisection: the reference rate is rung 0 and
    // must meet the limit itself. knn_slo_qps is the kNN completion rate
    // at the highest rung found to meet it.
    const std::vector<double>& ladder = spec.ladder_knn_qps;
    size_t pass = 0;                 // highest rung known to pass
    size_t fail = ladder.size() + 1;  // lowest rung known to fail
    double slo_qps = 0.0;
    // Rung 0 passes by the rule every rung uses (LoadGenerator::Run): at
    // most 1% of the planned kNN over the limit.
    if (over_limit_knn <= planned_knn / 100) {
      slo_qps = static_cast<double>(reference_knn) / reference_s;
    } else {
      fail = 0;
    }
    const double rung_s = (1.0 - kReferenceShare) * flags.seconds /
                          static_cast<double>(LadderSteps(ladder.size()));
    // Each rung runs as kRungParts sub-windows and passes when most of
    // them do, so one host stall does not decide a bisection step.
    while (fail > pass + 1) {
      const size_t mid = (pass + fail) / 2;
      size_t passed = 0;
      double passed_rate = 0.0;
      for (size_t part = 0; part < kRungParts; ++part) {
        phases.push_back(gen.Run(
            phase("rung" + std::to_string(mid) + "." + std::to_string(part + 1),
                  ladder[mid - 1], rung_s / kRungParts, true,
                  10 + 100 * mid + part),
            idle, nullptr));
        if (phases.back().passed) {
          ++passed;
          passed_rate += phases.back().knn_completed_per_s;
        }
      }
      if (2 * passed > kRungParts) {
        pass = mid;
        slo_qps = passed_rate / static_cast<double>(passed);
      } else {
        fail = mid;
      }
    }
    extra["knn_slo_qps"] = slo_qps;
  } else {
    phases.push_back(gen.Run(phase("untraced", spec.reference_knn_qps,
                                   0.25 * flags.seconds, false, 2),
                             idle, nullptr));
    trace_scrapes = true;
    phases.push_back(gen.Run(phase("traced", spec.reference_knn_qps,
                                   0.25 * flags.seconds, false, 3),
                             idle, &load_span_ptrs));
    trace_scrapes = false;
    metrics["trace.knn_p50_overhead_ms"] =
        Quantile(phases[1].knn.latency_ms, 0.5) -
        Quantile(phases[0].knn.latency_ms, 0.5);
    std::vector<double> late = phases[0].late_ms;
    late.insert(late.end(), phases[1].late_ms.begin(), phases[1].late_ms.end());
    metrics["loadgen.late_p99_ms"] = Quantile(late, 0.99);
  }
  const double timed_s =
      std::chrono::duration<double>(Clock::now() - timed_start).count();
  for (const PhaseResult& p : phases) {
    Tally(p, &attempted, &failed, &mismatches, &first_mismatch);
  }

  const auto after = Require(scraper.ScrapeNow(), "/metrics");
  const double rss_end = Require(server->PeakRssMb(), "VmHWM");
  if (!traced) {
    metrics["server_rss_mb"] = Median(rss_warm);
    extra["server_rss_end_mb"] = rss_end;
  }
  auto delta = [&](const std::string& name, const std::string& filter = "") {
    return SumSeries(after, name, filter) - SumSeries(before, name, filter);
  };
  if (traced) {
    const double requests = delta("hyperdom_server_request_duration_ns_count");
    metrics["server.request_us"] =
        requests > 0
            ? delta("hyperdom_server_request_duration_ns_sum") / requests / 1e3
            : 0.0;
    metrics["index.compactions"] = delta("hyperdom_store_compactions_total");
    metrics["index.write_conflicts"] =
        delta("hyperdom_store_mutations_total", "result=\"conflict\"");
    metrics["storage.epoch_lag_max"] = scraper.epoch_lag_max();
    metrics["obs.scrape_ms"] = Median(scraper.scrape_ms());
    metrics["obs.scrape_bytes"] = Median(scraper.scrape_bytes());
  }

  for (size_t i = 0; i < writes.size(); ++i) {
    serve(i);
    PhaseResult final_check;
    mismatches += FinalWriteCheck(&gen, *writes[i], variant_of(i).pool,
                                  spec.k, &final_check, &first_mismatch);
    attempted += final_check.knn.attempted;
    failed += final_check.knn.failed;
  }
  for (auto& s : servers) Require(s->Stop(), "stopping the server");
  servers.clear();
  server = nullptr;

  // The traced run's in-process probes, with the server gone.
  std::string spans_path;
  if (traced) {
    LayerInputs inputs;
    inputs.spec = &spec;
    inputs.data = &variants[0].data;
    inputs.csv_path = variants[0].csv_path;
    inputs.seed = flags.seed;
    for (size_t i = 0; i < kProbeQueries && i < spec.query_pool; ++i) {
      inputs.queries.push_back(variants[0].pool[i]);
    }
    const LayerResult layers = RunLayerProbes(inputs, &main_spans);
    for (const auto& [name, value] : layers.metrics) metrics[name] = value;
    metrics["server.tax_us"] = Median(idle_rtt_us) - layers.served_search_us;

    std::vector<const SpanBuffer*> buffers = {&main_spans};
    for (const auto& buffer : load_spans) buffers.push_back(buffer.get());
    const std::vector<Span> spans = MergeSpans(buffers);
    spans_path = flags.results_dir + "/spans-" + spec.name + "-seed" +
                 std::to_string(flags.seed) + ".json";
    Require(WriteSpans(spans, spans_path), "writing spans");
    std::printf("spans (%zu) -> %s\n  %-26s %8s %12s %12s\n", spans.size(),
                spans_path.c_str(), "span", "count", "median_us",
                "self_med_us");
    for (const auto& [name, summary] : SummarizeSpans(spans)) {
      std::printf("  %-26s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(summary.duration_us.size()),
                  Quantile(summary.duration_us, 0.5),
                  Quantile(summary.self_us, 0.5));
    }
  }
  extra["failed_frac"] =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) / static_cast<double>(attempted);

  // Report.
  const bool correct = mismatches == 0;
  JsonObject host = Provenance(flags, gen.threads() + 1);
  std::printf("host: %s\n", host.Serialize().c_str());
  std::printf("server builds: ");
  for (const std::string& b : builds) std::printf("[%s] ", b.c_str());
  std::printf("\ninputs %.3f s; setup_s runs:", inputs_s);
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\nwarm-up %.2f s (untimed):\n", warmup_s);
  for (const PhaseResult& p : warmups) {
    std::printf("%s\n", PhaseLine(p).c_str());
  }
  std::printf("timed window %.2f s:\n", timed_s);
  for (const PhaseResult& p : phases) std::printf("%s\n", PhaseLine(p).c_str());
  if (!correct) std::printf("WRONG ANSWERS: %llu (first: %s)\n",
                            static_cast<unsigned long long>(mismatches),
                            first_mismatch.c_str());

  JsonObject summary_metrics;
  JsonObject record_metrics;
  auto emit = [&](const MetricDef& def, double value, bool gated) {
    std::printf("metric %-28s %.6g %s\n", def.name, value, def.unit);
    JsonObject entry;
    entry.Num("value", value).Str("unit", def.unit);
    if (gated) summary_metrics.Raw(def.name, entry.Serialize());
    record_metrics.Raw(def.name, entry.Serialize());
  };
  if (!traced) {
    for (const MetricDef& def : kEndToEnd) emit(def, metrics.at(def.name), true);
    for (const MetricDef& def : kEndToEndExtra) {
      if (extra.count(def.name)) emit(def, extra.at(def.name), false);
    }
  } else {
    for (const MetricDef& def : kPerLayer) emit(def, metrics.at(def.name), true);
  }

  std::vector<std::string> phase_json;
  for (const PhaseResult& p : phases) phase_json.push_back(PhaseJson(p));
  std::vector<std::string> warmup_json;
  for (const PhaseResult& p : warmups) warmup_json.push_back(PhaseJson(p));
  std::vector<std::string> build_json;
  for (const std::string& b : builds) build_json.push_back(JsonString(b));
  std::vector<std::string> setup_json;
  for (double s : setups) setup_json.push_back(JsonNumber(s));
  JsonObject record;
  record.Str("schema", "perfbench-result-v1")
      .Str("workload", spec.name)
      .Int("seed", flags.seed)
      .Num("seconds", flags.seconds)
      .Int("trace", static_cast<uint64_t>(flags.trace))
      .Int("unix_time", static_cast<uint64_t>(std::time(nullptr)))
      .Raw("host", host.Serialize())
      .Raw("server_builds", JsonArray(build_json))
      .Raw("setup_runs_s", JsonArray(setup_json))
      .Num("inputs_s", inputs_s)
      .Num("warmup_s", warmup_s)
      .Raw("warmup", JsonArray(warmup_json))
      .Num("timed_s", timed_s)
      .Raw("phases", JsonArray(phase_json))
      .Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Int("mismatches", mismatches)
      .Str("first_mismatch", first_mismatch)
      .Int("scrape_failures", scraper.failures())
      .Str("spans", spans_path)
      .Raw("metrics", record_metrics.Serialize());
  const std::string record_path = flags.results_dir + "/" + spec.name +
                                  "-seed" + std::to_string(flags.seed) +
                                  "-trace" + std::to_string(flags.trace) +
                                  ".json";
  std::ofstream(record_path, std::ios::trunc) << record.Serialize() << "\n";
  std::printf("record -> %s\n", record_path.c_str());

  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("metrics", summary_metrics.Serialize());
  std::printf("%s\n", result.Serialize().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Flags flags = perfbench::ParseFlags(argc, argv);
  try {
    return perfbench::Run(flags, *perfbench::FindWorkload(flags.workload));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
