// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/rng.h"

namespace perfbench {

using hyperdom::Hypersphere;
using hyperdom::Result;
using hyperdom::Status;
using hyperdom::server::Client;
using hyperdom::server::KnnRequest;
using hyperdom::server::KnnResponse;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Arrival offsets (seconds from the phase start) of a Poisson process.
std::vector<double> PoissonArrivals(double rate, double seconds,
                                    hyperdom::Rng* rng) {
  std::vector<double> out;
  if (rate <= 0.0) return out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= seconds) return out;
    out.push_back(t);
  }
}

Clock::time_point DueAt(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

std::unique_ptr<Client> MakeClient(uint16_t port, uint64_t jitter_seed) {
  hyperdom::server::ClientOptions options;
  options.port = port;
  // One attempt: a refusal or timeout is a failure to count, not to hide.
  options.max_attempts = 1;
  options.jitter_seed = jitter_seed;
  return std::make_unique<Client>(options);
}

void Record(OpTally* tally, bool ok, double latency_ms, double limit_ms) {
  ++tally->attempted;
  if (!ok) ++tally->failed;
  tally->latency_ms.push_back(ok ? latency_ms : kInf);
  if (!ok || latency_ms > limit_ms) ++tally->over_limit;
}

void Merge(const OpTally& from, OpTally* into) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->pool_index.insert(into->pool_index.end(), from.pool_index.begin(),
                          from.pool_index.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->over_limit += from.over_limit;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Status LoadGenerator::Connect(uint16_t port, const LoadTarget& target) {
  target_ = target;
  readers_.clear();
  for (size_t i = 0; i < connections_; ++i) {
    readers_.push_back(MakeClient(port, 0x5EED0000u + i));
  }
  writer_.reset();
  if (target_.writes != nullptr) writer_ = MakeClient(port, 0x5EEDFFFFu);
  for (auto& client : readers_) HYPERDOM_RETURN_NOT_OK(client->Ping());
  if (writer_ != nullptr) HYPERDOM_RETURN_NOT_OK(writer_->Ping());
  return Status::OK();
}

std::string LoadGenerator::CheckAnswer(size_t index,
                                       const KnnResponse& response) const {
  if (response.completeness != hyperdom::Completeness::kExact) {
    return "inexact answer for pool query " + std::to_string(index);
  }
  if (target_.expected == nullptr) return "";
  const std::vector<uint64_t>& want = (*target_.expected)[index];
  bool same = want.size() == response.answers.size();
  for (size_t i = 0; same && i < want.size(); ++i) {
    same = want[i] == response.answers[i].id;
  }
  if (same) return "";
  return "pool query " + std::to_string(index) + ": served " +
         std::to_string(response.answers.size()) + " answers, reference " +
         std::to_string(want.size()) + " (ids differ)";
}

void LoadGenerator::ReaderLoop(size_t reader, const PhaseSpec& spec,
                               const std::vector<double>& due_s,
                               Clock::time_point start, SpanBuffer* spans,
                               PhaseResult* out) {
  Client& client = *readers_[reader];
  const std::vector<Hypersphere>& pool = *target_.pool;
  KnnRequest request;
  request.k = static_cast<uint32_t>(target_.k);
  for (;;) {
    const size_t j = next_knn_.fetch_add(1);
    if (j >= due_s.size() || stop_.load()) return;
    const Clock::time_point due = DueAt(start, due_s[j]);
    std::this_thread::sleep_until(due);
    if (stop_.load()) return;
    ScopedSpan op(spans, "loadgen.knn", j + 1);
    const Clock::time_point sent = Clock::now();
    const size_t index = (pool_cursor_ + j) % pool.size();
    request.query = pool[index];
    Result<KnnResponse> response = Status::Internal("not sent");
    {
      ScopedSpan rpc(spans, "client.knn");
      response = client.Knn(request);
    }
    const double latency_ms = MillisBetween(due, Clock::now());
    out->late_ms.push_back(MillisBetween(due, sent));
    std::string mismatch;
    if (response.ok()) {
      ScopedSpan check(spans, "check.answers");
      mismatch = CheckAnswer(index, *response);
    }
    const bool exact = response.ok() &&
                       response->completeness == hyperdom::Completeness::kExact;
    if (!mismatch.empty() && exact) {
      if (out->mismatches++ == 0) out->first_mismatch = mismatch;
    }
    Record(&out->knn, exact, latency_ms, spec.limit_ms);
    out->knn.pool_index.push_back(index);
    if (!exact || latency_ms > spec.limit_ms) {
      if (knn_over_limit_.fetch_add(1) + 1 > allowed_over_limit_ &&
          spec.stop_when_failing) {
        stop_.store(true);
      }
    }
  }
}

void LoadGenerator::WriterLoop(const PhaseSpec& spec,
                               const std::vector<double>& due_s,
                               Clock::time_point start, SpanBuffer* spans,
                               PhaseResult* out) {
  WriteStream& writes = *target_.writes;
  for (size_t j = 0; j < due_s.size(); ++j) {
    const Clock::time_point due = DueAt(start, due_s[j]);
    std::this_thread::sleep_until(due);
    if (stop_.load()) return;
    ScopedSpan op(spans, "loadgen.write", j + 1);
    const WriteStream::Write write = writes.Next();
    const Clock::time_point sent = Clock::now();
    bool ok = false;
    {
      ScopedSpan rpc(spans, write.insert ? "client.insert" : "client.remove");
      if (write.insert) {
        hyperdom::server::InsertRequest request;
        request.id = write.id;
        request.sphere = write.sphere;
        ok = writer_->Insert(request).ok();
      } else {
        hyperdom::server::RemoveRequest request;
        request.id = write.id;
        ok = writer_->Remove(request).ok();
      }
    }
    writes.Ack(write, ok);
    out->late_ms.push_back(MillisBetween(due, sent));
    Record(&out->write, ok, MillisBetween(due, Clock::now()), spec.limit_ms);
  }
}

PhaseResult LoadGenerator::Run(const PhaseSpec& spec,
                               const std::function<void()>& idle,
                               const std::vector<SpanBuffer*>* spans) {
  PhaseResult result;
  result.spec = spec;
  hyperdom::Rng rng(spec.seed);
  hyperdom::Rng write_rng = rng.Fork(1);
  const std::vector<double> knn_due =
      PoissonArrivals(spec.knn_qps, spec.seconds, &rng);
  const std::vector<double> write_due =
      writer_ != nullptr
          ? PoissonArrivals(spec.write_qps, spec.seconds, &write_rng)
          : std::vector<double>{};
  result.knn.planned = knn_due.size();
  result.write.planned = write_due.size();

  next_knn_.store(0);
  knn_over_limit_.store(0);
  stop_.store(false);
  // p99 within the limit: at most 1% of the planned kNN may miss it.
  allowed_over_limit_ = knn_due.size() / 100;

  std::vector<PhaseResult> parts(threads());
  std::atomic<size_t> running{threads()};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> workers;
  for (size_t r = 0; r < readers_.size(); ++r) {
    SpanBuffer* buffer = spans != nullptr ? (*spans)[r] : nullptr;
    workers.emplace_back([&, r, buffer] {
      ReaderLoop(r, spec, knn_due, start, buffer, &parts[r]);
      running.fetch_sub(1);
    });
  }
  if (writer_ != nullptr) {
    const size_t w = readers_.size();
    SpanBuffer* buffer = spans != nullptr ? (*spans)[w] : nullptr;
    workers.emplace_back([&, w, buffer] {
      WriterLoop(spec, write_due, start, buffer, &parts[w]);
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    if (idle) idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (std::thread& worker : workers) worker.join();
  pool_cursor_ += knn_due.size();

  for (const PhaseResult& part : parts) {
    Merge(part.knn, &result.knn);
    Merge(part.write, &result.write);
    result.late_ms.insert(result.late_ms.end(), part.late_ms.begin(),
                          part.late_ms.end());
    if (part.mismatches > 0 && result.mismatches == 0) {
      result.first_mismatch = part.first_mismatch;
    }
    result.mismatches += part.mismatches;
  }
  result.stopped_early = stop_.load();
  result.passed = !result.stopped_early &&
                  result.knn.attempted == result.knn.planned &&
                  result.knn.over_limit <= allowed_over_limit_ &&
                  Quantile(result.late_ms, 0.99) <= spec.limit_ms;
  result.knn_completed_per_s =
      static_cast<double>(result.knn.completed()) / spec.seconds;
  return result;
}

std::vector<double> LoadGenerator::RunSerial(const std::vector<size_t>& indices,
                                             SpanBuffer* spans,
                                             PhaseResult* tally) {
  std::vector<double> rtt_us;
  KnnRequest request;
  request.k = static_cast<uint32_t>(target_.k);
  for (size_t index : indices) {
    request.query = (*target_.pool)[index];
    const Clock::time_point sent = Clock::now();
    Result<KnnResponse> response = Status::Internal("not sent");
    {
      ScopedSpan rpc(spans, "server.rtt", index + 1);
      response = readers_[0]->Knn(request);
    }
    const double ms = MillisBetween(sent, Clock::now());
    const bool ok = response.ok();
    Record(&tally->knn, ok, ms, kInf);
    if (!ok) continue;
    rtt_us.push_back(ms * 1e3);
    const std::string mismatch = CheckAnswer(index, *response);
    if (!mismatch.empty() && tally->mismatches++ == 0) {
      tally->first_mismatch = mismatch;
    }
  }
  return rtt_us;
}

Result<std::vector<uint64_t>> LoadGenerator::Query(const Hypersphere& query) {
  KnnRequest request;
  request.k = static_cast<uint32_t>(target_.k);
  request.query = query;
  Result<KnnResponse> response = readers_[0]->Knn(request);
  if (!response.ok()) return response.status();
  if (response->completeness != hyperdom::Completeness::kExact) {
    return Status::Internal("inexact answer");
  }
  std::vector<uint64_t> ids;
  for (const auto& entry : response->answers) ids.push_back(entry.id);
  return ids;
}

void Scraper::MaybeScrape() {
  if (Clock::now() < next_) return;
  (void)ScrapeNow();
}

Result<std::map<std::string, double>> Scraper::ScrapeNow() {
  const Clock::time_point start = Clock::now();
  next_ = start + std::chrono::seconds(1);
  Result<std::string> text = fetch_();
  if (!text.ok()) {
    ++failures_;
    return text.status();
  }
  scrape_ms_.push_back(MillisBetween(start, Clock::now()));
  scrape_bytes_.push_back(static_cast<double>(text->size()));
  std::map<std::string, double> series = ParsePrometheus(*text);
  auto lag = series.find("hyperdom_store_epoch_lag");
  if (lag != series.end()) {
    epoch_lag_max_ = std::max(epoch_lag_max_, lag->second);
  }
  return series;
}

std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double SumSeries(const std::map<std::string, double>& series,
                 const std::string& name, const std::string& label_filter) {
  double sum = 0.0;
  for (auto it = series.lower_bound(name);
       it != series.end() && it->first.compare(0, name.size(), name) == 0;
       ++it) {
    const std::string& key = it->first;
    if (key.size() > name.size() && key[name.size()] != '{') continue;
    if (!label_filter.empty() && key.find(label_filter) == std::string::npos) {
      continue;
    }
    sum += it->second;
  }
  return sum;
}

}  // namespace perfbench
