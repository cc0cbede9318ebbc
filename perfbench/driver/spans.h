// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The traced run's spans. Each span records a name, start, end, its
// parent span and the request it belongs to. Spans stay in per-thread
// buffers (no locking on the recording path) and are merged and written
// out once the run ends.
//
// A null SpanBuffer* disables recording: ScopedSpan then reads no clock.

#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t request_id = 0;
  int64_t start_ns = 0;  ///< steady clock, relative to the run's epoch
  int64_t end_ns = 0;
  uint32_t thread = 0;

  double duration_us() const { return (end_ns - start_ns) / 1e3; }
};

/// One thread's spans. Not thread-safe: one buffer per recording thread.
class SpanBuffer {
 public:
  SpanBuffer(uint32_t thread, std::chrono::steady_clock::time_point epoch)
      : thread_(thread), epoch_(epoch) {}

  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;

  uint32_t thread_;
  std::chrono::steady_clock::time_point epoch_;
  uint64_t next_ = 1;
  std::vector<size_t> open_;  // slots of the open spans, innermost last
  std::vector<Span> spans_;
};

/// Records one span over its lifetime; nested ScopedSpans on the same
/// buffer become its children. request_id 0 inherits the parent's.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request_id = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Renames the span, for calls whose kind shows only once they return.
  void set_name(const char* name) {
    if (buffer_ != nullptr) buffer_->spans_[slot_].name = name;
  }

 private:
  SpanBuffer* buffer_;
  size_t slot_ = 0;  // this span's index in buffer_->spans_
};

/// Per-name aggregate over a set of spans. Self time is a span's duration
/// minus the part of it that its children cover.
struct SpanSummary {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

std::vector<Span> MergeSpans(const std::vector<const SpanBuffer*>& buffers);
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace_event JSON array (loadable in
/// chrome://tracing or Perfetto); parent and request ids go in args.
hyperdom::Status WriteSpans(const std::vector<Span>& spans,
                            const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
