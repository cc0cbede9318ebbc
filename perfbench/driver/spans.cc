// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "spans.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "json.h"

namespace perfbench {

namespace {

int64_t NanosSince(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name,
                       uint64_t request_id)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  Span span;
  span.name = name;
  span.thread = buffer_->thread_;
  span.id = (static_cast<uint64_t>(buffer_->thread_) << 40) | buffer_->next_++;
  span.request_id = request_id;
  if (!buffer_->open_.empty()) {
    const Span& parent = buffer_->spans_[buffer_->open_.back()];
    span.parent = parent.id;
    if (request_id == 0) span.request_id = parent.request_id;
  }
  // The slot is taken at open time, so a parent precedes its children.
  slot_ = buffer_->spans_.size();
  buffer_->open_.push_back(slot_);
  buffer_->spans_.push_back(span);
  buffer_->spans_[slot_].start_ns = NanosSince(buffer_->epoch_);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans_[slot_].end_ns = NanosSince(buffer_->epoch_);
  buffer_->open_.pop_back();
}

std::vector<Span> MergeSpans(const std::vector<const SpanBuffer*>& buffers) {
  std::vector<Span> out;
  for (const SpanBuffer* buffer : buffers) {
    out.insert(out.end(), buffer->spans().begin(), buffer->spans().end());
  }
  return out;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, SpanSummary> out;
  for (const Span& span : spans) {
    // Union of the children's intervals, clipped to the parent.
    double covered_ns = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals;
      for (const Span* child : it->second) {
        intervals.emplace_back(std::max(child->start_ns, span.start_ns),
                               std::min(child->end_ns, span.end_ns));
      }
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (const auto& [lo, hi] : intervals) {
        const int64_t from = std::max(lo, cursor);
        if (hi > from) {
          covered_ns += static_cast<double>(hi - from);
          cursor = hi;
        }
      }
    }
    SpanSummary& summary = out[span.name];
    summary.duration_us.push_back(span.duration_us());
    summary.self_us.push_back(
        (static_cast<double>(span.end_ns - span.start_ns) - covered_ns) /
        1e3);
  }
  return out;
}

hyperdom::Status WriteSpans(const std::vector<Span>& spans,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return hyperdom::Status::IOError("cannot write " + path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject args;
    args.Int("id", s.id).Int("parent", s.parent).Int("request_id",
                                                     s.request_id);
    JsonObject event;
    event.Str("name", s.name)
        .Str("ph", "X")
        .Num("ts", static_cast<double>(s.start_ns) / 1e3)
        .Num("dur", s.duration_us())
        .Int("pid", 1)
        .Int("tid", s.thread)
        .Raw("args", args.Serialize());
    out << event.Serialize() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out ? hyperdom::Status::OK()
             : hyperdom::Status::IOError("short write to " + path);
}

}  // namespace perfbench
