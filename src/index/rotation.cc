// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/rotation.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/io.h"
#include "common/str_util.h"
#include "index/snapshot.h"
#include "index/ss_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

namespace {

constexpr char kCurrentName[] = "CURRENT";
constexpr std::string_view kGenerationSuffix = ".hdsp";
/// Generations kept behind the newest one, so a torn manifest update can
/// still fall back to a fully written predecessor.
constexpr uint64_t kKeepGenerations = 2;

// op=rotate|rotate_fallback under the shared snapshot-ops counter.
[[maybe_unused]] void RecordRotateOp([[maybe_unused]] const char* op,
                                     [[maybe_unused]] bool ok) {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  obs::MetricsRegistry::Instance()
      .GetCounter(obs::kSnapshotOps,
                  {{"op", op}, {"result", ok ? "ok" : "error"}})
      ->Add(1);
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotGenerations

SnapshotGenerations::SnapshotGenerations(std::string dir,
                                         std::string manifest_name,
                                         StemFilter owns_stem)
    : dir_(std::move(dir)),
      manifest_name_(std::move(manifest_name)),
      owns_stem_(std::move(owns_stem)) {}

std::string SnapshotGenerations::Name(std::string_view stem, uint64_t seq) {
  return std::string(stem) + "." + std::to_string(seq) +
         std::string(kGenerationSuffix);
}

std::string SnapshotGenerations::Path(std::string_view stem,
                                      uint64_t seq) const {
  return dir_ + "/" + Name(stem, seq);
}

std::string SnapshotGenerations::ManifestPath() const {
  return dir_ + "/" + manifest_name_;
}

bool SnapshotGenerations::ParseSeq(std::string_view digits, uint64_t* out) {
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  return ParseUint64(digits, out);  // rejects overflow
}

bool SnapshotGenerations::ParseName(std::string_view name,
                                    uint64_t* seq) const {
  if (name.size() <= kGenerationSuffix.size() ||
      name.substr(name.size() - kGenerationSuffix.size()) !=
          kGenerationSuffix) {
    return false;
  }
  name.remove_suffix(kGenerationSuffix.size());
  const size_t dot = name.rfind('.');
  if (dot == std::string_view::npos) return false;
  return owns_stem_(name.substr(0, dot)) &&
         ParseSeq(name.substr(dot + 1), seq);
}

Result<std::vector<uint64_t>> SnapshotGenerations::SeqsOnDisk() const {
  Result<std::vector<std::string>> entries = ListDirectory(dir_);
  if (!entries.ok()) return entries.status();
  std::vector<uint64_t> seqs;
  for (const std::string& name : entries.ValueOrDie()) {
    uint64_t seq = 0;
    if (ParseName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  return seqs;
}

uint64_t SnapshotGenerations::NextSeq(uint64_t manifest_seq) const {
  // An unlistable directory adds nothing here; the write reports it.
  const Result<std::vector<uint64_t>> on_disk = SeqsOnDisk();
  const uint64_t newest =
      on_disk.ok() && !on_disk->empty() ? on_disk->front() : 0;
  return std::max(manifest_seq, newest) + 1;
}

Status SnapshotGenerations::Publish(
    uint64_t seq,
    const std::function<Status(std::vector<std::string>*)>& write,
    std::string_view manifest_body) const {
  std::vector<std::string> written;
  Status status = write(&written);
  if (status.ok()) status = HYPERDOM_FAULT_POINT_STATUS("snapshot/rotate");
  if (status.ok()) status = ReplaceFileAtomically(ManifestPath(), manifest_body);
  if (!status.ok()) {
    // No manifest references the new generation; leave no debris.
    for (const std::string& path : written) (void)RemoveFile(path);
    return status;
  }
  // Best-effort prune: keep `seq` and its predecessor.
  Result<std::vector<std::string>> entries = ListDirectory(dir_);
  if (!entries.ok()) return Status::OK();
  for (const std::string& name : entries.ValueOrDie()) {
    uint64_t old = 0;
    if (ParseName(name, &old) && old + kKeepGenerations <= seq) {
      (void)RemoveFile(dir_ + "/" + name);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SnapshotRotator

SnapshotRotator::SnapshotRotator(std::string dir, std::string base_name)
    : base_(std::move(base_name)),
      generations_(std::move(dir), kCurrentName,
                   [base = base_](std::string_view stem) {
                     return stem == base;
                   }) {}

std::string SnapshotRotator::GenerationPath(uint64_t seq) const {
  return generations_.Path(base_, seq);
}

std::string SnapshotRotator::CurrentPath() const {
  return generations_.ManifestPath();
}

uint64_t SnapshotRotator::CurrentSeq() const {
  Result<std::string> body = ReadFileToString(CurrentPath());
  if (!body.ok()) return 0;
  uint64_t seq = 0;
  return generations_.ParseName(StripAsciiWhitespace(*body), &seq) ? seq : 0;
}

Status SnapshotRotator::Persist(const SsTree& tree, uint64_t* published_seq) {
  HYPERDOM_SPAN(span, "snapshot/rotate");
  const uint64_t next = generations_.NextSeq(CurrentSeq());
  HYPERDOM_SPAN_ANNOTATE(span, "generation", std::to_string(next));

  const std::string gen = GenerationPath(next);
  const Status status = generations_.Publish(
      next,
      [&](std::vector<std::string>* written) {
        HYPERDOM_RETURN_NOT_OK(SaveSnapshot(tree, gen));
        written->push_back(gen);
        return Status::OK();
      },
      SnapshotGenerations::Name(base_, next) + "\n");

  RecordRotateOp("rotate", status.ok());
  HYPERDOM_SPAN_ANNOTATE(span, "result", status.ok() ? "ok" : "error");
  if (!status.ok()) return status;
  if (published_seq != nullptr) *published_seq = next;
  return Status::OK();
}

Status SnapshotRotator::LoadLatest(SsTree* out, uint64_t* seq_out) const {
  HYPERDOM_SPAN(span, "snapshot/load_latest");

  // Fast path: the generation CURRENT names.
  const uint64_t current = CurrentSeq();
  if (current != 0) {
    Status status = LoadSnapshot(GenerationPath(current), out);
    if (status.ok()) {
      if (seq_out != nullptr) *seq_out = current;
      return Status::OK();
    }
    HYPERDOM_SPAN_ANNOTATE(span, "manifest_generation_failed",
                           status.message());
  }

  // Fallback: newest generation on disk that verifies. Reached when the
  // manifest is missing/corrupt (torn rotation, fresh directory) or the
  // generation it names failed its checksum.
  Result<std::vector<uint64_t>> seqs = generations_.SeqsOnDisk();
  if (!seqs.ok()) return seqs.status();
  for (uint64_t seq : *seqs) {
    if (seq == current) continue;
    if (LoadSnapshot(GenerationPath(seq), out).ok()) {
      RecordRotateOp("rotate_fallback", true);
      HYPERDOM_SPAN_ANNOTATE(span, "fallback_generation",
                             std::to_string(seq));
      if (seq_out != nullptr) *seq_out = seq;
      return Status::OK();
    }
  }
  RecordRotateOp("rotate_fallback", false);
  return Status::NotFound("no loadable snapshot generation in '" + dir() +
                          "'");
}

}  // namespace hyperdom
