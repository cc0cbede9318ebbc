// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/snapshot.h"

#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/pod_stream.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

namespace {

// Runs one snapshot operation and publishes it: counted under op=save|load
// and result=ok|error, with its latency. Snapshot ops are rare, so the
// per-call registry lookup is fine.
template <typename Run>
Status RecordSnapshotOp([[maybe_unused]] const char* op, Run run) {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  const auto start = std::chrono::steady_clock::now();
  Status status = run();
  const auto elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter(obs::kSnapshotOps,
                 {{"op", op}, {"result", status.ok() ? "ok" : "error"}})
      ->Add(1);
  reg.GetHistogram(obs::kSnapshotDuration, "op", op)
      ->Record(static_cast<uint64_t>(elapsed_ns.count()));
  return status;
#else
  return run();
#endif
}

constexpr char kSnapMagic[4] = {'H', 'D', 'S', 'P'};
// v2 wraps store-backed payloads (HDSS v3 / HDVP v2); it is the only
// version read or written.
constexpr uint32_t kSnapVersion = 2;

// Assembles envelope + payload in memory and replaces `path` with it
// atomically (common/io), so an interrupted save never replaces a good
// snapshot with a torn one.
Status WriteEnvelope(const std::string& path, SnapshotKind kind,
                     const std::string& payload) {
  HYPERDOM_FAULT_POINT("snapshot/write");
  std::ostringstream body(std::ios::binary);
  body.write(kSnapMagic, sizeof(kSnapMagic));
  WritePod(body, kSnapVersion);
  WritePod(body, static_cast<uint32_t>(kind));
  WritePod(body, static_cast<uint64_t>(payload.size()));
  WritePod(body, Crc32Of(payload.data(), payload.size()));
  body.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return ReplaceFileAtomically(path, body.str());
}

// Reads and validates the envelope; fills `*info` and, when the header is
// sound, the payload bytes. info->crc_ok reports the checksum comparison.
// The whole file is read first (bounded by the actual file size, so a
// corrupted size field still cannot drive a huge allocation), then the
// declared payload size is checked against the bytes actually present.
Status ReadEnvelope(const std::string& path, SnapshotInfo* info,
                    std::string* payload) {
  HYPERDOM_FAULT_POINT("snapshot/read");
  Result<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  std::istringstream in(file.TakeValue(), std::ios::binary);
  char magic[4];
  if (!ReadPod(in, &magic) ||
      std::memcmp(magic, kSnapMagic, sizeof(kSnapMagic)) != 0) {
    return Status::Corruption("bad magic: not a hyperdom snapshot");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Status::Corruption("truncated header");
  if (version != kSnapVersion) {
    return Status::NotSupported("unsupported snapshot version " +
                                std::to_string(version));
  }
  uint32_t kind = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!ReadPod(in, &kind) || !ReadPod(in, &payload_size) ||
      !ReadPod(in, &crc)) {
    return Status::Corruption("truncated header");
  }
  if (kind != static_cast<uint32_t>(SnapshotKind::kSsTree) &&
      kind != static_cast<uint32_t>(SnapshotKind::kVpTree)) {
    return Status::Corruption("unknown snapshot kind " +
                              std::to_string(kind));
  }
  info->kind = static_cast<SnapshotKind>(kind);
  info->version = version;
  info->payload_size = payload_size;
  if (BytesLeft(in) != payload_size) {
    return Status::Corruption("payload size mismatch: header says " +
                              std::to_string(payload_size) + " bytes");
  }
  payload->resize(payload_size);
  in.read(payload->data(), static_cast<std::streamsize>(payload_size));
  info->crc_ok = Crc32Of(payload->data(), payload->size()) == crc;
  return Status::OK();
}

// Shared load path: envelope checks, then the tree's own Deserialize.
template <typename Tree>
Status LoadSnapshotImpl(const std::string& path, SnapshotKind expected,
                        Tree* out) {
  HYPERDOM_SPAN(span, "snapshot/load");
  HYPERDOM_SPAN_ANNOTATE(span, "path", path);
  return RecordSnapshotOp("load", [&] {
    SnapshotInfo info;
    std::string payload;
    HYPERDOM_RETURN_NOT_OK(ReadEnvelope(path, &info, &payload));
    if (info.kind != expected) {
      return Status::InvalidArgument(
          "snapshot holds a " + std::string(SnapshotKindName(info.kind)) +
          ", expected a " + std::string(SnapshotKindName(expected)));
    }
    if (!info.crc_ok) {
      return Status::Corruption("snapshot checksum mismatch: " + path);
    }
    std::istringstream in(std::move(payload), std::ios::binary);
    return Tree::Deserialize(in, out);
  });
}

template <typename Tree>
Status SaveSnapshotImpl(const Tree& tree, SnapshotKind kind,
                        const std::string& path) {
  HYPERDOM_SPAN(span, "snapshot/save");
  HYPERDOM_SPAN_ANNOTATE(span, "path", path);
  return RecordSnapshotOp("save", [&] {
    std::ostringstream payload(std::ios::binary);
    HYPERDOM_RETURN_NOT_OK(tree.Serialize(payload));
    return WriteEnvelope(path, kind, payload.str());
  });
}

// Shared LoadSnapshotOrRebuild body: `rebuild` fills the empty `rebuilt`
// tree from the raw data, and only a successful rebuild replaces `*out`.
template <typename Tree, typename Rebuild>
Status LoadOrRebuildImpl(const std::string& path, Tree* out, Tree rebuilt,
                         Rebuild rebuild, SnapshotLoadOutcome* outcome,
                         Status* load_error) {
  HYPERDOM_SPAN(span, "snapshot/load_or_rebuild");
  const Status loaded = LoadSnapshot(path, out);
  if (load_error != nullptr) *load_error = loaded;
  if (loaded.ok()) {
    *outcome = SnapshotLoadOutcome::kLoaded;
    return Status::OK();
  }
  // Falling back to an O(n log n) rebuild: count it (an operator alert —
  // the snapshot on disk is missing or corrupt) and record why.
  HYPERDOM_COUNTER_INC(obs::kSnapshotRebuildFallback);
  HYPERDOM_SPAN_ANNOTATE(span, "rebuild_fallback", loaded.message());
  HYPERDOM_RETURN_NOT_OK(rebuild(&rebuilt));
  *out = std::move(rebuilt);
  *outcome = SnapshotLoadOutcome::kRebuilt;
  return Status::OK();
}

}  // namespace

std::string_view SnapshotKindName(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kSsTree:
      return "ss-tree";
    case SnapshotKind::kVpTree:
      return "vp-tree";
  }
  return "unknown";
}

Status SaveSnapshot(const SsTree& tree, const std::string& path) {
  return SaveSnapshotImpl(tree, SnapshotKind::kSsTree, path);
}

Status SaveSnapshot(const VpTree& tree, const std::string& path) {
  return SaveSnapshotImpl(tree, SnapshotKind::kVpTree, path);
}

Status LoadSnapshot(const std::string& path, SsTree* out) {
  return LoadSnapshotImpl(path, SnapshotKind::kSsTree, out);
}

Status LoadSnapshot(const std::string& path, VpTree* out) {
  return LoadSnapshotImpl(path, SnapshotKind::kVpTree, out);
}

Result<SnapshotInfo> VerifySnapshot(const std::string& path) {
  SnapshotInfo info;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(ReadEnvelope(path, &info, &payload));
  return info;
}

Status LoadSnapshotOrRebuild(const std::string& path,
                             const std::vector<Hypersphere>& data,
                             SsTree* out, SnapshotLoadOutcome* outcome,
                             Status* load_error) {
  SsTree empty(data.empty() ? out->dim() : data.front().dim(),
               out->options());
  return LoadOrRebuildImpl(
      path, out, std::move(empty),
      [&data](SsTree* tree) { return tree->BulkLoadStr(data); }, outcome,
      load_error);
}

Status LoadSnapshotOrRebuild(const std::string& path,
                             const std::vector<Hypersphere>& data,
                             VpTree* out, SnapshotLoadOutcome* outcome,
                             Status* load_error) {
  return LoadOrRebuildImpl(
      path, out, VpTree(out->options()),
      [&data](VpTree* tree) { return tree->Build(data); }, outcome,
      load_error);
}

}  // namespace hyperdom
