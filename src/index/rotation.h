// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Crash-safe snapshot rotation: numbered snapshot generations in one
// directory plus a manifest naming the published one. SnapshotGenerations
// is the scheme, shared by SnapshotRotator (manifest CURRENT, one line:
// the generation filename) and shard::ShardedSnapshotSet (manifest
// SHARDS). Publishing generation N+1 while N serves:
//
//   1. write every <stem>.<N+1>.hdsp   (ReplaceFileAtomically, common/io.h)
//   2.   -- crash window: "snapshot/rotate" fault site --
//   3. replace the manifest            (ReplaceFileAtomically)
//   4. prune generations older than N
//
// A failure at any step leaves the manifest naming N, still on disk and
// serving, and removes the files of N+1. N+1 is 1 + the larger of the
// manifest's sequence and the newest generation on disk, so a lost
// manifest never republishes an old number under newer data. The replace
// is atomic against a process crash only: nothing is fsynced, so an OS
// crash or power loss can lose the newest generation.

#ifndef HYPERDOM_INDEX_ROTATION_H_
#define HYPERDOM_INDEX_ROTATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hyperdom {

class SsTree;

/// \brief Generation files `<dir>/<stem>.<seq>.hdsp` plus the manifest
/// `<dir>/<manifest_name>`; see the file comment. Not thread-safe.
class SnapshotGenerations {
 public:
  /// True iff a generation stem belongs to this set.
  using StemFilter = std::function<bool(std::string_view stem)>;

  /// `dir` must exist.
  SnapshotGenerations(std::string dir, std::string manifest_name,
                      StemFilter owns_stem);

  /// `<stem>.<seq>.hdsp`, and that name under `dir`.
  static std::string Name(std::string_view stem, uint64_t seq);
  std::string Path(std::string_view stem, uint64_t seq) const;
  std::string ManifestPath() const;
  const std::string& dir() const { return dir_; }

  /// Parses `<stem>.<seq>.hdsp` for a stem this set owns; false for any
  /// other name.
  bool ParseName(std::string_view name, uint64_t* seq) const;

  /// Distinct sequences of this set's generation files on disk, newest
  /// first.
  Result<std::vector<uint64_t>> SeqsOnDisk() const;

  /// The sequence to publish next: 1 + max(`manifest_seq`, the newest
  /// generation on disk).
  uint64_t NextSeq(uint64_t manifest_seq) const;

  /// \brief Publishes generation `seq` (steps 1-4 of the file comment).
  /// `write` saves its files and appends each path to `*written`; those
  /// are removed again if any step fails.
  Status Publish(uint64_t seq,
                 const std::function<Status(std::vector<std::string>*)>& write,
                 std::string_view manifest_body) const;

  /// Parses a non-empty all-digit string; false otherwise or on overflow.
  static bool ParseSeq(std::string_view digits, uint64_t* out);

 private:
  std::string dir_;
  std::string manifest_name_;
  StemFilter owns_stem_;
};

/// \brief Manages the numbered snapshot generations of one SS-tree in one
/// directory, under a CURRENT manifest. Not thread-safe; callers
/// serialize Persist.
class SnapshotRotator {
 public:
  /// Generations live in `dir` as `<base_name>.<seq>.hdsp`. The directory
  /// must exist.
  explicit SnapshotRotator(std::string dir, std::string base_name = "store");

  /// \brief Writes the next generation and swings CURRENT to it, pruning
  /// generations older than the previous one (the last two are kept so a
  /// torn CURRENT can still fall back). On failure the previous
  /// generation keeps serving and no partial files are left behind.
  Status Persist(const SsTree& tree, uint64_t* published_seq = nullptr);

  /// \brief Loads the newest loadable generation into `*out`: the one
  /// CURRENT names, or — when the manifest is missing/corrupt or its
  /// generation fails verification — the newest generation on disk that
  /// loads cleanly (counted under op=rotate_fallback).
  Status LoadLatest(SsTree* out, uint64_t* seq = nullptr) const;

  /// The sequence CURRENT names; 0 when there is no manifest yet.
  uint64_t CurrentSeq() const;

  std::string GenerationPath(uint64_t seq) const;
  std::string CurrentPath() const;
  const std::string& dir() const { return generations_.dir(); }

 private:
  std::string base_;
  SnapshotGenerations generations_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_ROTATION_H_
