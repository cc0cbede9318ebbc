// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Hardened POSIX file IO shared by the persistence layers (index/snapshot,
// data/csv) and the network front-end. Every primitive retries EINTR,
// finishes partial reads/writes in a loop, and maps errno into a Status
// whose message names the failing syscall, the target, and strerror(errno)
// — so "IO error: write failed" becomes
// "IO error: write '/data/snap.tmp': No space left on device".

#ifndef HYPERDOM_COMMON_IO_H_
#define HYPERDOM_COMMON_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hyperdom {

/// Maps an errno value into a Status: ENOENT becomes kNotFound, everything
/// else kIOError; the message is "<op> '<target>': <strerror(err)>".
Status ErrnoToStatus(int err, std::string_view op, std::string_view target);

/// Reads the whole file into a string. Retries EINTR and short reads until
/// EOF; errno-mapped Status on failure.
Result<std::string> ReadFileToString(const std::string& path);

/// Creates/truncates `path` and writes `body` in full. Retries EINTR and
/// partial writes; errno-mapped Status on failure (the partially written
/// file is left behind for the caller; use ReplaceFileAtomically where a
/// torn write must never replace good data).
Status WriteStringToFile(const std::string& path, std::string_view body);

/// Replaces `path` with `body`: writes `<path>.tmp`, renames it over
/// `path`, and removes the tmp on any failure. A process crash leaves
/// either the old file or the new one, never a torn one. There is no
/// fsync, so an OS crash or power loss can still lose the update. Every
/// snapshot file and manifest is written through here.
Status ReplaceFileAtomically(const std::string& path, std::string_view body);

/// unlink(2); ENOENT is not an error (the file is gone either way).
Status RemoveFile(const std::string& path);

/// Lists the entry names in `dir` (no "."/".."), unsorted; errno-mapped
/// Status on failure. Used by the snapshot rotation fallback walk.
Result<std::vector<std::string>> ListDirectory(const std::string& dir);

}  // namespace hyperdom

#endif  // HYPERDOM_COMMON_IO_H_
