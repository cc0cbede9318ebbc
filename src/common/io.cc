// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "common/io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace hyperdom {

namespace {

// Thread-safe strerror: strerror_r has two incompatible signatures; route
// through the POSIX one via a local buffer and fall back to the number.
std::string ErrnoText(int err) {
  char buf[128];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  return std::string(strerror_r(err, buf, sizeof(buf)));
#else
  if (strerror_r(err, buf, sizeof(buf)) != 0) {
    return "errno " + std::to_string(err);
  }
  return std::string(buf);
#endif
}

int OpenRetry(const char* path, int flags, mode_t mode) {
  int fd = -1;
  do {
    fd = ::open(path, flags, mode);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  } while (fd < 0 && errno == EINTR);
  return fd;
}

void CloseQuietly(int fd) {
  // POSIX leaves the fd state unspecified on EINTR from close(2); Linux
  // always releases it, so retrying would risk closing a reused descriptor.
  ::close(fd);
}

}  // namespace

Status ErrnoToStatus(int err, std::string_view op, std::string_view target) {
  std::string msg(op);
  msg.append(" '").append(target).append("': ").append(ErrnoText(err));
  if (err == ENOENT) return Status::NotFound(std::move(msg));
  return Status::IOError(std::move(msg));
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) return ErrnoToStatus(errno, "open", path);
  std::string out;
  // Size hint only: the read loop below is the truth, so a file that grows
  // or shrinks between fstat and read still loads correctly.
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;  // EOF
    if (errno == EINTR) continue;
    const int err = errno;
    CloseQuietly(fd);
    return ErrnoToStatus(err, "read", path);
  }
  CloseQuietly(fd);
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view body) {
  const int fd = OpenRetry(path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoToStatus(errno, "open", path);
  size_t written = 0;
  while (written < body.size()) {
    const ssize_t n =
        ::write(fd, body.data() + written, body.size() - written);
    if (n >= 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    const int err = errno;
    CloseQuietly(fd);
    return ErrnoToStatus(err, "write", path);
  }
  CloseQuietly(fd);
  return Status::OK();
}

Status ReplaceFileAtomically(const std::string& path, std::string_view body) {
  const std::string tmp = path + ".tmp";
  Status status = WriteStringToFile(tmp, body);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoToStatus(errno, "rename", tmp + "' -> '" + path);
  }
  if (!status.ok()) (void)RemoveFile(tmp);  // best effort; report the cause
  return status;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoToStatus(errno, "unlink", path);
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return ErrnoToStatus(errno, "opendir", dir);
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    const struct dirent* entry = ::readdir(handle);
    if (entry == nullptr) {
      const int err = errno;
      ::closedir(handle);
      if (err != 0) return ErrnoToStatus(err, "readdir", dir);
      return names;
    }
    const std::string_view name(entry->d_name);
    if (name == "." || name == "..") continue;
    names.emplace_back(name);
  }
}

}  // namespace hyperdom
