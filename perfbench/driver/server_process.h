// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// hyperdom_server as a child process: started from the shipped binary on
// loopback ephemeral ports, probed through its admin plane, measured
// through /proc, and always stopped and reaped.

#ifndef PERFBENCH_DRIVER_SERVER_PROCESS_H_
#define PERFBENCH_DRIVER_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct ServerLaunch {
  std::string binary;
  std::string csv_path;
  size_t shards = 0;
  bool mutable_store = false;
  std::string log_path;  ///< the server's stdout and stderr
};

class ServerProcess {
 public:
  /// Execs the server and returns once /readyz answers 200.
  /// setup_seconds() covers exec to ready: CSV parse, build and bind.
  static hyperdom::Result<std::unique_ptr<ServerProcess>> Start(
      const ServerLaunch& launch);

  /// Stops the server if it still runs (see Stop()).
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM (graceful drain), then SIGKILL after a grace period; always
  /// reaps the child. Not OK when the server did not exit cleanly.
  hyperdom::Status Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }
  double setup_seconds() const { return setup_seconds_; }

  /// User plus system CPU time the server has used so far.
  hyperdom::Result<double> CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  hyperdom::Result<double> PeakRssMb() const;
  /// GET on the admin plane; not OK unless the answer is 200.
  hyperdom::Result<std::string> AdminGet(const std::string& target) const;

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  double setup_seconds_ = 0.0;
  std::string log_path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SERVER_PROCESS_H_
