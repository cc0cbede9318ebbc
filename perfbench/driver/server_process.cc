// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/admin.h"

namespace perfbench {

using hyperdom::Result;
using hyperdom::Status;

namespace {

constexpr char kHost[] = "127.0.0.1";
constexpr auto kStartTimeout = std::chrono::seconds(150);
constexpr auto kStopGrace = std::chrono::seconds(10);

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The port printed after `marker` ("... on 127.0.0.1:PORT ..."), or 0.
uint16_t PortAfter(const std::string& log, const std::string& marker) {
  const size_t at = log.find(marker);
  if (at == std::string::npos) return 0;
  const size_t colon = log.find(':', at + marker.size());
  const size_t eol = log.find('\n', at);
  if (colon == std::string::npos || eol == std::string::npos || colon > eol) {
    return 0;
  }
  const long port = std::strtol(log.c_str() + colon + 1, nullptr, 10);
  return port > 0 && port < 65536 ? static_cast<uint16_t>(port) : 0;
}

std::string DescribeExit(int wstatus) {
  if (WIFEXITED(wstatus)) {
    return "exit code " + std::to_string(WEXITSTATUS(wstatus));
  }
  if (WIFSIGNALED(wstatus)) {
    return "signal " + std::to_string(WTERMSIG(wstatus));
  }
  return "status " + std::to_string(wstatus);
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const ServerLaunch& launch) {
  std::vector<std::string> args = {launch.binary,
                                   "--data=" + launch.csv_path,
                                   std::string("--host=") + kHost,
                                   "--port=0", "--admin-port=0"};
  if (launch.shards > 0) {
    args.push_back("--shards=" + std::to_string(launch.shards));
  }
  if (launch.mutable_store) args.push_back("--mutable=1");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd = ::open(launch.log_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IOError("cannot open server log " + launch.log_path);
  }
  const pid_t parent = ::getpid();
  const auto exec_at = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies with
    // the driver even if the driver is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);

  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->log_path_ = launch.log_path;
  while (server->admin_port_ == 0) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      server->pid_ = -1;
      return Status::Internal("hyperdom_server exited during start-up (" +
                              DescribeExit(wstatus) + "): " +
                              ReadFile(launch.log_path));
    }
    if (std::chrono::steady_clock::now() - exec_at > kStartTimeout) {
      return Status::DeadlineExceeded("hyperdom_server did not start: " +
                                      ReadFile(launch.log_path));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    const std::string log = ReadFile(launch.log_path);
    server->port_ = PortAfter(log, "listening on ");
    if (server->port_ != 0) server->admin_port_ = PortAfter(log, "admin plane on ");
  }
  for (;;) {
    auto ready = hyperdom::server::AdminHttpGet(kHost, server->admin_port_,
                                                "/readyz", 2000);
    if (ready.ok() && ready->status_code == 200) break;
    if (std::chrono::steady_clock::now() - exec_at > kStartTimeout) {
      return Status::DeadlineExceeded("/readyz never answered 200");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  server->setup_seconds_ = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - exec_at)
                               .count();
  return server;
}

ServerProcess::~ServerProcess() { (void)Stop(); }

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  const pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + kStopGrace;
  int wstatus = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, &wstatus, WNOHANG);
    if (done == pid) break;
    if (done < 0) return Status::Internal("waitpid failed");
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &wstatus, 0);
      return Status::Internal("hyperdom_server ignored SIGTERM; killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
  // hyperdom_server prints its ready lines and answers /readyz before it
  // installs its SIGTERM handler, so a SIGTERM that lands in between takes
  // the default action. The server is stopped all the same.
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGTERM) return Status::OK();
  return Status::Internal("hyperdom_server ended with " +
                          DescribeExit(wstatus) + ": " + ReadFile(log_path_));
}

Result<double> ServerProcess::CpuSeconds() const {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return Status::IOError("no /proc stat");
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields 3.. follow the command name; utime and stime are fields 14, 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<double> ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::IOError("no VmHWM in /proc status");
}

Result<std::string> ServerProcess::AdminGet(const std::string& target) const {
  auto response =
      hyperdom::server::AdminHttpGet(kHost, admin_port_, target, 5000);
  if (!response.ok()) return response.status();
  if (response->status_code != 200) {
    return Status::Internal("GET " + target + " answered " +
                            std::to_string(response->status_code));
  }
  return std::move(response->body);
}

}  // namespace perfbench
