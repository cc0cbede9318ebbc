// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// An error the driver cannot work around ends the run: it becomes an
// exception that main() reports (exit 1) once the destructors have
// stopped and reaped every server.

#ifndef PERFBENCH_DRIVER_REQUIRE_H_
#define PERFBENCH_DRIVER_REQUIRE_H_

#include <stdexcept>
#include <string>

#include "common/status.h"

namespace perfbench {

inline void Require(const hyperdom::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

template <typename T>
T Require(hyperdom::Result<T> result, const std::string& what) {
  Require(result.status(), what);
  return result.TakeValue();
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REQUIRE_H_
