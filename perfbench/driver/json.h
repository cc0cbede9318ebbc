// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// A minimal ordered JSON object writer for the benchmark's result records.
// Keys keep insertion order so two records diff line by line.

#ifndef PERFBENCH_DRIVER_JSON_H_
#define PERFBENCH_DRIVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonObject {
 public:
  /// Writes every digit of `value` (%.17g). Non-finite values become null.
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, uint64_t value);
  JsonObject& Bool(std::string_view key, bool value);
  JsonObject& Str(std::string_view key, std::string_view value);
  /// `json` must already be a serialized JSON value.
  JsonObject& Raw(std::string_view key, std::string json);

  std::string Serialize() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonString(std::string_view s);
std::string JsonNumber(double value);
/// Serializes already-serialized JSON values as an array.
std::string JsonArray(const std::vector<std::string>& items);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_JSON_H_
