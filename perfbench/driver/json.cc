// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "json.h"

#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  out += hyperdom::obs::JsonEscape(s);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  return Raw(key, JsonNumber(value));
}

JsonObject& JsonObject::Int(std::string_view key, uint64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  return Raw(key, JsonString(value));
}

JsonObject& JsonObject::Raw(std::string_view key, std::string json) {
  fields_.emplace_back(std::string(key), std::move(json));
  return *this;
}

std::string JsonObject::Serialize() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
