// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Smoke job for the shard-count sweep: runs bench/shard_knn_scaling in
// --smoke mode and validates the emitted hyperdom-bench-v1 JSON — the CI
// guard for bench/results/BENCH_shard.json, and a subprocess-level check
// that the sweep's per-query identity verification (sharded vs unsharded
// answers) passes, since the binary exits non-zero on any divergence.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace hyperdom {
namespace {

#if !defined(HYPERDOM_SHARD_BENCH_BINARY)
#error "shard_bench_smoke_test requires HYPERDOM_SHARD_BENCH_BINARY"
#endif

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ShardBenchSmokeTest, EmitsValidBenchArtifactWithIdenticalAnswers) {
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/BENCH_shard_smoke.json";
  const std::string headline_path = dir + "/BENCH_shard_headline.json";
  const std::string command = std::string(HYPERDOM_SHARD_BENCH_BINARY) +
                              " --smoke --json-out=" + json_path +
                              " --headline-out=" + headline_path +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::string json = ReadFileOrDie(json_path);
  EXPECT_NE(json.find("\"schema\": \"hyperdom-bench-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"shard_knn_scaling\""),
            std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"shard-count scaling\""),
            std::string::npos);
  // One row per swept shard count.
  for (const char* shards : {"\"shards\": 1", "\"shards\": 2",
                             "\"shards\": 4", "\"shards\": 8"}) {
    EXPECT_NE(json.find(shards), std::string::npos) << shards;
  }
  EXPECT_NE(json.find("\"millis_per_query\": "), std::string::npos);
  EXPECT_NE(json.find("\"speedup_vs_unsharded\": "), std::string::npos);
  // The identity column must be all-true — the binary would have exited
  // non-zero otherwise, but pin the JSON too.
  EXPECT_NE(json.find("\"identical_to_unsharded\": true"),
            std::string::npos);
  EXPECT_EQ(json.find("\"identical_to_unsharded\": false"),
            std::string::npos);

  // The headline copy is byte-identical by construction.
  EXPECT_EQ(ReadFileOrDie(headline_path), json);
}

TEST(ShardBenchSmokeTest, UnknownFlagExitsTwoBeforeAnyWork) {
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/BENCH_shard_bogus.json";
  const std::string log_path = dir + "/BENCH_shard_bogus.log";
  std::remove(json_path.c_str());
  const std::string command = std::string(HYPERDOM_SHARD_BENCH_BINARY) +
                              " --smoke --bogus --json-out=" + json_path +
                              " > " + log_path + " 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 2) << command;
  EXPECT_FALSE(std::ifstream(json_path).good()) << json_path << " written";
  // Rejected up front: the usage is printed and no sweep row ran.
  const std::string log = ReadFileOrDie(log_path);
  EXPECT_NE(log.find("unknown flag '--bogus'"), std::string::npos) << log;
  EXPECT_EQ(log.find("time/query"), std::string::npos) << log;
}

}  // namespace
}  // namespace hyperdom
