// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Crash-safe snapshot envelope (index/snapshot.h): round-trips must
// preserve query answers exactly, and any corruption — bit flips,
// truncation, a wrong kind — must be detected before the tree structure
// is trusted, falling back to a rebuild when the raw data is available.

#include "index/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "query/knn.h"
#include "test_util.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> TestData(uint64_t seed, size_t n = 600) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 3;
  spec.radius_mean = 8.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "hyperdom_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

TEST(Crc32Test, MatchesIeeeCheckVector) {
  // The canonical CRC-32/IEEE check: crc("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32Of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Of("", 0), 0x00000000u);
  // Streaming in pieces must match one-shot.
  Crc32 crc;
  crc.Update("1234", 4);
  crc.Update("56789", 5);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(SnapshotTest, SsTreeRoundTripPreservesQueryAnswers) {
  const auto data = TestData(901);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("ss_roundtrip.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  SsTree loaded(1);
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.dim(), tree.dim());
  // The packed tree's store rows stay in leaf order across the reload.
  std::vector<uint32_t> leaf_order(data.size());
  std::iota(leaf_order.begin(), leaf_order.end(), 0u);
  EXPECT_EQ(test::LeafSlotsInDfsOrder(loaded), leaf_order);

  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  for (const auto& sq : MakeKnnQueries(data, 8, 902)) {
    EXPECT_EQ(Ids(searcher.Search(loaded, sq)), Ids(searcher.Search(tree, sq)));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, VpTreeRoundTripPreservesQueryAnswers) {
  const auto data = TestData(903);
  VpTree tree;
  ASSERT_TRUE(tree.Build(data).ok());
  const std::string path = TestPath("vp_roundtrip.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  VpTree loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.dim(), tree.dim());

  HyperbolaCriterion exact;
  for (const auto& sq : MakeKnnQueries(data, 8, 904)) {
    EXPECT_EQ(Ids(KnnSearcher(&exact, KnnOptions{}).Search(loaded, sq)),
              Ids(KnnSearcher(&exact, KnnOptions{}).Search(tree, sq)));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, VerifyReportsEnvelopeFacts) {
  const auto data = TestData(905, 200);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("verify.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  auto info = VerifySnapshot(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->kind, SnapshotKind::kSsTree);
  EXPECT_EQ(info->version, 2u);
  EXPECT_TRUE(info->crc_ok);
  EXPECT_GT(info->payload_size, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveLeavesNoTempFile) {
  const auto data = TestData(906, 100);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("atomic.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SnapshotTest, BitFlipsAreRejectedNotTrusted) {
  const auto data = TestData(907, 150);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("bitflip.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  const std::string pristine = ReadFile(path);
  ASSERT_FALSE(pristine.empty());

  // Flip one bit at every header byte and at a stride through the payload;
  // every variant must fail with a clean Status and leave `loaded` alone.
  std::vector<size_t> positions;
  for (size_t i = 0; i < 24 && i < pristine.size(); ++i) positions.push_back(i);
  for (size_t i = 24; i < pristine.size(); i += 37) positions.push_back(i);
  for (size_t pos : positions) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFile(path, corrupt);
    SsTree loaded(1);
    const Status status = LoadSnapshot(path, &loaded);
    EXPECT_FALSE(status.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.size(), 0u) << "failed load must not mutate the tree";
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationIsRejected) {
  const auto data = TestData(908, 150);
  VpTree tree;
  ASSERT_TRUE(tree.Build(data).ok());
  const std::string path = TestPath("truncate.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  const std::string pristine = ReadFile(path);

  for (size_t keep : {size_t{0}, size_t{3}, size_t{12}, size_t{23},
                      pristine.size() / 2, pristine.size() - 1}) {
    WriteFile(path, pristine.substr(0, keep));
    VpTree loaded;
    EXPECT_FALSE(LoadSnapshot(path, &loaded).ok()) << "kept " << keep;
    EXPECT_EQ(loaded.size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, KindMismatchIsRejected) {
  const auto data = TestData(909, 100);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("kind.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  VpTree wrong;
  const Status status = LoadSnapshot(path, &wrong);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(wrong.size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadOrRebuildFallsBackOnCorruption) {
  const auto data = TestData(910, 200);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("rebuild.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  // Corrupt a payload byte: checksum catches it, rebuild takes over.
  std::string corrupt = ReadFile(path);
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  WriteFile(path, corrupt);

  SsTree recovered(1);
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  Status load_error;
  ASSERT_TRUE(
      LoadSnapshotOrRebuild(path, data, &recovered, &outcome, &load_error)
          .ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_FALSE(load_error.ok());
  EXPECT_EQ(recovered.size(), data.size());

  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  for (const auto& sq : MakeKnnQueries(data, 5, 911)) {
    EXPECT_EQ(Ids(searcher.Search(recovered, sq)),
              Ids(searcher.Search(tree, sq)));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadOrRebuildFallsBackOnMissingFile) {
  const auto data = TestData(912, 120);
  const std::string path = TestPath("missing.snap");
  std::remove(path.c_str());

  VpTree recovered;
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  ASSERT_TRUE(LoadSnapshotOrRebuild(path, data, &recovered, &outcome).ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(recovered.size(), data.size());
}

// ---------------------------------------------------------------------------
// Old formats. The writers below emit the exact pre-store formats: HDSP v1
// envelopes wrapping AoS tree payloads (HDSS v2 node records with inline
// spheres; HDVP v1 likewise). Nothing writes them any more, so the loader
// reads none of them: each gets kNotSupported naming its version, and no
// corruption of them ever loads.
// ---------------------------------------------------------------------------

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// One AoS leaf entry: center coordinates, radius, id.
void AppendLegacyEntry(std::string* out, const Hypersphere& s, uint64_t id) {
  for (size_t d = 0; d < s.dim(); ++d) AppendPod(out, s.center()[d]);
  AppendPod(out, s.radius());
  AppendPod(out, id);
}

// HDSS v2: header + single-leaf root with inline entries.
std::string LegacySsPayload(const std::vector<Hypersphere>& data) {
  std::string out;
  out.append("HDSS", 4);
  AppendPod(&out, uint32_t{2});                           // version
  AppendPod(&out, static_cast<uint64_t>(data[0].dim()));  // dim
  AppendPod(&out, static_cast<uint64_t>(data.size()));    // size
  AppendPod(&out, uint64_t{16});                          // max_entries
  AppendPod(&out, 0.4);                                   // min_fill_ratio
  AppendPod(&out, uint32_t{0});                           // split_policy
  AppendPod(&out, uint32_t{0});                           // bounding_policy
  AppendPod(&out, uint8_t{1});                            // leaf root
  AppendPod(&out, static_cast<uint64_t>(data.size()));
  for (size_t i = 0; i < data.size(); ++i) {
    AppendLegacyEntry(&out, data[i], static_cast<uint64_t>(i));
  }
  return out;
}

// HDVP v1: header + single-leaf root with an inline bucket.
std::string LegacyVpPayload(const std::vector<Hypersphere>& data) {
  std::string out;
  out.append("HDVP", 4);
  AppendPod(&out, uint32_t{1});                           // version
  AppendPod(&out, static_cast<uint64_t>(data[0].dim()));  // dim
  AppendPod(&out, static_cast<uint64_t>(data.size()));    // size
  AppendPod(&out, uint64_t{32});                          // leaf_size
  AppendPod(&out, uint8_t{1});                            // leaf root
  AppendPod(&out, static_cast<uint64_t>(data.size()));
  for (size_t i = 0; i < data.size(); ++i) {
    AppendLegacyEntry(&out, data[i], static_cast<uint64_t>(i));
  }
  return out;
}

// HDSP envelope around a payload; v1 unless `version` says otherwise.
std::string LegacyEnvelope(SnapshotKind kind, const std::string& payload,
                           uint32_t version = 1) {
  std::string out;
  out.append("HDSP", 4);
  AppendPod(&out, version);
  AppendPod(&out, static_cast<uint32_t>(kind));
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  AppendPod(&out, Crc32Of(payload.data(), payload.size()));
  out += payload;
  return out;
}

// Loads `bytes` from a file and returns the load status.
template <typename Tree>
Status LoadBytes(const std::string& name, const std::string& bytes,
                 Tree* out) {
  const std::string path = TestPath(name);
  WriteFile(path, bytes);
  const Status status = LoadSnapshot(path, out);
  std::remove(path.c_str());
  return status;
}

TEST(SnapshotMigrationTest, LegacyEnvelopeIsNotSupported) {
  const auto data = TestData(913, 14);
  SsTree loaded(1);
  const Status status = LoadBytes(
      "legacy_env.snap",
      LegacyEnvelope(SnapshotKind::kSsTree, LegacySsPayload(data)), &loaded);
  EXPECT_EQ(status.code(), StatusCode::kNotSupported) << status.ToString();
  EXPECT_NE(status.message().find("version 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(SnapshotMigrationTest, LegacyTreePayloadsAreNotSupported) {
  // Current envelopes around the old tree formats: the tree readers
  // refuse them by version.
  const auto data = TestData(915, 12);
  SsTree ss(1);
  const Status ss_status = LoadBytes(
      "legacy_ss.snap",
      LegacyEnvelope(SnapshotKind::kSsTree, LegacySsPayload(data), 2), &ss);
  EXPECT_EQ(ss_status.code(), StatusCode::kNotSupported)
      << ss_status.ToString();
  EXPECT_NE(ss_status.message().find("SS-tree format version 2"),
            std::string::npos)
      << ss_status.ToString();
  EXPECT_EQ(ss.size(), 0u);

  VpTree vp;
  const Status vp_status = LoadBytes(
      "legacy_vp.snap",
      LegacyEnvelope(SnapshotKind::kVpTree, LegacyVpPayload(data), 2), &vp);
  EXPECT_EQ(vp_status.code(), StatusCode::kNotSupported)
      << vp_status.ToString();
  EXPECT_NE(vp_status.message().find("VP-tree format version 1"),
            std::string::npos)
      << vp_status.ToString();
  EXPECT_EQ(vp.size(), 0u);
}

TEST(SnapshotMigrationTest, LegacyBitFlipsAreStillRejected) {
  const auto data = TestData(917, 10);
  const std::string path = TestPath("legacy_bitflip.snap");
  const std::string pristine =
      LegacyEnvelope(SnapshotKind::kSsTree, LegacySsPayload(data));

  std::vector<size_t> positions;
  for (size_t i = 0; i < 24 && i < pristine.size(); ++i) positions.push_back(i);
  for (size_t i = 24; i < pristine.size(); i += 31) positions.push_back(i);
  for (size_t pos : positions) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFile(path, corrupt);
    SsTree loaded(1);
    const Status status = LoadSnapshot(path, &loaded);
    EXPECT_FALSE(status.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.size(), 0u) << "failed load must not mutate the tree";
  }
  std::remove(path.c_str());
}

TEST(SnapshotMigrationTest, FutureEnvelopeVersionIsNotSupported) {
  const auto data = TestData(918, 8);
  std::string bytes =
      LegacyEnvelope(SnapshotKind::kSsTree, LegacySsPayload(data));
  const uint32_t future = 3;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  const std::string path = TestPath("future.snap");
  WriteFile(path, bytes);
  SsTree loaded(1);
  EXPECT_EQ(LoadSnapshot(path, &loaded).code(), StatusCode::kNotSupported);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyperdom
