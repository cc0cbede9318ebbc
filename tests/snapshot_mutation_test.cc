// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Mutation test of the tree parsers behind LoadSnapshot. Valid SS-tree and
// VP-tree payloads (300 spheres, d=3) are mutated three ways: a random
// byte overwritten, the payload truncated, or one u64 header or count
// field set to 0, 1, 2^32, 2^62 or the maximum. Each mutant is wrapped in
// an envelope with a recomputed CRC, so the tree deserializer itself has
// to reject it. Every load must fail cleanly or yield a tree whose
// invariants hold; none may abort. Inputs that once aborted are kept
// below as crafted regression cases.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "data/generator.h"
#include "index/snapshot.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"

namespace hyperdom {
namespace {

constexpr uint64_t kHugeCounts[] = {0,
                                    1,
                                    uint64_t{1} << 32,
                                    uint64_t{1} << 62,
                                    std::numeric_limits<uint64_t>::max()};

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// A current (v2) HDSP envelope with a correct CRC around `payload`.
std::string Envelope(SnapshotKind kind, const std::string& payload) {
  std::string out("HDSP");
  AppendPod(&out, uint32_t{2});
  AppendPod(&out, static_cast<uint32_t>(kind));
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  AppendPod(&out, Crc32Of(payload.data(), payload.size()));
  out += payload;
  return out;
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "hyperdom_mut_" + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename Tree>
Tree EmptyTree();
template <>
SsTree EmptyTree<SsTree>() {
  return SsTree(1);
}
template <>
VpTree EmptyTree<VpTree>() {
  return VpTree();
}

// Writes `bytes` as a file and loads it through the snapshot API.
template <typename Tree>
Status LoadBytes(const std::string& path, const std::string& bytes,
                 Tree* out) {
  WriteFile(path, bytes);
  return LoadSnapshot(path, out);
}

// Loads `payload` through the snapshot API and checks the contract: a
// clean failure, or a tree whose invariants hold.
template <typename Tree>
void ExpectCleanLoad(SnapshotKind kind, const std::string& payload,
                     const std::string& path, const std::string& what) {
  Tree loaded = EmptyTree<Tree>();
  if (LoadBytes(path, Envelope(kind, payload), &loaded).ok()) {
    EXPECT_TRUE(loaded.CheckInvariants().ok()) << what;
  }
}

std::vector<Hypersphere> MutationData() {
  SyntheticSpec spec;
  spec.n = 300;
  spec.dim = 3;
  spec.radius_mean = 6.0;
  spec.seed = 4242;
  return GenerateSynthetic(spec);
}

template <typename Tree>
std::string Payload(const Tree& tree) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(tree.Serialize(out).ok());
  return out.str();
}

// Offsets of the u64 count fields in an SS-tree node record stream, in
// serialization order (u8 tag, u64 count, then entries or children).
void SsCountOffsets(const SsTreeNode* node, size_t* offset,
                    std::vector<size_t>* out) {
  out->push_back(*offset + 1);
  *offset += 1 + sizeof(uint64_t);
  if (node->is_leaf()) {
    *offset += node->entries().size() * (sizeof(uint32_t) + sizeof(uint64_t));
    return;
  }
  for (const auto& child : node->children()) {
    SsCountOffsets(child.get(), offset, out);
  }
}

// Same for a VP-tree: leaves carry a u64 bucket count; internal nodes a
// vantage entry and, per present side, a band and a child record.
void VpCountOffsets(const VpTreeNode* node, size_t* offset,
                    std::vector<size_t>* out) {
  constexpr size_t kEntry = sizeof(uint32_t) + sizeof(uint64_t);
  if (node->is_leaf()) {
    out->push_back(*offset + 1);
    *offset += 1 + sizeof(uint64_t) + node->bucket().size() * kEntry;
    return;
  }
  *offset += 1 + kEntry;
  for (const VpTreeNode* child : {node->inside(), node->outside()}) {
    *offset += 1;
    if (child == nullptr) continue;
    *offset += 2 * sizeof(double);
    VpCountOffsets(child, offset, out);
  }
}

// Header u64 fields: tree dim/size/(max_entries|leaf_size), then the
// store blob's dim/size at `store_at`.
std::vector<size_t> HeaderOffsets(size_t store_at) {
  return {8, 16, 24, store_at, store_at + 8};
}

template <typename Tree>
void RunMutations(SnapshotKind kind, const std::string& payload,
                  const std::vector<size_t>& u64_fields, uint64_t seed) {
  const std::string path = TestPath(std::string(SnapshotKindName(kind)));
  Rng rng(seed);
  for (size_t field : u64_fields) {
    for (uint64_t value : kHugeCounts) {
      std::string mutant = payload;
      std::memcpy(mutant.data() + field, &value, sizeof(value));
      ExpectCleanLoad<Tree>(kind, mutant, path,
                            "u64 at " + std::to_string(field) + " = " +
                                std::to_string(value));
    }
  }
  for (int i = 0; i < 300; ++i) {
    const size_t keep = rng.UniformU64(payload.size());
    ExpectCleanLoad<Tree>(kind, payload.substr(0, keep), path,
                          "truncated to " + std::to_string(keep));
  }
  for (int i = 0; i < 1500; ++i) {
    std::string mutant = payload;
    const size_t pos = rng.UniformU64(mutant.size());
    mutant[pos] = static_cast<char>(rng.UniformU64(256));
    ExpectCleanLoad<Tree>(kind, mutant, path,
                          "byte " + std::to_string(pos) + " overwritten");
  }
  std::remove(path.c_str());
}

TEST(SnapshotMutationTest, SsTreeMutantsFailCleanlyOrLoadSound) {
  const auto data = MutationData();
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string payload = Payload(tree);
  // Header (48 bytes), store blob (16 + rows * (dim + 1) * 8), nodes.
  size_t offset = 48 + 16 + data.size() * 4 * sizeof(double);
  std::vector<size_t> fields = HeaderOffsets(48);
  SsCountOffsets(tree.root(), &offset, &fields);
  ASSERT_EQ(offset, payload.size());
  RunMutations<SsTree>(SnapshotKind::kSsTree, payload, fields, 0x55AA01);
}

TEST(SnapshotMutationTest, VpTreeMutantsFailCleanlyOrLoadSound) {
  const auto data = MutationData();
  VpTree tree;
  ASSERT_TRUE(tree.Build(data).ok());
  const std::string payload = Payload(tree);
  // Header (32 bytes), store blob, nodes.
  size_t offset = 32 + 16 + data.size() * 4 * sizeof(double);
  std::vector<size_t> fields = HeaderOffsets(32);
  VpCountOffsets(tree.root(), &offset, &fields);
  ASSERT_EQ(offset, payload.size());
  RunMutations<VpTree>(SnapshotKind::kVpTree, payload, fields, 0x55AA02);
}

// ---------------------------------------------------------------------------
// Crafted regression cases. Each is checksum-valid and declares a count
// far beyond its bytes; the parsers once sized memory from such counts
// and aborted with std::bad_alloc.
// ---------------------------------------------------------------------------

// An HDSS v3 header for one 4-d sphere, with `max_entries`.
std::string SsHeader(uint64_t max_entries) {
  std::string out("HDSS");
  AppendPod(&out, uint32_t{3});
  AppendPod(&out, uint64_t{4});  // dim
  AppendPod(&out, uint64_t{1});  // size
  AppendPod(&out, max_entries);
  AppendPod(&out, 0.4);          // min_fill_ratio
  AppendPod(&out, uint32_t{0});  // split_policy
  AppendPod(&out, uint32_t{0});  // bounding_policy
  return out;
}

// A store blob header declaring `rows` 4-d rows, followed by one row.
std::string StoreBlob(uint64_t rows) {
  std::string out;
  AppendPod(&out, uint64_t{4});
  AppendPod(&out, rows);
  for (double v : {1.0, 2.0, 3.0, 4.0, 0.5}) AppendPod(&out, v);
  return out;
}

// A leaf record declaring `count` entries, followed by one entry.
std::string LeafRecord(uint64_t count) {
  std::string out;
  AppendPod(&out, uint8_t{1});
  AppendPod(&out, count);
  AppendPod(&out, uint32_t{0});  // slot
  AppendPod(&out, uint64_t{0});  // id
  return out;
}

TEST(SnapshotRegressionTest, StoreRowCountBeyondPayloadIsCorruption) {
  // 128 bytes: the store header declares 2^32 rows.
  const std::string file = Envelope(
      SnapshotKind::kSsTree, SsHeader(24) + StoreBlob(uint64_t{1} << 32));
  ASSERT_EQ(file.size(), 128u);
  const std::string path = TestPath("rows.snap");
  SsTree loaded(1);
  EXPECT_EQ(LoadBytes(path, file, &loaded).code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotRegressionTest, SsLeafCountBeyondPayloadIsCorruption) {
  // 149 bytes: max_entries = 2^62 and a leaf declaring 2^40 entries.
  const std::string file =
      Envelope(SnapshotKind::kSsTree, SsHeader(uint64_t{1} << 62) +
                                          StoreBlob(1) +
                                          LeafRecord(uint64_t{1} << 40));
  ASSERT_EQ(file.size(), 149u);
  const std::string path = TestPath("ss_leaf.snap");
  SsTree loaded(1);
  EXPECT_EQ(LoadBytes(path, file, &loaded).code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotRegressionTest, VpBucketCountBeyondPayloadIsCorruption) {
  // leaf_size = 2^62 and a bucket declaring 2^40 entries.
  std::string payload("HDVP");
  AppendPod(&payload, uint32_t{2});
  AppendPod(&payload, uint64_t{4});         // dim
  AppendPod(&payload, uint64_t{1});         // size
  AppendPod(&payload, uint64_t{1} << 62);   // leaf_size
  payload += StoreBlob(1) + LeafRecord(uint64_t{1} << 40);
  const std::string path = TestPath("vp_leaf.snap");
  VpTree loaded;
  EXPECT_EQ(
      LoadBytes(path, Envelope(SnapshotKind::kVpTree, payload), &loaded).code(),
      StatusCode::kCorruption);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyperdom
