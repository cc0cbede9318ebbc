// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/vp_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/fault.h"
#include "common/pod_stream.h"
#include "index/index_metrics.h"

namespace hyperdom {

VpTree::VpTree(VpTreeOptions options)
    : options_(options), store_(std::make_shared<SphereStore>()) {}

Status VpTree::Build(const std::vector<Hypersphere>& spheres) {
  return BuildWithIds(spheres, {});
}

Status VpTree::BuildWithIds(const std::vector<Hypersphere>& spheres,
                            const std::vector<uint64_t>& ids) {
  IndexBuildRecorder recorder("vp", "build");
  root_.reset();
  size_ = 0;
  dim_ = 0;
  store_ = std::make_shared<SphereStore>();
  if (options_.leaf_size < 1) {
    return Status::InvalidArgument("VpTreeOptions.leaf_size must be >= 1");
  }
  // An empty id vector means "ids are positions" (the Build() behavior).
  if (!ids.empty() && ids.size() != spheres.size()) {
    return Status::InvalidArgument("ids must be empty or match spheres");
  }
  if (spheres.empty()) {
    recorder.Finish(0);
    return Status::OK();
  }
  HYPERDOM_FAULT_POINT("vp_tree/build");
  dim_ = spheres.front().dim();
  store_ = std::make_shared<SphereStore>(dim_);
  store_->Reserve(spheres.size());
  std::vector<VpTreeEntry> items;
  items.reserve(spheres.size());
  for (size_t i = 0; i < spheres.size(); ++i) {
    if (spheres[i].dim() != dim_) {
      return Status::InvalidArgument(
          "all spheres must share one dimensionality");
    }
    const uint32_t slot = store_->Add(spheres[i]);
    const uint64_t id = ids.empty() ? static_cast<uint64_t>(i) : ids[i];
    items.push_back(VpTreeEntry{slot, id});
  }
  HYPERDOM_RETURN_NOT_OK(BuildRecursive(std::move(items), &root_));
  size_ = spheres.size();
  recorder.Finish(size_);
  return Status::OK();
}

Status VpTree::BuildRecursive(std::vector<VpTreeEntry> items,
                              std::unique_ptr<VpTreeNode>* out) {
  // Node allocation — where a paged build would touch storage.
  HYPERDOM_FAULT_POINT("vp_tree/build_node");
  auto node = std::make_unique<VpTreeNode>();
  node->subtree_size_ = items.size();
  for (const auto& item : items) {
    node->max_radius_ = std::max(node->max_radius_, store_->radius(item.slot));
  }

  if (items.size() <= options_.leaf_size) {
    node->is_leaf_ = true;
    node->bucket_ = std::move(items);
    *out = std::move(node);
    return Status::OK();
  }

  // Vantage point: the last item (the vector order is caller-random; a
  // deterministic choice keeps builds reproducible).
  node->vantage_ = items.back();
  items.pop_back();

  // Distances of the remaining centers to the vantage center.
  const double* vantage_center = store_->center(node->vantage_.slot);
  std::vector<std::pair<double, size_t>> dist_order(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    dist_order[i] = {
        DistSpan(store_->center(items[i].slot), vantage_center, dim_), i};
  }
  std::sort(dist_order.begin(), dist_order.end());

  const size_t half = items.size() / 2;
  std::vector<VpTreeEntry> inside_items, outside_items;
  inside_items.reserve(half);
  outside_items.reserve(items.size() - half);
  for (size_t i = 0; i < dist_order.size(); ++i) {
    auto& target = i < half ? inside_items : outside_items;
    target.push_back(items[dist_order[i].second]);
  }

  if (!inside_items.empty()) {
    node->inside_lo_ = dist_order.front().first;
    node->inside_hi_ = dist_order[half - 1].first;
    HYPERDOM_RETURN_NOT_OK(
        BuildRecursive(std::move(inside_items), &node->inside_));
  }
  if (!outside_items.empty()) {
    node->outside_lo_ = dist_order[half].first;
    node->outside_hi_ = dist_order.back().first;
    HYPERDOM_RETURN_NOT_OK(
        BuildRecursive(std::move(outside_items), &node->outside_));
  }
  *out = std::move(node);
  return Status::OK();
}

namespace {

Status CheckNode(const VpTreeNode* node, const SphereStore& store,
                 size_t* entry_total) {
  if (node->is_leaf()) {
    for (const auto& e : node->bucket()) {
      if (e.slot >= store.size()) {
        return Status::Corruption("bucket slot out of store range");
      }
      if (store.radius(e.slot) > node->max_radius() + 1e-12) {
        return Status::Corruption("bucket radius exceeds max_radius");
      }
    }
    *entry_total += node->bucket().size();
    return Status::OK();
  }

  if (node->vantage().slot >= store.size()) {
    return Status::Corruption("vantage slot out of store range");
  }
  if (store.radius(node->vantage().slot) > node->max_radius() + 1e-12) {
    return Status::Corruption("vantage radius exceeds max_radius");
  }
  size_t children_total = 1;  // the vantage entry itself

  struct Side {
    const VpTreeNode* child;
    double lo;
    double hi;
  };
  const Side sides[2] = {
      {node->inside(), node->inside_lo(), node->inside_hi()},
      {node->outside(), node->outside_lo(), node->outside_hi()},
  };
  const double* vantage_center = store.center(node->vantage().slot);
  for (const Side& side : sides) {
    if (side.child == nullptr) continue;
    if (side.child->max_radius() > node->max_radius() + 1e-12) {
      return Status::Corruption("child max_radius exceeds parent's");
    }
    // Every entry in the child subtree must respect the distance band.
    std::vector<const VpTreeNode*> stack = {side.child};
    while (!stack.empty()) {
      const VpTreeNode* cur = stack.back();
      stack.pop_back();
      auto check_entry = [&](const VpTreeEntry& e) {
        if (e.slot >= store.size()) {
          return Status::Corruption("entry slot out of store range");
        }
        const double d =
            DistSpan(store.center(e.slot), vantage_center, store.dim());
        const double slack = 1e-9 * (1.0 + d);
        if (d < side.lo - slack || d > side.hi + slack) {
          return Status::Corruption("entry violates distance band");
        }
        return Status::OK();
      };
      if (cur->is_leaf()) {
        for (const auto& e : cur->bucket()) {
          HYPERDOM_RETURN_NOT_OK(check_entry(e));
        }
      } else {
        HYPERDOM_RETURN_NOT_OK(check_entry(cur->vantage()));
        if (cur->inside() != nullptr) stack.push_back(cur->inside());
        if (cur->outside() != nullptr) stack.push_back(cur->outside());
      }
    }
    HYPERDOM_RETURN_NOT_OK(CheckNode(side.child, store, &children_total));
  }
  if (children_total != node->subtree_size()) {
    return Status::Corruption("subtree count mismatch");
  }
  *entry_total += children_total;
  return Status::OK();
}

}  // namespace

Status VpTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty root but nonzero size");
  }
  size_t entry_total = 0;
  HYPERDOM_RETURN_NOT_OK(CheckNode(root_.get(), *store_, &entry_total));
  if (entry_total != size_) {
    return Status::Corruption("total entry count mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Persistence. Same conventions as the SS-tree format (ss_tree.cc): host
// endianness, a same-machine cache format, derived data recomputed on load.
//   magic "HDVP" + u32 version
//   u64 dim, u64 size, u64 leaf_size
//   the SphereStore blob (storage/sphere_store.cc), then recursive node
//   records (present iff size > 0):
//     u8 is_leaf
//     leaf:     u64 bucket_count, then per entry: u32 slot, u64 id
//     internal: the vantage entry (u32 slot, u64 id), then per side
//               (inside, outside): u8 present, and when present f64 lo,
//               f64 hi, child record
// Version 2 is the only one read; older versions get kNotSupported.
// ---------------------------------------------------------------------------

namespace {

constexpr char kVpMagic[4] = {'H', 'D', 'V', 'P'};
constexpr uint32_t kVpFormatVersion = 2;
/// Bytes of one serialized entry: u32 slot, u64 id.
constexpr uint64_t kVpEntryBytes = sizeof(uint32_t) + sizeof(uint64_t);

void SaveEntry(std::ostream& out, const VpTreeEntry& e) {
  WritePod(out, e.slot);
  WritePod(out, e.id);
}

Status ReadEntry(std::istream& in, const SphereStore& store,
                   VpTreeEntry* out) {
  uint32_t slot = 0;
  uint64_t id = 0;
  if (!ReadPod(in, &slot) || !ReadPod(in, &id)) {
    return Status::Corruption("truncated entry");
  }
  if (slot >= store.size()) {
    return Status::Corruption("entry slot out of store range");
  }
  *out = VpTreeEntry{slot, id};
  return Status::OK();
}

void SaveVpNode(std::ostream& out, const VpTreeNode* node) {
  const uint8_t is_leaf = node->is_leaf() ? 1 : 0;
  WritePod(out, is_leaf);
  if (node->is_leaf()) {
    WritePod(out, static_cast<uint64_t>(node->bucket().size()));
    for (const auto& e : node->bucket()) SaveEntry(out, e);
    return;
  }
  SaveEntry(out, node->vantage());
  const struct {
    const VpTreeNode* child;
    double lo;
    double hi;
  } sides[2] = {
      {node->inside(), node->inside_lo(), node->inside_hi()},
      {node->outside(), node->outside_lo(), node->outside_hi()},
  };
  for (const auto& side : sides) {
    const uint8_t present = side.child != nullptr ? 1 : 0;
    WritePod(out, present);
    if (present) {
      WritePod(out, side.lo);
      WritePod(out, side.hi);
      SaveVpNode(out, side.child);
    }
  }
}

}  // namespace

Status VpTree::Serialize(std::ostream& out) const {
  HYPERDOM_FAULT_POINT("vp_tree/serialize");
  out.write(kVpMagic, sizeof(kVpMagic));
  WritePod(out, kVpFormatVersion);
  WritePod(out, static_cast<uint64_t>(dim_));
  WritePod(out, static_cast<uint64_t>(size_));
  WritePod(out, static_cast<uint64_t>(options_.leaf_size));
  HYPERDOM_RETURN_NOT_OK(store_->SerializeTo(out));
  if (root_ != nullptr) SaveVpNode(out, root_.get());
  out.flush();
  if (!out) return Status::IOError("VP-tree serialization stream failed");
  return Status::OK();
}

Status VpTree::LoadNode(std::istream& in, const SphereStore& store,
                        size_t leaf_size, size_t depth,
                        std::unique_ptr<VpTreeNode>* out_node) {
  // A valid build halves the item count per level, so any honest tree is
  // far shallower than 128 levels; deeper means a corrupt file.
  if (depth > 128) return Status::Corruption("node nesting too deep");
  uint8_t is_leaf = 0;
  if (!ReadPod(in, &is_leaf) || is_leaf > 1) {
    return Status::Corruption("bad node tag");
  }
  auto node = std::make_unique<VpTreeNode>();
  if (is_leaf == 1) {
    node->is_leaf_ = true;
    uint64_t count = 0;
    if (!ReadPod(in, &count)) return Status::Corruption("truncated node");
    if (count == 0 || count > leaf_size ||
        !CountFits(in, count, kVpEntryBytes)) {
      return Status::Corruption("bucket size out of range");
    }
    node->bucket_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      VpTreeEntry e;
      HYPERDOM_RETURN_NOT_OK(ReadEntry(in, store, &e));
      node->max_radius_ = std::max(node->max_radius_, store.radius(e.slot));
      node->bucket_.push_back(e);
    }
    node->subtree_size_ = node->bucket_.size();
    *out_node = std::move(node);
    return Status::OK();
  }

  HYPERDOM_RETURN_NOT_OK(ReadEntry(in, store, &node->vantage_));
  node->max_radius_ = store.radius(node->vantage_.slot);
  node->subtree_size_ = 1;
  struct Side {
    std::unique_ptr<VpTreeNode>* child;
    double* lo;
    double* hi;
  };
  const Side sides[2] = {
      {&node->inside_, &node->inside_lo_, &node->inside_hi_},
      {&node->outside_, &node->outside_lo_, &node->outside_hi_},
  };
  for (const Side& side : sides) {
    uint8_t present = 0;
    if (!ReadPod(in, &present) || present > 1) {
      return Status::Corruption("bad side tag");
    }
    if (present == 0) continue;
    if (!ReadPod(in, side.lo) || !ReadPod(in, side.hi)) {
      return Status::Corruption("truncated band");
    }
    if (!std::isfinite(*side.lo) || !std::isfinite(*side.hi) ||
        *side.lo < 0.0 || *side.hi < *side.lo) {
      return Status::Corruption("bad distance band");
    }
    HYPERDOM_RETURN_NOT_OK(
        LoadNode(in, store, leaf_size, depth + 1, side.child));
    node->max_radius_ =
        std::max(node->max_radius_, (*side.child)->max_radius_);
    node->subtree_size_ += (*side.child)->subtree_size_;
  }
  if (node->inside_ == nullptr && node->outside_ == nullptr) {
    return Status::Corruption("internal node without children");
  }
  *out_node = std::move(node);
  return Status::OK();
}

Status VpTree::Deserialize(std::istream& in, VpTree* out) {
  HYPERDOM_FAULT_POINT("vp_tree/deserialize");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kVpMagic, sizeof(kVpMagic)) != 0) {
    return Status::Corruption("bad magic: not a VP-tree stream");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Status::Corruption("truncated header");
  if (version != kVpFormatVersion) {
    return Status::NotSupported("unsupported VP-tree format version " +
                                std::to_string(version));
  }
  uint64_t dim = 0, size = 0, leaf_size = 0;
  if (!ReadPod(in, &dim) || !ReadPod(in, &size) || !ReadPod(in, &leaf_size)) {
    return Status::Corruption("truncated header");
  }
  if (leaf_size == 0 || (size > 0 && dim == 0)) {
    return Status::Corruption("bad header fields");
  }

  VpTreeOptions options;
  options.leaf_size = leaf_size;
  VpTree tree(options);
  SphereStore store;
  HYPERDOM_RETURN_NOT_OK(SphereStore::DeserializeFrom(in, &store));
  if (store.size() > 0 && store.dim() != dim) {
    return Status::Corruption("store dimensionality mismatch");
  }
  *tree.store_ = std::move(store);
  if (size > 0) {
    HYPERDOM_RETURN_NOT_OK(
        LoadNode(in, *tree.store_, leaf_size, /*depth=*/0, &tree.root_));
    if (tree.root_->subtree_size_ != size) {
      return Status::Corruption("entry count does not match header");
    }
    tree.dim_ = dim;
    tree.size_ = size;
  }
  HYPERDOM_RETURN_NOT_OK(tree.CheckInvariants());
  *out = std::move(tree);
  return Status::OK();
}

}  // namespace hyperdom
