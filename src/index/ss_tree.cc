// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/ss_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <istream>
#include <numeric>
#include <ostream>

#include "common/fault.h"
#include "common/pod_stream.h"
#include "common/str_util.h"
#include "geometry/min_ball.h"
#include "index/index_metrics.h"

namespace hyperdom {

namespace {

// Relative slack used by the invariant checker when verifying coverage;
// bounding radii are accumulated in floating point.
constexpr double kCoverageSlack = 1e-7;

Point Centroid(const Point& center_sum, size_t count) {
  return Scale(center_sum, 1.0 / static_cast<double>(count));
}

// Exact (bitwise ==) match of a stored row against a caller sphere; the
// Delete() contract is "this exact id and sphere".
bool EntryMatches(const SphereStore& store, const StoredEntry& e,
                  const Hypersphere& sphere, uint64_t id) {
  if (e.id != id) return false;
  const SphereView v = store.view(e.slot);
  if (v.radius != sphere.radius()) return false;
  const double* c = sphere.center().data();
  for (size_t i = 0; i < v.dim; ++i) {
    if (v.center[i] != c[i]) return false;
  }
  return true;
}

}  // namespace

SsTree::SsTree(size_t dim, SsTreeOptions options)
    : dim_(dim), options_(options),
      store_(std::make_shared<SphereStore>(dim)) {}

Status SsTree::ValidateOptions() const {
  if (options_.max_entries < 4) {
    return Status::InvalidArgument("SsTreeOptions.max_entries must be >= 4");
  }
  if (!(options_.min_fill_ratio > 0.0) || options_.min_fill_ratio > 0.5) {
    return Status::InvalidArgument(
        "SsTreeOptions.min_fill_ratio must be in (0, 0.5]");
  }
  return Status::OK();
}

Status SsTree::Insert(const Hypersphere& sphere, uint64_t id) {
  HYPERDOM_RETURN_NOT_OK(ValidateOptions());
  if (sphere.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch: tree is " +
                                   std::to_string(dim_) + "-d, sphere is " +
                                   std::to_string(sphere.dim()) + "-d");
  }
  const uint32_t slot = store_->Add(sphere);
  return InsertStored(SsTreeEntry{slot, id});
}

Status SsTree::InsertStored(const SsTreeEntry& entry) {
  HYPERDOM_FAULT_POINT("ss_tree/insert");
  if (root_ == nullptr) {
    root_ = std::make_unique<SsTreeNode>(/*is_leaf=*/true);
    root_->center_sum_ = Point(dim_, 0.0);
  }
  std::unique_ptr<SsTreeNode> split_off;
  HYPERDOM_RETURN_NOT_OK(InsertRecursive(root_.get(), entry, &split_off));
  if (split_off != nullptr) {
    // Grow a new root above the two halves.
    auto new_root = std::make_unique<SsTreeNode>(/*is_leaf=*/false);
    new_root->center_sum_ = Add(root_->center_sum_, split_off->center_sum_);
    new_root->count_ = root_->count_ + split_off->count_;
    new_root->children_.push_back(std::move(root_));
    new_root->children_.push_back(std::move(split_off));
    RefreshBoundingSphere(new_root.get());
    root_ = std::move(new_root);
  }
  ++size_;
  return Status::OK();
}

Status SsTree::BulkLoad(const std::vector<Hypersphere>& spheres) {
  IndexBuildRecorder recorder("ss", "bulk_load");
  for (size_t i = 0; i < spheres.size(); ++i) {
    HYPERDOM_RETURN_NOT_OK(Insert(spheres[i], static_cast<uint64_t>(i)));
  }
  recorder.Finish(size_);
  return Status::OK();
}

void SsTree::RebuildNodeStats(SsTreeNode* node) {
  node->center_sum_ = Point(dim_, 0.0);
  node->count_ = 0;
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      AddInPlaceSpan(node->center_sum_.data(), store_->center(e.slot), dim_);
    }
    node->count_ = node->entries_.size();
  } else {
    for (const auto& child : node->children_) {
      node->center_sum_ = Add(node->center_sum_, child->center_sum_);
      node->count_ += child->count_;
    }
  }
  RefreshBoundingSphere(node);
}

Status SsTree::BulkLoadStr(const std::vector<Hypersphere>& spheres) {
  return BulkLoadStrWithIds(spheres, {});
}

// Top-down packing. The height is the smallest h with capacity^h >= n; a
// node of height h over m entries gets ceil(m / capacity^(h-1)) children,
// cut out of its run of `items_` by recursive median cuts on the center
// coordinate of widest spread. Ties break by input position, so the cuts
// are a function of the input alone, whatever order nth_element leaves.
// Group sizes differ by at most one, which keeps every non-root node at
// two or more entries. Leaves are made in DFS order and each appends its
// rows to the store as it is made, so a leaf's slots are one contiguous
// run and the store is written once.
class SsTree::TopDownPacker {
 public:
  TopDownPacker(SsTree* tree, const std::vector<Hypersphere>& spheres,
                const std::vector<uint64_t>& ids, size_t capacity)
      : tree_(tree), spheres_(spheres), ids_(ids), capacity_(capacity),
        items_(spheres.size()) {
    for (size_t i = 0; i < items_.size(); ++i) {
      items_[i].pos = static_cast<uint32_t>(i);
    }
  }

  std::unique_ptr<SsTreeNode> Pack() {
    size_t height = 1;
    size_t span = capacity_;  // entries a subtree of `height` holds
    while (span < items_.size()) {
      span *= capacity_;
      ++height;
    }
    return Node(0, items_.size(), height, span / capacity_);
  }

 private:
  /// An entry being packed: its input position and the coordinate the
  /// current cut sorts on, side by side so nth_element stays sequential.
  struct Item {
    double key = 0.0;
    uint32_t pos = 0;
    bool operator<(const Item& other) const {
      return key < other.key || (key == other.key && pos < other.pos);
    }
  };

  // Packs items_[lo, hi) into a subtree of `height`, each child holding at
  // most `child_span` entries.
  std::unique_ptr<SsTreeNode> Node(size_t lo, size_t hi, size_t height,
                                   size_t child_span) {
    auto node = std::make_unique<SsTreeNode>(/*is_leaf=*/height == 1);
    if (height == 1) {
      // Input order within the leaf, so the slot order does not depend on
      // how nth_element left the range.
      std::sort(items_.begin() + lo, items_.begin() + hi,
                [](const Item& a, const Item& b) { return a.pos < b.pos; });
      SphereStore& store = *tree_->store_;
      node->entries_.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t pos = items_[i].pos;
        node->entries_.push_back(SsTreeEntry{
            store.Add(spheres_[pos]), ids_.empty() ? pos : ids_[pos]});
      }
    } else {
      const size_t groups = (hi - lo + child_span - 1) / child_span;
      node->children_.reserve(groups);
      Split(node.get(), lo, hi, groups, height - 1, child_span / capacity_);
    }
    tree_->RebuildNodeStats(node.get());
    return node;
  }

  // Cuts items_[lo, hi) into `groups` runs of near-equal size and packs
  // each, left to right, as a child of `parent`.
  void Split(SsTreeNode* parent, size_t lo, size_t hi, size_t groups,
             size_t height, size_t child_span) {
    if (groups == 1) {
      parent->children_.push_back(Node(lo, hi, height, child_span));
      return;
    }
    const size_t left_groups = groups / 2;
    const size_t mid = lo + (hi - lo) * left_groups / groups;
    const size_t axis = WidestAxis(lo, hi);
    for (size_t i = lo; i < hi; ++i) {
      items_[i].key = spheres_[items_[i].pos].center()[axis];
    }
    std::nth_element(items_.begin() + lo, items_.begin() + mid,
                     items_.begin() + hi);
    Split(parent, lo, mid, left_groups, height, child_span);
    Split(parent, mid, hi, groups - left_groups, height, child_span);
  }

  // The center coordinate with the largest max - min over items_[lo, hi);
  // the lowest index among equals.
  size_t WidestAxis(size_t lo, size_t hi) const {
    const size_t dim = tree_->dim_;
    std::vector<double> low(dim, std::numeric_limits<double>::infinity());
    std::vector<double> high(dim, -std::numeric_limits<double>::infinity());
    for (size_t i = lo; i < hi; ++i) {
      const double* c = spheres_[items_[i].pos].center().data();
      for (size_t d = 0; d < dim; ++d) {
        low[d] = std::min(low[d], c[d]);
        high[d] = std::max(high[d], c[d]);
      }
    }
    size_t axis = 0;
    for (size_t d = 1; d < dim; ++d) {
      if (high[d] - low[d] > high[axis] - low[axis]) axis = d;
    }
    return axis;
  }

  SsTree* tree_;
  const std::vector<Hypersphere>& spheres_;
  const std::vector<uint64_t>& ids_;
  const size_t capacity_;
  /// Permuted in place by the cuts; a node's entries are one run.
  std::vector<Item> items_;
};

Status SsTree::BulkLoadStrWithIds(const std::vector<Hypersphere>& spheres,
                                  const std::vector<uint64_t>& ids) {
  IndexBuildRecorder recorder("ss", "str_pack");
  HYPERDOM_RETURN_NOT_OK(ValidateOptions());
  if (!ids.empty() && ids.size() != spheres.size()) {
    return Status::InvalidArgument("ids and spheres must have equal sizes");
  }
  for (const Hypersphere& sphere : spheres) {
    if (sphere.dim() != dim_) {
      return Status::InvalidArgument(
          "all spheres must share the tree's dimensionality");
    }
  }
  HYPERDOM_FAULT_POINT("ss_tree/str_pack");
  root_.reset();
  size_ = 0;
  store_ = std::make_shared<SphereStore>(dim_);
  if (spheres.empty()) {
    recorder.Finish(0);
    return Status::OK();
  }

  // Pack at ~85% occupancy: full packing turns every subsequent insert
  // into a cascade of splits.
  const size_t capacity = std::max<size_t>(
      2,
      static_cast<size_t>(0.85 * static_cast<double>(options_.max_entries)));
  store_->Reserve(spheres.size());
  root_ = TopDownPacker(this, spheres, ids, capacity).Pack();
  size_ = spheres.size();
  recorder.Finish(size_);
  return Status::OK();
}

Status SsTree::Delete(const Hypersphere& sphere, uint64_t id) {
  if (root_ == nullptr) return Status::NotFound("tree is empty");
  if (sphere.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }

  // Locate the leaf containing the exact (sphere, id) entry, keeping the
  // path; containment pruning bounds the search.
  std::vector<SsTreeNode*> path;
  size_t entry_index = 0;
  {
    struct Frame {
      SsTreeNode* node;
      size_t next_child;
    };
    std::vector<Frame> stack = {{root_.get(), 0}};
    bool found = false;
    while (!stack.empty() && !found) {
      Frame& frame = stack.back();
      SsTreeNode* node = frame.node;
      const Hypersphere& bound = node->bounding_;
      const double slack =
          1e-7 * (1.0 + bound.radius() + Norm(bound.center()));
      if (frame.next_child == 0 &&
          Dist(bound.center(), sphere.center()) + sphere.radius() >
              bound.radius() + slack) {
        stack.pop_back();
        continue;
      }
      if (node->is_leaf_) {
        for (size_t i = 0; i < node->entries_.size(); ++i) {
          if (EntryMatches(*store_, node->entries_[i], sphere, id)) {
            entry_index = i;
            found = true;
            break;
          }
        }
        if (!found) {
          stack.pop_back();
          continue;
        }
      } else {
        if (frame.next_child < node->children_.size()) {
          SsTreeNode* child = node->children_[frame.next_child].get();
          ++frame.next_child;
          stack.push_back({child, 0});
          continue;
        }
        stack.pop_back();
        continue;
      }
      // Found: materialize the path from the stack frames.
      for (const Frame& f : stack) path.push_back(f.node);
    }
    if (path.empty()) return Status::NotFound("no such entry");
  }

  // Remove the entry and update the bookkeeping along the path. The store
  // slot is abandoned (the arena is append-only); only the handle goes.
  SsTreeNode* leaf = path.back();
  const uint32_t removed_slot = leaf->entries_[entry_index].slot;
  leaf->entries_.erase(leaf->entries_.begin() +
                       static_cast<std::ptrdiff_t>(entry_index));
  for (SsTreeNode* node : path) {
    SubInPlaceSpan(node->center_sum_.data(), store_->center(removed_slot),
                   dim_);
    node->count_ -= 1;
  }
  --size_;

  // Dissolve underflowing non-root nodes bottom-up, collecting residents
  // for reinsertion.
  std::vector<SsTreeEntry> orphans;
  for (size_t level_i = path.size(); level_i-- > 1;) {
    SsTreeNode* node = path[level_i];
    const size_t occupancy =
        node->is_leaf_ ? node->entries_.size() : node->children_.size();
    if (occupancy >= 2) break;
    // Collect every entry beneath `node`.
    std::vector<SsTreeEntry> residents;
    std::vector<SsTreeNode*> walk = {node};
    while (!walk.empty()) {
      SsTreeNode* cur = walk.back();
      walk.pop_back();
      if (cur->is_leaf_) {
        for (const auto& e : cur->entries_) residents.push_back(e);
      } else {
        for (auto& child : cur->children_) walk.push_back(child.get());
      }
    }
    // Detach from the parent and subtract the residents from the
    // remaining ancestors.
    SsTreeNode* parent = path[level_i - 1];
    for (auto it = parent->children_.begin(); it != parent->children_.end();
         ++it) {
      if (it->get() == node) {
        parent->children_.erase(it);
        break;
      }
    }
    for (size_t a = 0; a < level_i; ++a) {
      for (const auto& e : residents) {
        SubInPlaceSpan(path[a]->center_sum_.data(), store_->center(e.slot),
                       dim_);
        path[a]->count_ -= 1;
      }
    }
    path.resize(level_i);  // the dissolved node is gone
    for (const auto& e : residents) orphans.push_back(e);
  }

  // Refresh bounds bottom-up along the surviving path.
  for (size_t level_i = path.size(); level_i-- > 0;) {
    if (path[level_i]->count_ > 0) RefreshBoundingSphere(path[level_i]);
  }

  // Root shrinkage: collapse single-child internal roots, drop an empty
  // root leaf.
  while (root_ != nullptr && !root_->is_leaf_ &&
         root_->children_.size() == 1) {
    root_ = std::move(root_->children_.front());
  }
  if (root_ != nullptr && root_->is_leaf_ && root_->entries_.empty()) {
    root_.reset();
  }

  // Reinsert the dissolved residents through the stored-entry path (their
  // spheres already live in the store; re-adding would duplicate slots).
  // Each InsertStored() increments size_, but the residents were never
  // subtracted from it.
  for (const auto& orphan : orphans) {
    --size_;
    HYPERDOM_RETURN_NOT_OK(InsertStored(orphan));
  }
  return Status::OK();
}

Status SsTree::InsertRecursive(SsTreeNode* node, const SsTreeEntry& entry,
                               std::unique_ptr<SsTreeNode>* split_off) {
  const double* entry_center = store_->center(entry.slot);
  AddInPlaceSpan(node->center_sum_.data(), entry_center, dim_);
  node->count_ += 1;

  if (node->is_leaf_) {
    node->entries_.push_back(entry);
  } else {
    // Cheapest-centroid rule: descend into the child whose centroid is
    // nearest the new sphere's center.
    SsTreeNode* best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto& child : node->children_) {
      const Point centroid = Centroid(child->center_sum_, child->count_);
      const double d = SquaredDistSpan(centroid.data(), entry_center, dim_);
      if (d < best_dist) {
        best_dist = d;
        best = child.get();
      }
    }
    std::unique_ptr<SsTreeNode> child_split;
    HYPERDOM_RETURN_NOT_OK(InsertRecursive(best, entry, &child_split));
    if (child_split != nullptr) {
      node->children_.push_back(std::move(child_split));
    }
  }

  const size_t occupancy =
      node->is_leaf_ ? node->entries_.size() : node->children_.size();
  if (occupancy > options_.max_entries) {
    HYPERDOM_RETURN_NOT_OK(SplitNode(node, split_off));
  }
  RefreshBoundingSphere(node);
  return Status::OK();
}

void SsTree::RefreshBoundingSphere(SsTreeNode* node) {
  if (options_.bounding_policy == SsTreeBoundingPolicy::kMinBall) {
    // Near-minimal enclosing ball of the node's regions. The centroid
    // bookkeeping (center_sum_/count_) stays untouched — it still drives
    // the insertion descent and the split keys.
    std::vector<Hypersphere> regions;
    if (node->is_leaf_) {
      regions.reserve(node->entries_.size());
      for (const auto& e : node->entries_) {
        regions.push_back(store_->Materialize(e.slot));
      }
    } else {
      regions.reserve(node->children_.size());
      for (const auto& child : node->children_) {
        regions.push_back(child->bounding_);
      }
    }
    node->bounding_ = MinBallOfSpheres(regions);
    return;
  }

  const Point center = Centroid(node->center_sum_, node->count_);
  double radius = 0.0;
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      radius = std::max(radius,
                        DistSpan(center.data(), store_->center(e.slot), dim_) +
                            store_->radius(e.slot));
    }
  } else {
    for (const auto& child : node->children_) {
      radius = std::max(radius, Dist(center, child->bounding_.center()) +
                                    child->bounding_.radius());
    }
  }
  node->bounding_ = Hypersphere(center, radius);
}

std::vector<bool> SsTree::ChoosePartition(const std::vector<Point>& keys) const {
  const size_t n = keys.size();
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(options_.min_fill_ratio *
                                       static_cast<double>(n))));
  std::vector<bool> to_sibling(n, false);

  if (options_.split_policy == SsTreeSplitPolicy::kTwoMeans) {
    // SS+-style split: 2-means over the keys, seeded by the farthest pair.
    size_t pa = 0, pb = 1;
    double farthest = -1.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const double d = SquaredDist(keys[i], keys[j]);
        if (d > farthest) {
          farthest = d;
          pa = i;
          pb = j;
        }
      }
    }
    Point mean_a = keys[pa];
    Point mean_b = keys[pb];
    for (int iter = 0; iter < 8; ++iter) {
      bool changed = false;
      for (size_t i = 0; i < n; ++i) {
        const bool sibling_side =
            SquaredDist(keys[i], mean_b) < SquaredDist(keys[i], mean_a);
        if (sibling_side != to_sibling[i]) {
          to_sibling[i] = sibling_side;
          changed = true;
        }
      }
      if (!changed && iter > 0) break;
      // Recompute the means; degenerate empty sides keep the previous one.
      Point sum_a(dim_, 0.0), sum_b(dim_, 0.0);
      size_t count_a = 0, count_b = 0;
      for (size_t i = 0; i < n; ++i) {
        if (to_sibling[i]) {
          sum_b = Add(sum_b, keys[i]);
          ++count_b;
        } else {
          sum_a = Add(sum_a, keys[i]);
          ++count_a;
        }
      }
      if (count_a > 0) mean_a = Scale(sum_a, 1.0 / count_a);
      if (count_b > 0) mean_b = Scale(sum_b, 1.0 / count_b);
    }
    // Min-fill backstop: move the items nearest the other mean across.
    auto side_count = [&](bool sibling_side) {
      size_t c = 0;
      for (bool flag : to_sibling) {
        if (flag == sibling_side) ++c;
      }
      return c;
    };
    auto top_up = [&](bool sibling_side, const Point& target_mean) {
      while (side_count(sibling_side) < min_fill) {
        size_t best_idx = n;
        double best_dist = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < n; ++i) {
          if (to_sibling[i] == sibling_side) continue;
          const double d = SquaredDist(keys[i], target_mean);
          if (d < best_dist) {
            best_dist = d;
            best_idx = i;
          }
        }
        to_sibling[best_idx] = sibling_side;
      }
    };
    top_up(true, mean_b);
    top_up(false, mean_a);
    return to_sibling;
  }

  // White & Jain's original: highest-variance coordinate, minimum summed
  // variance cut.
  size_t split_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& k : keys) {
      sum += k[d];
      sum_sq += k[d] * k[d];
    }
    const double mean = sum / static_cast<double>(n);
    const double var = sum_sq / static_cast<double>(n) - mean * mean;
    if (var > best_var) {
      best_var = var;
      split_dim = d;
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return keys[a][split_dim] < keys[b][split_dim];
  });

  std::vector<double> prefix_sum(n + 1, 0.0), prefix_sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double v = keys[order[i]][split_dim];
    prefix_sum[i + 1] = prefix_sum[i] + v;
    prefix_sq[i + 1] = prefix_sq[i] + v * v;
  }
  auto side_var = [&](size_t lo, size_t hi) {  // [lo, hi)
    const double cnt = static_cast<double>(hi - lo);
    const double mean = (prefix_sum[hi] - prefix_sum[lo]) / cnt;
    return (prefix_sq[hi] - prefix_sq[lo]) / cnt - mean * mean;
  };
  size_t best_cut = min_fill;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t cut = min_fill; cut + min_fill <= n; ++cut) {
    const double cost = side_var(0, cut) + side_var(cut, n);
    if (cost < best_cost) {
      best_cost = cost;
      best_cut = cut;
    }
  }
  for (size_t i = best_cut; i < n; ++i) to_sibling[order[i]] = true;
  return to_sibling;
}

Status SsTree::SplitNode(SsTreeNode* node,
                         std::unique_ptr<SsTreeNode>* out_sibling) {
  // The split allocates a sibling node — the spot where a real allocation
  // or I/O failure would surface in a paged implementation.
  HYPERDOM_FAULT_POINT("ss_tree/split");
  // Split keys: entry centers for leaves, child centroids for internals.
  std::vector<Point> keys;
  const size_t n =
      node->is_leaf_ ? node->entries_.size() : node->children_.size();
  keys.reserve(n);
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      const double* c = store_->center(e.slot);
      keys.emplace_back(c, c + dim_);
    }
  } else {
    for (const auto& child : node->children_) {
      keys.push_back(Centroid(child->center_sum_, child->count_));
    }
  }

  const std::vector<bool> to_sibling = ChoosePartition(keys);

  auto sibling = std::make_unique<SsTreeNode>(node->is_leaf_);
  sibling->center_sum_ = Point(dim_, 0.0);
  if (node->is_leaf_) {
    std::vector<SsTreeEntry> left, right;
    for (size_t i = 0; i < n; ++i) {
      (to_sibling[i] ? right : left).push_back(node->entries_[i]);
    }
    node->entries_ = std::move(left);
    sibling->entries_ = std::move(right);
    node->center_sum_ = Point(dim_, 0.0);
    node->count_ = node->entries_.size();
    for (const auto& e : node->entries_) {
      AddInPlaceSpan(node->center_sum_.data(), store_->center(e.slot), dim_);
    }
    sibling->count_ = sibling->entries_.size();
    for (const auto& e : sibling->entries_) {
      AddInPlaceSpan(sibling->center_sum_.data(), store_->center(e.slot),
                     dim_);
    }
  } else {
    std::vector<std::unique_ptr<SsTreeNode>> left, right;
    for (size_t i = 0; i < n; ++i) {
      (to_sibling[i] ? right : left).push_back(
          std::move(node->children_[i]));
    }
    node->children_ = std::move(left);
    sibling->children_ = std::move(right);
    node->center_sum_ = Point(dim_, 0.0);
    node->count_ = 0;
    for (const auto& child : node->children_) {
      node->center_sum_ = Add(node->center_sum_, child->center_sum_);
      node->count_ += child->count_;
    }
    sibling->count_ = 0;
    for (const auto& child : sibling->children_) {
      sibling->center_sum_ = Add(sibling->center_sum_, child->center_sum_);
      sibling->count_ += child->count_;
    }
  }
  RefreshBoundingSphere(node);
  RefreshBoundingSphere(sibling.get());
  *out_sibling = std::move(sibling);
  return Status::OK();
}

size_t SsTree::Height() const {
  size_t h = 0;
  for (const SsTreeNode* node = root_.get(); node != nullptr;
       node = node->is_leaf() ? nullptr : node->children().front().get()) {
    ++h;
  }
  return h;
}

namespace {

Status CheckNode(const SsTreeNode* node, const SphereStore& store,
                 const SsTreeOptions& options, bool is_root, size_t depth,
                 size_t* leaf_depth, size_t* entry_total) {
  const Hypersphere& bound = node->bounding_sphere();
  const double slack =
      kCoverageSlack * (1.0 + bound.radius() + Norm(bound.center()));

  const size_t occupancy = node->is_leaf() ? node->entries().size()
                                           : node->children().size();
  if (occupancy > options.max_entries) {
    return Status::Corruption("node occupancy exceeds max_entries");
  }
  if (!is_root && occupancy < 2) {
    return Status::Corruption("non-root node with fewer than 2 items");
  }

  if (node->is_leaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    size_t count = 0;
    for (const auto& e : node->entries()) {
      if (e.slot >= store.size()) {
        return Status::Corruption("entry slot out of store range");
      }
      if (DistSpan(bound.center().data(), store.center(e.slot), store.dim()) +
              store.radius(e.slot) >
          bound.radius() + slack) {
        return Status::Corruption("leaf entry escapes bounding sphere");
      }
      ++count;
    }
    if (count != node->subtree_size()) {
      return Status::Corruption("leaf count mismatch");
    }
    *entry_total += count;
    return Status::OK();
  }

  size_t child_total = 0;
  for (const auto& child : node->children()) {
    const Hypersphere& cb = child->bounding_sphere();
    if (Dist(bound.center(), cb.center()) + cb.radius() >
        bound.radius() + slack) {
      return Status::Corruption("child sphere escapes parent sphere");
    }
    HYPERDOM_RETURN_NOT_OK(CheckNode(child.get(), store, options,
                                     /*is_root=*/false, depth + 1, leaf_depth,
                                     entry_total));
    child_total += child->subtree_size();
  }
  if (child_total != node->subtree_size()) {
    return Status::Corruption("internal subtree count mismatch");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Persistence. Binary layout (all integers little-endian host-width types,
// doubles in IEEE host representation — a same-machine cache format):
//   magic "HDSS" + u32 version
//   u64 dim, u64 size, u64 max_entries, f64 min_fill_ratio, u32 split_policy,
//   u32 bounding_policy
//   the SphereStore blob (storage/sphere_store.cc), then recursive node
//   records:
//     u8 is_leaf
//     leaf:     u64 entry_count, then per entry: u32 slot, u64 id
//     internal: u64 child_count, then the child records
// Version 3 is the only one read; older versions get kNotSupported.
// Centroids and bounding spheres are recomputed on load. Abandoned store
// slots (from Delete) are serialized too: slots must stay stable.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'H', 'D', 'S', 'S'};
constexpr uint32_t kFormatVersion = 3;
/// Bytes of one serialized leaf entry (u32 slot, u64 id) and the least a
/// child node record can take (u8 tag, u64 count).
constexpr uint64_t kEntryBytes = sizeof(uint32_t) + sizeof(uint64_t);
constexpr uint64_t kMinNodeBytes = sizeof(uint8_t) + sizeof(uint64_t);

void SaveNode(std::ostream& out, const SsTreeNode* node) {
  const uint8_t is_leaf = node->is_leaf() ? 1 : 0;
  WritePod(out, is_leaf);
  if (node->is_leaf()) {
    WritePod(out, static_cast<uint64_t>(node->entries().size()));
    for (const auto& e : node->entries()) {
      WritePod(out, e.slot);
      WritePod(out, e.id);
    }
  } else {
    WritePod(out, static_cast<uint64_t>(node->children().size()));
    for (const auto& child : node->children()) {
      SaveNode(out, child.get());
    }
  }
}

}  // namespace

Status SsTree::Serialize(std::ostream& out) const {
  HYPERDOM_FAULT_POINT("ss_tree/serialize");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kFormatVersion);
  WritePod(out, static_cast<uint64_t>(dim_));
  WritePod(out, static_cast<uint64_t>(size_));
  WritePod(out, static_cast<uint64_t>(options_.max_entries));
  WritePod(out, options_.min_fill_ratio);
  WritePod(out, static_cast<uint32_t>(options_.split_policy));
  WritePod(out, static_cast<uint32_t>(options_.bounding_policy));
  HYPERDOM_RETURN_NOT_OK(store_->SerializeTo(out));
  if (root_ != nullptr) SaveNode(out, root_.get());
  out.flush();
  if (!out) return Status::IOError("SS-tree serialization stream failed");
  return Status::OK();
}

// Loads one node record of slot references against the already-loaded
// store; derived per-node data (centroids, bounds) is recomputed by the
// caller (SsTree::Deserialize).
Status SsTree::LoadNode(std::istream& in, const SphereStore& store,
                        size_t max_entries, size_t depth,
                        std::unique_ptr<SsTreeNode>* out_node) {
  // Depth bound: a valid tree over 2^64 entries is far shallower than 64
  // levels at fanout >= 2; deeper means a corrupt or adversarial file.
  if (depth > 64) return Status::Corruption("node nesting too deep");
  uint8_t is_leaf = 0;
  if (!ReadPod(in, &is_leaf) || is_leaf > 1) {
    return Status::Corruption("bad node tag");
  }
  auto node = std::make_unique<SsTreeNode>(is_leaf == 1);
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return Status::Corruption("truncated node");
  if (count == 0 || count > max_entries ||
      !CountFits(in, count, is_leaf == 1 ? kEntryBytes : kMinNodeBytes)) {
    return Status::Corruption("node occupancy out of range");
  }
  if (is_leaf == 1) {
    node->entries_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t slot = 0;
      uint64_t id = 0;
      if (!ReadPod(in, &slot) || !ReadPod(in, &id)) {
        return Status::Corruption("truncated entry");
      }
      if (slot >= store.size()) {
        return Status::Corruption("entry slot out of store range");
      }
      node->entries_.push_back(SsTreeEntry{slot, id});
    }
  } else {
    node->children_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      std::unique_ptr<SsTreeNode> child;
      HYPERDOM_RETURN_NOT_OK(
          LoadNode(in, store, max_entries, depth + 1, &child));
      node->children_.push_back(std::move(child));
    }
  }
  *out_node = std::move(node);
  return Status::OK();
}

Status SsTree::Deserialize(std::istream& in, SsTree* out) {
  HYPERDOM_FAULT_POINT("ss_tree/deserialize");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic: not an SS-tree file");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Status::Corruption("truncated header");
  if (version != kFormatVersion) {
    return Status::NotSupported("unsupported SS-tree format version " +
                                std::to_string(version));
  }
  uint64_t dim = 0, size = 0, max_entries = 0;
  double min_fill_ratio = 0.0;
  uint32_t split_policy = 0;
  uint32_t bounding_policy = 0;
  if (!ReadPod(in, &dim) || !ReadPod(in, &size) || !ReadPod(in, &max_entries) ||
      !ReadPod(in, &min_fill_ratio) || !ReadPod(in, &split_policy) ||
      !ReadPod(in, &bounding_policy)) {
    return Status::Corruption("truncated header");
  }
  if (dim == 0 || max_entries < 4 || split_policy > 1 || bounding_policy > 1) {
    return Status::Corruption("bad header fields");
  }

  SsTreeOptions options;
  options.max_entries = max_entries;
  options.min_fill_ratio = min_fill_ratio;
  options.split_policy = static_cast<SsTreeSplitPolicy>(split_policy);
  options.bounding_policy = static_cast<SsTreeBoundingPolicy>(bounding_policy);
  SsTree tree(dim, options);
  SphereStore store;
  HYPERDOM_RETURN_NOT_OK(SphereStore::DeserializeFrom(in, &store));
  if (store.size() > 0 && store.dim() != dim) {
    return Status::Corruption("store dimensionality mismatch");
  }
  *tree.store_ = std::move(store);
  if (size > 0) {
    HYPERDOM_RETURN_NOT_OK(
        LoadNode(in, *tree.store_, max_entries, /*depth=*/0, &tree.root_));
    // Recompute derived per-node data bottom-up.
    const auto rebuild = [&tree](const auto& self, SsTreeNode* node) -> void {
      for (auto& child : node->children_) self(self, child.get());
      tree.RebuildNodeStats(node);
    };
    rebuild(rebuild, tree.root_.get());
    if (tree.root_->count_ != size) {
      return Status::Corruption("entry count does not match header");
    }
    tree.size_ = size;
  }
  HYPERDOM_RETURN_NOT_OK(tree.CheckInvariants());
  *out = std::move(tree);
  return Status::OK();
}

Status SsTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty root but nonzero size");
  }
  size_t leaf_depth = 0;
  size_t entry_total = 0;
  HYPERDOM_RETURN_NOT_OK(CheckNode(root_.get(), *store_, options_,
                                   /*is_root=*/true,
                                   /*depth=*/1, &leaf_depth, &entry_total));
  if (entry_total != size_) {
    return Status::Corruption("total entry count mismatch: tree says " +
                              std::to_string(size_) + ", walk found " +
                              std::to_string(entry_total));
  }
  return Status::OK();
}

}  // namespace hyperdom
