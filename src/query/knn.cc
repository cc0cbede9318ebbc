// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/knn.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <string_view>
#include <utility>

#include "query/best_known_list.h"
#include "query/knn_metrics.h"
#include "storage/epoch.h"

namespace hyperdom {

namespace {

// ---------------------------------------------------------------------------
// Expanders: the only per-index part of the search.
// `Expand(node, ctx, emit_entries, emit_child)` hands the node's own data
// entries to `emit_entries(rows, n)` as contiguous EntryView blocks (a
// whole leaf scores through one batched BestKnownList::AccessBatch call)
// and reports each child as `emit_child(child, bound)`, where `bound`
// lower-bounds MinDist(S, Sq) for every data sphere S in the child's
// subtree. The drivers take the root's bound from their caller
// (RootBound).
// ---------------------------------------------------------------------------

// What every expander shares besides its node.
struct ExpandContext {
  const Hypersphere& sq;
  const SphereStore& store;
  const SearchOverlay* overlay;
  // Leaf gather buffer, reused across leaves (no steady-state allocation).
  std::vector<EntryView>* scratch;

  // Resolves the overlay-visible `entries` and emits them as one block.
  template <typename Entries, typename EmitFn>
  void EmitVisible(const Entries& entries, const EmitFn& emit_entries) const {
    scratch->clear();
    for (const StoredEntry& entry : entries) {
      if (overlay != nullptr && !overlay->VisibleBase(entry.slot)) continue;
      scratch->push_back(store.Resolve(entry));
    }
    emit_entries(scratch->data(), scratch->size());
  }
};

double NodeBound(const SsTreeNode* node, const Hypersphere& sq) {
  return MinDist(node->bounding_sphere(), sq);
}

double NodeBound(const RStarTreeNode* node, const Hypersphere& sq) {
  return MinDist(node->mbr(), sq);
}

double NodeBound(const MTreeNode* node, const Hypersphere& sq) {
  const double d = Dist(node->pivot(), sq.center()) -
                   node->covering_radius() - sq.radius();
  return d > 0.0 ? d : 0.0;
}

// The root's bound. Nothing above a VP-tree root carries a band to bound
// it by, so it gets 0.
template <typename Node>
double RootBound(const Node* root, const Hypersphere& sq) {
  return NodeBound(root, sq);
}

double RootBound(const VpTreeNode* /*root*/, const Hypersphere& /*sq*/) {
  return 0.0;
}

// SS-, R*- and M-tree nodes bound their own subtree.
template <typename Node, typename EmitEntries, typename EmitChild>
void Expand(const Node* node, const ExpandContext& ctx,
            const EmitEntries& emit_entries, const EmitChild& emit_child) {
  if (node->is_leaf()) {
    ctx.EmitVisible(node->entries(), emit_entries);
    return;
  }
  for (const auto& child : node->children()) {
    emit_child(child.get(), NodeBound(child.get(), ctx.sq));
  }
}

// A VP-tree child's bound depends on its distance band relative to its
// PARENT's vantage point, so it is computed here, at emission time.
template <typename EmitEntries, typename EmitChild>
void Expand(const VpTreeNode* node, const ExpandContext& ctx,
            const EmitEntries& emit_entries, const EmitChild& emit_child) {
  if (node->is_leaf()) {
    ctx.EmitVisible(node->bucket(), emit_entries);
    return;
  }
  // The vantage is a single routing entry: a one-row block.
  const StoredEntry vantage[] = {node->vantage()};
  ctx.EmitVisible(vantage, emit_entries);
  const double dvp = DistSpan(ctx.sq.center().data(),
                              ctx.store.center(node->vantage().slot),
                              ctx.store.dim());
  auto child_bound = [&](const VpTreeNode* child, double lo, double hi) {
    // Triangle inequality: any subtree center c has
    // Dist(c, cq) >= max(0, dvp - hi, lo - dvp); subtract the subtree's
    // fattest radius and the query radius for sphere MinDist.
    const double center_lb = std::max({0.0, dvp - hi, lo - dvp});
    const double b = center_lb - child->max_radius() - ctx.sq.radius();
    return b > 0.0 ? b : 0.0;
  };
  if (node->inside() != nullptr) {
    emit_child(node->inside(), child_bound(node->inside(), node->inside_lo(),
                                           node->inside_hi()));
  }
  if (node->outside() != nullptr) {
    emit_child(node->outside(),
               child_bound(node->outside(), node->outside_lo(),
                           node->outside_hi()));
  }
}

// ---------------------------------------------------------------------------
// The two drivers. Every dominance decision funnels through BestKnownList,
// which never prunes on a kUncertain verdict, so both stay exact under an
// error-aware criterion without any per-index handling.
// ---------------------------------------------------------------------------

// DF (Roussopoulos et al.): children are descended in ascending bound
// order so distk tightens early. Equal bounds stay where std::sort leaves
// them — deterministic for a given emission order, and emission order
// itself below 17 children (DESIGN.md, "One kNN traversal").
template <typename Node>
void DepthFirst(const Node* node, double bound, const ExpandContext& ctx,
                BestKnownList* list, KnnStats* stats, TraversalGuard* guard) {
  // distk shrinks while siblings are processed, so the bound is re-checked
  // here, at descent time, rather than where the child was emitted.
  if (bound > list->DistK()) {
    ++stats->nodes_pruned;
    return;
  }
  if (guard->ShouldStop(stats->nodes_visited)) {
    // Sticky: every later sibling lands here too and adds its own bound.
    ++stats->nodes_deadline_skipped;
    guard->NoteSkipped(bound);
    return;
  }
  ++stats->nodes_visited;
  std::vector<std::pair<double, const Node*>> order;
  Expand(
      node, ctx,
      [list](const EntryView* rows, size_t n) { list->AccessBatch(rows, n); },
      [&order](const Node* child, double child_bound) {
        order.emplace_back(child_bound, child);
      });
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [child_bound, child] : order) {
    DepthFirst(child, child_bound, ctx, list, stats, guard);
  }
}

// HS (Hjaltason & Samet): one min-heap on the bound over the frontier.
template <typename Node>
void BestFirst(const Node* root, double root_bound, const ExpandContext& ctx,
               BestKnownList* list, KnnStats* stats, TraversalGuard* guard) {
  using QueueItem = std::pair<double, const Node*>;
  auto cmp = [](const QueueItem& a, const QueueItem& b) {
    return a.first > b.first;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> heap(
      cmp);
  heap.emplace(root_bound, root);
  while (!heap.empty()) {
    const auto [bound, node] = heap.top();
    heap.pop();
    if (bound > list->DistK()) {
      // The heap is ordered by bound: everything left is at least as far.
      stats->nodes_pruned += 1 + heap.size();
      break;
    }
    if (guard->ShouldStop(stats->nodes_visited)) {
      // The popped node carries the smallest bound left, so it alone
      // determines the pending bound for the abandoned frontier.
      guard->NoteSkipped(bound);
      stats->nodes_deadline_skipped += 1 + heap.size();
      break;
    }
    ++stats->nodes_visited;
    Expand(
        node, ctx,
        [list](const EntryView* rows, size_t n) { list->AccessBatch(rows, n); },
        [&heap](const Node* child, double child_bound) {
          heap.emplace(child_bound, child);
        });
  }
}

template <typename Tree>
void SearchInto(const Tree& tree, const Hypersphere& sq,
                SearchStrategy strategy, BestKnownList* list, KnnStats* stats,
                TraversalGuard* guard, const SearchOverlay* overlay) {
  // Delta rows live outside the tree: score them exhaustively up front,
  // which also tightens distk before any node is descended. The block
  // form hands them over in contiguous runs for batched scoring.
  if (overlay != nullptr) {
    overlay->ForEachExtraBlock(
        [&](const EntryView* rows, size_t n) { list->AccessBatch(rows, n); });
  }
  if (tree.root() == nullptr) return;
  std::vector<EntryView> scratch;
  const ExpandContext ctx{sq, tree.store(), overlay, &scratch};
  const double root_bound = RootBound(tree.root(), sq);
  if (strategy == SearchStrategy::kDepthFirst) {
    DepthFirst(tree.root(), root_bound, ctx, list, stats, guard);
  } else {
    BestFirst(tree.root(), root_bound, ctx, list, stats, guard);
  }
}

template <typename Tree>
KnnResult SearchOne(const Tree& tree, const Hypersphere& sq,
                    const SearchOverlay* overlay,
                    const DominanceCriterion* criterion,
                    const KnnOptions& options, std::string_view index_tag) {
  // Pins the reclamation epoch for the whole query: any store version the
  // overlay references stays alive until we return (storage/epoch.h).
  // Nested guards are cheap, so this is safe under RkNN's subqueries too.
  EpochManager::Guard epoch_guard;
  KnnQueryRecorder recorder(index_tag);
  KnnResult result;
  BestKnownList list(criterion, &sq, options.k, options.pruning_mode,
                     &result.stats);
  TraversalGuard guard(options.deadline);
  SearchInto(tree, sq, options.strategy, &list, &result.stats, &guard,
             overlay);
  FinishKnn(&list, guard.expired(), guard.pending_bound(), &result);
  recorder.Publish(result);
  return result;
}

}  // namespace

KnnSearcher::KnnSearcher(const DominanceCriterion* criterion,
                         KnnOptions options)
    : criterion_(criterion), options_(options) {
  assert(criterion_ != nullptr);
  assert(options_.k >= 1);
}

KnnResult KnnSearcher::Search(const SsTree& tree, const Hypersphere& sq,
                              const SearchOverlay* overlay) const {
  return SearchOne(tree, sq, overlay, criterion_, options_, "ss");
}

KnnResult KnnSearcher::Search(const RStarTree& tree,
                              const Hypersphere& sq) const {
  return SearchOne(tree, sq, nullptr, criterion_, options_, "rstar");
}

KnnResult KnnSearcher::Search(const VpTree& tree,
                              const Hypersphere& sq) const {
  return SearchOne(tree, sq, nullptr, criterion_, options_, "vp");
}

KnnResult KnnSearcher::Search(const MTree& tree,
                              const Hypersphere& sq) const {
  return SearchOne(tree, sq, nullptr, criterion_, options_, "m");
}

void KnnSearchInto(const SsTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard,
                   const SearchOverlay* overlay) {
  SearchInto(tree, sq, strategy, list, stats, guard, overlay);
}

void KnnSearchInto(const RStarTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard) {
  SearchInto(tree, sq, strategy, list, stats, guard, nullptr);
}

void KnnSearchInto(const VpTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard) {
  SearchInto(tree, sq, strategy, list, stats, guard, nullptr);
}

void KnnSearchInto(const MTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard) {
  SearchInto(tree, sq, strategy, list, stats, guard, nullptr);
}

void FinishKnn(BestKnownList* list, bool expired, double pending_bound,
               KnnResult* result) {
  if (expired) {
    result->completeness = Completeness::kBestEffort;
    result->answers = list->TakeAnswersWithin(pending_bound);
  } else {
    result->answers = list->TakeAnswers();
  }
}

KnnResult KnnLinearScan(const std::vector<Hypersphere>& data,
                        const Hypersphere& sq, size_t k,
                        const DominanceCriterion& criterion) {
  assert(k >= 1);
  KnnResult result;
  // Both passes of the scan are batched: the MaxDist ranking sweep and the
  // final-Sk dominance filter each evaluate every entry unconditionally,
  // so they run through the batched kernels with bit-identical values.
  std::vector<SphereView> views;
  views.reserve(data.size());
  for (const auto& s : data) views.push_back(s.view());
  std::vector<double> maxdists(data.size());
  BatchedMaxDist(views.data(), views.size(), sq.view(), maxdists.data());
  std::vector<std::pair<double, uint64_t>> by_maxdist;
  by_maxdist.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    by_maxdist.emplace_back(maxdists[i], static_cast<uint64_t>(i));
  }
  std::sort(by_maxdist.begin(), by_maxdist.end());

  if (data.size() <= k) {
    for (const auto& [maxdist, id] : by_maxdist) {
      result.answers.push_back(DataEntry{data[id], id});
    }
    result.stats.entries_accessed = data.size();
    return result;
  }

  const Hypersphere& sk = data[by_maxdist[k - 1].second];
  const size_t n = by_maxdist.size();
  std::vector<SphereView> candidates;
  candidates.reserve(n);
  for (const auto& [maxdist, id] : by_maxdist) {
    candidates.push_back(data[id].view());
  }
  std::vector<Verdict> verdicts(n);
  criterion.DecideVerdictBatch(sk.view(), candidates.data(), n, sq.view(),
                               verdicts.data());
  result.stats.entries_accessed += n;
  result.stats.dominance_checks += n;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = by_maxdist[i].second;
    // Three-valued filter: an uncertain verdict keeps the entry (only a
    // certified kDominates may drop an answer).
    const Verdict v = verdicts[i];
    if (v == Verdict::kUncertain) ++result.stats.uncertain_verdicts;
    if (v != Verdict::kDominates) {
      result.answers.push_back(DataEntry{data[id], id});
    } else {
      ++result.stats.pruned_case2;
    }
  }
  return result;
}

}  // namespace hyperdom
