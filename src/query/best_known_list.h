// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The paper's best-known list L (Section 6), factored out so that every
// index (SS-tree, R*-tree, VP-tree, M-tree) and the linear scan share one
// implementation of the case-1/2/3 maintenance rules and of the final-Sk
// filter that makes the answer exactly Definition 2 (see DESIGN.md,
// "kNN answer semantics").

#ifndef HYPERDOM_QUERY_BEST_KNOWN_LIST_H_
#define HYPERDOM_QUERY_BEST_KNOWN_LIST_H_

#include <vector>

#include "dominance/criterion.h"
#include "query/knn_types.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// \brief Entries found so far: the best k kept sorted by (MaxDist to the
/// query, id) — KnnLinearScan's order, so Sk and the answer order are
/// deterministic under exact MaxDist ties whatever the access order — and
/// every other candidate in an unsorted tail.
///
/// Case 3 (distmin > distk) drops an entry on access (Lemma 9). In
/// deferred mode (the default) that is the only interim rule: cases 1 and
/// 2 just record the candidate, and TakeAnswers() judges each tail entry
/// once, in one DecideVerdictBatch block, against the FINAL Sk. No interim
/// verdict could change an entry's fate, and pruning reads only DistK(),
/// so the surviving set is exactly the Definition-2 answer when the
/// criterion is correct and sound. Eager mode runs the paper's pseudocode
/// against the interim Sk instead:
///   case 1 (distmax <= distk): insert, evict entries the new Sk dominates;
///   case 2 (distmin <= distk < distmax): keep only if not dominated by Sk.
///
/// The list works on non-owning EntryView handles: a traversal resolves its
/// index payloads (StoredEntry) against the tree's SphereStore and hands the
/// views in. Every view must stay valid until the list is consumed — store
/// rows qualify (the store only moves on insert, and queries never insert);
/// answers are materialized into owning DataEntry values only at the end.
class BestKnownList {
 public:
  /// Neither pointer is owned; both must outlive the list.
  BestKnownList(const DominanceCriterion* criterion, const Hypersphere* sq,
                size_t k, KnnPruningMode mode, KnnStats* stats);

  /// The current pruning bound distk (+inf until k entries are known).
  /// Non-increasing over the lifetime of the list.
  double DistK() const;

  /// Applies the maintenance rules to a newly accessed entry. The view must
  /// outlive the list (see class comment).
  void Access(const EntryView& entry);

  /// Batched Access over a leaf-scan block: computes every entry's
  /// MinDist/MaxDist bounds with one fused batched kernel call
  /// (geometry/hypersphere.h), then applies the maintenance rules in
  /// order. Equivalent to calling Access(entries[i]) for i in [0, count)
  /// — same answers, same stats — because each entry's case-3 test reads
  /// the distk its predecessors produced, so the rules stay serial; only
  /// the O(d) distance work batches.
  void AccessBatch(const EntryView* entries, size_t count);

  /// Absorbs another list built over the same (criterion, sq, k, mode):
  /// every candidate of `other` is replayed through the maintenance rules
  /// of this list with its recorded bounds. `other` is left empty.
  ///
  /// Merge invariant (the scatter-gather contract, pinned by
  /// tests/bkl_merge_test.cc): in kDeferred mode, feeding a candidate
  /// stream through any partition into per-part lists and folding them
  /// with MergeFrom yields answers bit-identical to feeding the whole
  /// stream through one list. Dropping an entry shard-locally is globally
  /// safe — case 3 needs distmin > local interim distk >= global final
  /// distk, so the final Sk dominates it — hence the merged candidate set
  /// still contains every Definition-2 answer, and the (MaxDist, id) order
  /// and the final-Sk filter are order-independent.
  void MergeFrom(BestKnownList&& other);

  /// Final filter against the final Sk; consumes the list. Answers are
  /// ordered by ascending (MaxDist to the query, id).
  std::vector<DataEntry> TakeAnswers();

  /// Best-effort variant used when a deadline cut the traversal short.
  /// `pending_bound` is the minimum MinDist over the subtrees the traversal
  /// skipped (TraversalGuard::pending_bound()). Returns only entries whose
  /// membership in the exact Definition-2 answer is certain: because
  /// dominance implies a strictly smaller MaxDist, the exact distk can
  /// never drop below L = min(DistK(), pending_bound), so every seen entry
  /// with MaxDist <= L belongs to the exact answer (docs/robustness.md §7).
  /// Consumes the list; answers ordered as in TakeAnswers().
  std::vector<DataEntry> TakeAnswersWithin(double pending_bound);

 private:
  struct Item {
    EntryView entry;
    double distmin;
    double maxdist;

    /// The list order: ascending MaxDist, ties by id.
    bool operator<(const Item& other) const {
      return maxdist != other.maxdist ? maxdist < other.maxdist
                                      : entry.id < other.entry.id;
    }
  };

  /// One counted criterion call, three-valued: true only for a certified
  /// kDominates. kUncertain counts in stats and answers false, so an
  /// uncertain dominance can never prune an entry (conservative direction
  /// for error-aware criteria; plain bool criteria are unaffected).
  bool CertainlyDominates(const SphereView& sa, const SphereView& sb);

  /// Batched counterpart: fills batch_verdicts_[i] for (sa, sbs[i], sq)
  /// via DominanceCriterion::DecideVerdictBatch and applies the same
  /// counting rules as `count` serial CertainlyDominates calls.
  void BatchCertainlyDominates(SphereView sa, const SphereView* sbs,
                               size_t count);

  /// The maintenance rules with both bounds precomputed (exactly the
  /// values MinDist/MaxDist(entry.sphere, sq) would return).
  void AccessBounded(const EntryView& entry, double distmin, double distmax);

  /// Files a candidate: into the sorted top k when it ranks there (a
  /// displaced k-th entry moves to the tail), else onto the tail. O(k).
  void Record(const Item& item);

  /// Judges every tail entry against the current Sk in one
  /// DecideVerdictBatch block and drops the dominated ones; returns how
  /// many were dropped.
  size_t DropDominatedTail();

  /// Runs the final-Sk filter and materializes, in list order, the
  /// answers with MaxDist <= `bound`; consumes the list.
  std::vector<DataEntry> Finish(double bound);

  const DominanceCriterion* criterion_;
  const Hypersphere* sq_;
  SphereView sq_view_;
  size_t k_;
  KnnPruningMode mode_;
  KnnStats* stats_;
  std::vector<Item> top_;   // the best min(k, seen) entries, sorted
  std::vector<Item> tail_;  // every other candidate, unsorted
  // Scratch for the batched kernels, reused across calls to keep the
  // query loop allocation-free in steady state.
  std::vector<SphereView> batch_views_;
  std::vector<double> batch_min_;
  std::vector<double> batch_max_;
  std::vector<Verdict> batch_verdicts_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_BEST_KNOWN_LIST_H_
