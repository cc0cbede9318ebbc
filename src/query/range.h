// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Range queries over uncertain objects: "which objects lie within distance
// `range` of the (uncertain) query region?" Under object uncertainty the
// answer splits into two sets,
//   * certain:  MaxDist(S, Sq) <= range — every realization qualifies;
//   * possible: MinDist(S, Sq) <= range — some realization qualifies
// (certain is a subset of possible). This is the range counterpart of the
// paper's kNN Definition 2 and a staple of the uncertain-database systems
// the paper cites ([6, 8]); it needs only the Min/MaxDist machinery, no
// dominance.

#ifndef HYPERDOM_QUERY_RANGE_H_
#define HYPERDOM_QUERY_RANGE_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "index/overlay.h"
#include "index/ss_tree.h"

namespace hyperdom {

/// Counters describing one range query.
struct RangeStats {
  uint64_t nodes_visited = 0;
  uint64_t nodes_pruned = 0;
  uint64_t entries_accessed = 0;
  uint64_t nodes_deadline_skipped = 0;

  /// Field-wise sum (batch totals, sharded merges).
  RangeStats& operator+=(const RangeStats& other) {
    nodes_visited += other.nodes_visited;
    nodes_pruned += other.nodes_pruned;
    entries_accessed += other.entries_accessed;
    nodes_deadline_skipped += other.nodes_deadline_skipped;
    return *this;
  }
};

/// Result of a range query.
struct RangeResult {
  /// Objects entirely within range (every realization qualifies).
  std::vector<DataEntry> certain;
  /// Objects that may be within range, INCLUDING the certain ones.
  std::vector<DataEntry> possible;
  /// kBestEffort when the deadline expired; both sets are then subsets of
  /// the exact answer (membership tests are per-entry, so every reported
  /// entry is individually certain).
  Completeness completeness = Completeness::kExact;
  RangeStats stats;
};

/// Runs the range query over an SS-tree. `range` must be >= 0. An expired
/// `deadline` stops the traversal; the partial answer is flagged. A
/// non-null `overlay` (index/overlay.h) hides tombstoned base slots and
/// contributes its delta rows, each tested directly with Min/MaxDist; the
/// whole call runs under an epoch guard.
RangeResult RangeSearch(const SsTree& tree, const Hypersphere& sq,
                        double range,
                        const Deadline& deadline = Deadline::Unbounded(),
                        const SearchOverlay* overlay = nullptr);

/// Reference evaluation by linear scan.
RangeResult RangeLinearScan(const std::vector<Hypersphere>& data,
                            const Hypersphere& sq, double range);

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_RANGE_H_
