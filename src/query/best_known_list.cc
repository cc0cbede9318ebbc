// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/best_known_list.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "geometry/kernel_core.h"

namespace hyperdom {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

BestKnownList::BestKnownList(const DominanceCriterion* criterion,
                             const Hypersphere* sq, size_t k,
                             KnnPruningMode mode, KnnStats* stats)
    : criterion_(criterion), sq_(sq), sq_view_(sq->view()), k_(k),
      mode_(mode), stats_(stats) {
  assert(criterion_ != nullptr && sq_ != nullptr && stats_ != nullptr);
  assert(k_ >= 1);
}

double BestKnownList::DistK() const {
  return top_.size() < k_ ? kInf : top_.back().maxdist;
}

void BestKnownList::Access(const EntryView& entry) {
  // One center distance serves both bounds; the combines are the same
  // force-inline spellings MinDist/MaxDist use (geometry/kernel_core.h),
  // so the values are bit-identical to the separate kernel calls.
  const double d = DistSpan(entry.sphere.center, sq_view_.center,
                            entry.sphere.dim);
  AccessBounded(entry,
                kernel_core::CombineMinDist(d, entry.sphere.radius,
                                            sq_view_.radius),
                kernel_core::CombineMaxDist(d, entry.sphere.radius,
                                            sq_view_.radius));
}

void BestKnownList::AccessBatch(const EntryView* entries, size_t count) {
  if (count == 0) return;
  batch_views_.resize(count);
  for (size_t i = 0; i < count; ++i) batch_views_[i] = entries[i].sphere;
  batch_min_.resize(count);
  batch_max_.resize(count);
  BatchedMinMaxDist(batch_views_.data(), count, sq_view_, batch_min_.data(),
                    batch_max_.data());
  // The maintenance rules are inherently serial — each entry is judged
  // against the distk its predecessors produced — so only the distance
  // work above batches. Same accept/prune decisions, same stats, same
  // final list as `count` Access() calls in the same order.
  for (size_t i = 0; i < count; ++i) {
    AccessBounded(entries[i], batch_min_[i], batch_max_[i]);
  }
}

void BestKnownList::AccessBounded(const EntryView& entry, double distmin,
                                  double distmax) {
  ++stats_->entries_accessed;
  const Item item{entry, distmin, distmax};
  if (top_.size() < k_) {
    Record(item);
    return;
  }
  const double distk = top_.back().maxdist;
  if (distmin > distk) {  // case 3: cheap distance prune (Lemma 9)
    ++stats_->pruned_case3;
    return;
  }
  if (mode_ == KnnPruningMode::kDeferred) {
    // Cases 1 and 2 alike: no interim verdict could change the entry's
    // fate, so it is judged once, against the final Sk, by TakeAnswers().
    Record(item);
  } else if (distmax <= distk) {  // eager case 1: the top-k set changes
    Record(item);
    stats_->removed_case1 += DropDominatedTail();
  } else if (CertainlyDominates(top_.back().entry.sphere, entry.sphere)) {
    ++stats_->pruned_case2;  // eager case 2: discarded for good
  } else {
    tail_.push_back(item);
  }
}

void BestKnownList::Record(const Item& item) {
  if (top_.size() == k_) {
    if (!(item < top_.back())) {
      tail_.push_back(item);
      return;
    }
    tail_.push_back(top_.back());
    top_.pop_back();
  }
  top_.insert(std::upper_bound(top_.begin(), top_.end(), item), item);
}

void BestKnownList::MergeFrom(BestKnownList&& other) {
  assert(criterion_ == other.criterion_);
  assert(k_ == other.k_ && mode_ == other.mode_);
  for (const Item& item : other.top_) {
    AccessBounded(item.entry, item.distmin, item.maxdist);
  }
  for (const Item& item : other.tail_) {
    AccessBounded(item.entry, item.distmin, item.maxdist);
  }
  other.top_.clear();
  other.tail_.clear();
}

std::vector<DataEntry> BestKnownList::TakeAnswers() { return Finish(kInf); }

std::vector<DataEntry> BestKnownList::TakeAnswersWithin(
    double pending_bound) {
  // The final filter never changes the top k, so DistK() is already the
  // final distk of what was seen.
  return Finish(std::min(DistK(), pending_bound));
}

std::vector<DataEntry> BestKnownList::Finish(double bound) {
  const size_t dropped = DropDominatedTail();
  if (mode_ == KnnPruningMode::kDeferred) {
    stats_->pruned_case2 += dropped;
  } else {
    stats_->removed_case1 += dropped;
  }
  std::sort(tail_.begin(), tail_.end());
  top_.insert(top_.end(), tail_.begin(), tail_.end());
  std::vector<DataEntry> out;
  out.reserve(top_.size());
  for (const Item& item : top_) {
    if (item.maxdist > bound) break;
    out.push_back(DataEntry{MaterializeSphere(item.entry.sphere),
                            item.entry.id});
  }
  top_.clear();
  tail_.clear();
  return out;
}

bool BestKnownList::CertainlyDominates(const SphereView& sa,
                                       const SphereView& sb) {
  ++stats_->dominance_checks;
  const Verdict v = criterion_->DecideVerdict(sa, sb, sq_view_);
  if (v == Verdict::kUncertain) {
    // Conservative direction: an uncertain dominance must never prune —
    // keeping the entry can only add work, dropping it can lose an answer.
    ++stats_->uncertain_verdicts;
    return false;
  }
  return v == Verdict::kDominates;
}

void BestKnownList::BatchCertainlyDominates(SphereView sa,
                                            const SphereView* sbs,
                                            size_t count) {
  batch_verdicts_.resize(count);
  criterion_->DecideVerdictBatch(sa, sbs, count, sq_view_,
                                 batch_verdicts_.data());
  stats_->dominance_checks += count;
  for (size_t i = 0; i < count; ++i) {
    if (batch_verdicts_[i] == Verdict::kUncertain) {
      ++stats_->uncertain_verdicts;
    }
  }
}

size_t BestKnownList::DropDominatedTail() {
  // A non-empty tail implies a full top k, so Sk exists.
  const size_t n = tail_.size();
  if (n == 0) return 0;
  batch_views_.resize(n);
  for (size_t i = 0; i < n; ++i) batch_views_[i] = tail_[i].entry.sphere;
  BatchCertainlyDominates(top_.back().entry.sphere, batch_views_.data(), n);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (batch_verdicts_[i] != Verdict::kDominates) tail_[kept++] = tail_[i];
  }
  tail_.resize(kept);
  return n - kept;
}

}  // namespace hyperdom
