// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shared helpers for the hyperdom test suite: deterministic random scene
// builders and margin-aware ground truth (so property sweeps never compare
// decisions on floating-point razor edges).

#ifndef HYPERDOM_TESTS_TEST_UTIL_H_
#define HYPERDOM_TESTS_TEST_UTIL_H_

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dominance/numeric_oracle.h"
#include "geometry/hypersphere.h"
#include "index/ss_tree.h"

namespace hyperdom {
namespace test {

/// A random point with coordinates ~ Gaussian(mean, stddev).
inline Point RandomPoint(Rng* rng, size_t dim, double mean = 100.0,
                         double stddev = 25.0) {
  Point p(dim);
  for (auto& v : p) v = rng->Gaussian(mean, stddev);
  return p;
}

/// A random hypersphere following the paper's synthetic recipe.
inline Hypersphere RandomSphere(Rng* rng, size_t dim, double radius_mean) {
  const double r = rng->Gaussian(radius_mean, radius_mean / 4.0);
  return Hypersphere(RandomPoint(rng, dim), std::max(0.0, r));
}

/// One random dominance scene.
struct Scene {
  Hypersphere sa;
  Hypersphere sb;
  Hypersphere sq;
};

inline Scene RandomScene(Rng* rng, size_t dim, double radius_mean) {
  return Scene{RandomSphere(rng, dim, radius_mean),
               RandomSphere(rng, dim, radius_mean),
               RandomSphere(rng, dim, radius_mean)};
}

/// Exact MDD margin of a scene: min distance difference minus (ra + rb).
/// Positive -> dominance (given non-overlap), negative -> no dominance;
/// |margin| below a tolerance means "too close to call", and sweeps skip
/// the comparison.
inline double MddMargin(const Scene& s) {
  return MinDistanceDifference(s.sa, s.sb, s.sq) -
         (s.sa.radius() + s.sb.radius());
}

/// Ground-truth dominance via the oracle.
inline bool OracleDominates(const Scene& s) {
  return !Overlaps(s.sa, s.sb) && MddMargin(s) > 0.0;
}

/// True when the scene is too close to the decision boundary for exact
/// comparison across independently rounded implementations.
inline bool IsBorderline(const Scene& s, double tol = 1e-6) {
  if (std::fabs(MddMargin(s)) < tol) return true;
  // Overlap boundary is a second razor edge.
  const double gap = Dist(s.sa.center(), s.sb.center()) -
                     (s.sa.radius() + s.sb.radius());
  return std::fabs(gap) < tol;
}

/// Pretty label for gtest diagnostics.
inline std::string SceneToString(const Scene& s) {
  return "Sa=" + s.sa.ToString() + " Sb=" + s.sb.ToString() +
         " Sq=" + s.sq.ToString();
}

/// Every leaf entry's store slot, leaves visited depth-first with
/// children in order. A tree from SsTree::BulkLoadStr lists 0, 1, ..., n-1.
inline std::vector<uint32_t> LeafSlotsInDfsOrder(const SsTree& tree) {
  std::vector<uint32_t> slots;
  if (tree.root() == nullptr) return slots;
  std::vector<const SsTreeNode*> stack = {tree.root()};
  while (!stack.empty()) {
    const SsTreeNode* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      for (const auto& e : node->entries()) slots.push_back(e.slot);
    } else {
      for (auto it = node->children().rbegin(); it != node->children().rend();
           ++it) {
        stack.push_back(it->get());
      }
    }
  }
  return slots;
}

}  // namespace test
}  // namespace hyperdom

#endif  // HYPERDOM_TESTS_TEST_UTIL_H_
