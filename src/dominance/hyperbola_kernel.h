// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Precision-generic core of the Hyperbola minimum-distance computation
// (paper Section 4.3.2). dominance/hyperbola.cc instantiates these templates
// at double for the production predicate; dominance/certified.cc
// re-instantiates them at long double as an escalation tier when a double
// verdict lands inside its error band.
//
// The templates are faithful transcriptions of the previous double-only
// code: at T = double they perform the same operations in the same order,
// so the existing hyperbola test sweeps pin both precisions.

#ifndef HYPERDOM_DOMINANCE_HYPERBOLA_KERNEL_H_
#define HYPERDOM_DOMINANCE_HYPERBOLA_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "geometry/focal_frame.h"
#include "geometry/hypersphere.h"
#include "geometry/polynomial_kernel.h"

namespace hyperdom {
namespace hyperbola_internal {

// Distance from (y1, y2) to the candidate curve point (x1, xp).
template <typename T>
inline T CandidateDistT(T y1, T y2, T x1, T xp) {
  const T d1 = y1 - x1;
  const T d2 = y2 - xp;
  return std::sqrt(d1 * d1 + d2 * d2);
}

// Adds the candidates of the lambda-singular branches of the Lagrange
// system. The quartic derivation divides by (1 + a5*lambda) and
// (1 + a4*lambda); when cq sits on the focal axis (y2 == 0) or on the
// perpendicular bisector plane (y1 == 0) the corresponding factor may be
// zero and the nearest point is missed by the quartic roots. The singular
// candidates are genuine points of F(x) = 0, so including them
// unconditionally can only tighten the minimum, never break it.
template <typename T>
T SingularBranchCandidatesT(T alpha, T rab, T y1, T y2) {
  const T kInf = std::numeric_limits<T>::infinity();
  const T r2 = rab * rab;
  const T al2 = alpha * alpha;
  T best = kInf;

  // Branch 1 + a5*lambda = 0 (relevant when y1 == 0):
  //   xp = y2 * (4 alpha^2 - rab^2) / (4 alpha^2),
  //   x1^2 = (4 r^2 alpha^2 + 4 r^2 xp^2 - r^4) / (16 alpha^2 - 4 r^2).
  {
    const T xp = y2 * (T(4) * al2 - r2) / (T(4) * al2);
    const T num = T(4) * r2 * al2 + T(4) * r2 * xp * xp - r2 * r2;
    const T den = T(16) * al2 - T(4) * r2;
    const T x1_sq = num / den;
    if (x1_sq >= T(0)) {
      const T x1 = std::sqrt(x1_sq);
      best = std::min(best, CandidateDistT(y1, y2, x1, xp));
      best = std::min(best, CandidateDistT(y1, y2, -x1, xp));
    }
  }

  // Branch 1 + a4*lambda = 0 (relevant when y2 == 0):
  //   x1 = y1 * rab^2 / (4 alpha^2),
  //   xp^2 = ((16 alpha^2 - 4 r^2) x1^2 - (4 r^2 alpha^2 - r^4)) / (4 r^2).
  {
    const T x1 = y1 * r2 / (T(4) * al2);
    const T xp_sq =
        ((T(16) * al2 - T(4) * r2) * x1 * x1 - (T(4) * r2 * al2 - r2 * r2)) /
        (T(4) * r2);
    if (xp_sq >= T(0)) {
      const T xp = std::sqrt(xp_sq);
      best = std::min(best, CandidateDistT(y1, y2, x1, xp));
      best = std::min(best, CandidateDistT(y1, y2, x1, -xp));
    }
  }
  return best;
}

// The candidates of the quartic path that need no root solve: the two
// vertices (always curve points; they also cover candidates whose snapped
// coordinates degenerate) and the singular branches. Frame alpha == 1.
template <typename T>
T ClosedFormCandidatesT(T rab, T y1, T y2) {
  const T semi_a = T(0.5) * rab;
  T best = std::numeric_limits<T>::infinity();
  for (const T x1 : {-semi_a, semi_a}) {
    const T d = CandidateDistT(y1, y2, x1, T(0));
    if (std::isfinite(d)) best = std::min(best, d);
  }
  return std::min(best, SingularBranchCandidatesT(T(1), rab, y1, y2));
}

// Minimum of `closed_form` (ClosedFormCandidatesT of the same arguments)
// and the distances to the snapped quartic-root candidates; +inf when
// rounding produced no usable candidate. Frame alpha == 1.
template <typename T>
T QuarticRootCandidatesT(T rab, T y1, T y2, T closed_form) {
  const T r2 = rab * rab;
  const T al2 = T(1);

  // Coefficients of the paper's Section 4.3.2.
  const T a1 = (T(16) * al2 - T(4) * r2) * y1 * y1;
  const T a2 = r2 * r2 - T(4) * r2 * al2;
  const T a3 = T(4) * r2 * y2 * y2;
  const T a4 = T(4) * r2;
  const T a5 = T(4) * r2 - T(16) * al2;

  // Quartic in the Lagrange multiplier lambda (Eq. (14)).
  const T A = a2 * a4 * a4 * a5 * a5;
  const T B = T(2) * a2 * a4 * a4 * a5 + T(2) * a2 * a4 * a5 * a5;
  const T C = a1 * a4 * a4 + a2 * a4 * a4 + T(4) * a2 * a4 * a5 +
              a2 * a5 * a5 - a3 * a5 * a5;
  const T D = T(2) * a1 * a4 + T(2) * a2 * a4 + T(2) * a2 * a5 -
              T(2) * a3 * a5;
  const T E = a1 + a2 - a3;

  // Clearing the denominators (1 + a4*lambda), (1 + a5*lambda) while
  // deriving Eq. (14) can introduce roots whose candidate point does NOT
  // satisfy F(x) = 0, and an off-curve candidate can report a distance
  // BELOW the true minimum — a soundness bug. Every candidate is therefore
  // SNAPPED onto the hyperbola before measuring: fixing one of its
  // coordinates, the other follows from the curve equation
  // x1^2/A^2 - xp^2/B^2 = 1 (semi-axes A = rab/2, B = sqrt(alpha^2-A^2)),
  // so each reported distance is realized by an actual curve point and can
  // never undercut the minimum. In exact arithmetic the candidate set
  // contains the global minimizer, so the minimum is not overshot either.
  const T semi_a = T(0.5) * rab;
  const T semi_b_sq = al2 - semi_a * semi_a;
  const T semi_b = std::sqrt(semi_b_sq);

  T best = closed_form;
  auto consider = [&](T x1, T xp) {
    const T d = CandidateDistT(y1, y2, x1, xp);
    if (std::isfinite(d)) best = std::min(best, d);
  };
  polynomial_internal::RootsT<T> lambdas;
  polynomial_internal::SolveQuarticIntoT(A, B, C, D, E, &lambdas);
  for (T lambda : lambdas) {
    const T den1 = T(1) + a5 * lambda;
    const T den2 = T(1) + a4 * lambda;
    if (std::abs(den1) < T(1e-300) || std::abs(den2) < T(1e-300)) continue;
    const T x1 = y1 / den1;             // Eq. (12)
    const T xp = std::abs(y2 / den2);   // Eq. (13), folded to xp >= 0
    const T sheet = x1 >= T(0) ? T(1) : T(-1);
    // Snap keeping xp: x1' = sheet * A * sqrt(1 + (xp/B)^2).
    consider(sheet * semi_a * std::sqrt(T(1) + xp * xp / semi_b_sq), xp);
    // Snap keeping x1: xp' = B * sqrt((x1/A)^2 - 1), when |x1| >= A.
    const T ratio_sq = (x1 / semi_a) * (x1 / semi_a);
    if (ratio_sq >= T(1)) {
      consider(x1, semi_b * std::sqrt(ratio_sq - T(1)));
    }
  }
  return best;
}

// Quartic-based minimum distance from (y1, y2) to the boundary curve.
// Unlike the public HyperbolaMinDistQuartic, this returns +inf when
// rounding produced no usable candidate; the caller chooses the fallback
// (the double predicate re-runs the parametric scan, the certified engine
// escalates a tier).
template <typename T>
T HyperbolaMinDistKernelT(T alpha, T rab, T y1, T y2) {
  // Normalize to alpha == 1: the quartic coefficients scale like the 12th
  // power of the scene scale, which destroys precision for large
  // coordinates; the minimum distance itself scales linearly.
  if (alpha != T(1)) {
    return alpha *
           HyperbolaMinDistKernelT(T(1), rab / alpha, y1 / alpha, y2 / alpha);
  }
  return QuarticRootCandidatesT(rab, y1, y2,
                                ClosedFormCandidatesT(rab, y1, y2));
}

// Distance from (y1, y2) to one sheet of the hyperbola, parametrized as
// x1 = sign * a * cosh(t), xp = b * sinh(t) with t >= 0 covering the
// half-plane xp >= 0 (sufficient since y2 >= 0 and the curve is symmetric).
template <typename T>
T SheetMinDistT(T a, T b, T sign, T y1, T y2) {
  auto dist_at = [&](T t) {
    const T x1 = sign * a * std::cosh(t);
    const T xp = b * std::sinh(t);
    return CandidateDistT(y1, y2, x1, xp);
  };

  // The minimizer cannot be farther along the sheet than where the
  // off-axis coordinate alone already exceeds the distance to the vertex.
  const T vertex_dist = dist_at(T(0));
  T t_max = std::asinh((y2 + vertex_dist) / b) + T(1);
  t_max = std::min(t_max, T(700));  // cosh overflow guard

  constexpr int kSamples = 512;
  T best_t = T(0);
  T best_d = vertex_dist;
  for (int i = 1; i <= kSamples; ++i) {
    const T t = t_max * static_cast<T>(i) / T(kSamples);
    const T d = dist_at(t);
    if (d < best_d) {
      best_d = d;
      best_t = t;
    }
  }

  // Golden-section refinement on the bracket around the best sample.
  const T step = t_max / T(kSamples);
  T lo = std::max(T(0), best_t - step);
  T hi = std::min(t_max, best_t + step);
  constexpr double kGolden = 0.6180339887498949;
  T x1 = hi - T(kGolden) * (hi - lo);
  T x2 = lo + T(kGolden) * (hi - lo);
  T f1 = dist_at(x1);
  T f2 = dist_at(x2);
  for (int iter = 0; iter < 80; ++iter) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - T(kGolden) * (hi - lo);
      f1 = dist_at(x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + T(kGolden) * (hi - lo);
      f2 = dist_at(x2);
    }
  }
  return std::min({best_d, f1, f2});
}

// Sampled-and-refined minimum distance; robust to quartic conditioning at
// any precision because every probe is an exact curve point.
template <typename T>
T HyperbolaMinDistParametricT(T alpha, T rab, T y1, T y2) {
  const T a = T(0.5) * rab;           // semi-major axis
  const T b2 = alpha * alpha - a * a;  // semi-minor axis squared
  const T b = std::sqrt(b2);
  // Near sheet (around the focus at -alpha) and far sheet.
  const T near = SheetMinDistT(a, b, T(-1), y1, y2);
  const T far = SheetMinDistT(a, b, T(1), y1, y2);
  return std::min(near, far);
}

// Tier-1 predicate core shared by the serial and batched entry points
// (dominance/hyperbola.cc): decides Dom(Sa, Sb, Sq) for a pair already
// known NOT to overlap (Lemma 1 dispatched by the caller), with the
// query-to-focus distance da = Dist(cq, ca) supplied precomputed. da is
// the only O(d) quantity of the pipeline that does not involve cb, so
// the batched form computes it once per (Sa, Sq) pair and amortizes it
// across every candidate Sb; the focal frame's foci are ca and cb, so
// the frame itself is rebuilt per candidate. `dmin_exceeds(alpha, rab,
// y1, y2, rq)` decides whether the minimum distance from (y1, y2) to the
// curve exceeds rq (quartic or parametric) — the operations here are
// otherwise the exact serial-pipeline sequence, so batched verdicts are
// bit-identical to one-at-a-time calls.
template <typename DminExceedsFn>
bool DominatesNonOverlappingT(SphereView sa, SphereView sb, SphereView sq,
                              double da, DminExceedsFn&& dmin_exceeds) {
  const double rab = sa.radius + sb.radius;
  const double db = DistSpan(sq.center, sb.center, sq.dim);

  // cq itself must satisfy the MDD margin strictly (cq inside Ra); this is
  // necessary because cq ∈ Sq, and it is the second conjunct of Step 2.
  if (!(db - da > rab)) return false;

  // A point query inside Ra is decided: Sq = {cq}.
  if (sq.radius == 0.0) return true;

  if (sa.dim == 1) {
    // On a line Sq is the segment [cq - rq, cq + rq] and
    // f(t) = |t - cb| - |t - ca| is piecewise linear with breakpoints at
    // the two foci, so its minimum over the segment sits at a segment
    // endpoint or at a focus inside the segment. (The 2-plane reduction
    // below would allow off-line displacements that do not exist in 1-d.)
    const double ca = sa.center[0];
    const double cb = sb.center[0];
    const double lo = sq.center[0] - sq.radius;
    const double hi = sq.center[0] + sq.radius;
    auto f = [&](double t) { return std::abs(t - cb) - std::abs(t - ca); };
    double fmin = std::min(f(lo), f(hi));
    if (ca > lo && ca < hi) fmin = std::min(fmin, f(ca));
    if (cb > lo && cb < hi) fmin = std::min(fmin, f(cb));
    return fmin > rab;
  }

  if (rab == 0.0) {
    // Two points: the hyperbola degenerates to the perpendicular-bisector
    // hyperplane of ca and cb. The signed axial coordinate of cq is
    // y1 = (da^2 - db^2) / (4 alpha); cq is on the ca side (y1 < 0, already
    // guaranteed) and Sq avoids the plane iff |y1| > rq.
    const double focal = DistSpan(sa.center, sb.center, sa.dim);
    const double y1 = (da * da - db * db) / (2.0 * focal);
    return -y1 > sq.radius;
  }

  // Steps 1-2: Sq ⊆ Ra iff cq ∈ Ra (checked above) and the minimum
  // distance dmin from cq to the boundary P, computed in the focal 2-plane
  // (Section 4.3), exceeds rq. ComputeFocalCoords is the allocation-free
  // reduction of BuildFocalFrame (same operation order, no mid/axis Points).
  const FocalCoords<double> frame =
      ComputeFocalCoords<double>(sa.center, sb.center, sq.center, sa.dim);
  return dmin_exceeds(frame.alpha, rab, frame.y1, frame.y2, sq.radius);
}

}  // namespace hyperbola_internal
}  // namespace hyperdom

#endif  // HYPERDOM_DOMINANCE_HYPERBOLA_KERNEL_H_
