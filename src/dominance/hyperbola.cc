// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "dominance/hyperbola.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "dominance/hyperbola_kernel.h"
#include "geometry/focal_frame.h"

namespace hyperdom {

double HyperbolaMinDistQuartic(double alpha, double rab, double y1,
                               double y2) {
  assert(alpha > 0.0 && rab > 0.0 && rab < 2.0 * alpha && y2 >= 0.0);
  double best =
      hyperbola_internal::HyperbolaMinDistKernelT<double>(alpha, rab, y1, y2);
  if (!std::isfinite(best)) {
    // Defensive: rounding produced no usable candidate (never observed in
    // the test sweeps). Fall back to the parametric reference rather than
    // risk a wrong answer.
    best = HyperbolaMinDistParametric(alpha, rab, y1, y2);
  }
  return best;
}

double HyperbolaMinDistParametric(double alpha, double rab, double y1,
                                  double y2) {
  assert(alpha > 0.0 && rab > 0.0 && rab < 2.0 * alpha && y2 >= 0.0);
  return hyperbola_internal::HyperbolaMinDistParametricT<double>(alpha, rab,
                                                                 y1, y2);
}

bool HyperbolaMinDistQuarticExceeds(double alpha, double rab, double y1,
                                    double y2, double rq) {
  assert(alpha > 0.0 && rab > 0.0 && rab < 2.0 * alpha && y2 >= 0.0);
  // The quartic's minimum is taken over a candidate set that contains the
  // vertices and the singular branches, so when one of them already lies
  // within rq, dmin <= rq is settled without the root solve (alpha * x is
  // monotone in x). Work in the kernel's alpha-normalized frame: x / 1 and
  // 1 * x are exact, so normalizing unconditionally matches
  // HyperbolaMinDistKernelT bit for bit.
  const double n_rab = rab / alpha;
  const double n_y1 = y1 / alpha;
  const double n_y2 = y2 / alpha;
  const double closed_form =
      hyperbola_internal::ClosedFormCandidatesT(n_rab, n_y1, n_y2);
  if (alpha * closed_form <= rq) return false;
  double dmin = alpha * hyperbola_internal::QuarticRootCandidatesT(
                            n_rab, n_y1, n_y2, closed_form);
  if (!std::isfinite(dmin)) {
    dmin = HyperbolaMinDistParametric(alpha, rab, y1, y2);
  }
  return dmin > rq;
}

bool HyperbolaCriterion::DominatesNonOverlapping(SphereView sa, SphereView sb,
                                                 SphereView sq,
                                                 double da) const {
  // The full Algorithm 1 pipeline after the overlap gate lives in
  // hyperbola_internal so the serial and batched entry points share one
  // spelling (bit-identity by construction); only the curve minimizer is
  // bound here.
  return hyperbola_internal::DominatesNonOverlappingT(
      sa, sb, sq, da,
      [this](double alpha, double rab, double y1, double y2, double rq) {
        return method_ == HyperbolaInnerMethod::kQuartic
                   ? HyperbolaMinDistQuarticExceeds(alpha, rab, y1, y2, rq)
                   : HyperbolaMinDistParametric(alpha, rab, y1, y2) > rq;
      });
}

bool HyperbolaCriterion::Dominates(SphereView sa, SphereView sb,
                                   SphereView sq) const {
  // Step 0 (Lemma 1): overlapping spheres never dominate. This also covers
  // coincident centers, so below Dist(ca, cb) > 0.
  if (Overlaps(sa, sb)) return false;
  const double da = DistSpan(sq.center, sa.center, sq.dim);
  return DominatesNonOverlapping(sa, sb, sq, da);
}

void HyperbolaCriterion::DecideVerdictBatch(SphereView sa,
                                            const SphereView* sbs,
                                            size_t count, SphereView sq,
                                            Verdict* out) const {
  if (count == 0) return;
  // Dist(cq, ca) does not involve the candidate, so one O(d) distance
  // serves the whole block. It is hoisted even when some candidates fall
  // to the overlap gate: da is needed by every surviving candidate and
  // the serial path computes the identical value, so verdicts cannot
  // drift.
  const double da = DistSpan(sq.center, sa.center, sq.dim);
  for (size_t i = 0; i < count; ++i) {
    const bool dom =
        !Overlaps(sa, sbs[i]) && DominatesNonOverlapping(sa, sbs[i], sq, da);
    out[i] = dom ? Verdict::kDominates : Verdict::kNotDominates;
  }
}

}  // namespace hyperdom
