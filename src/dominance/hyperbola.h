// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Algorithm Hyperbola (paper Section 4) — the paper's contribution and the
// first dominance criterion that is simultaneously correct, sound and O(d).
//
// Outline (Algorithm 1):
//   1. If Sa and Sb overlap, no dominance is possible (Lemma 1).
//   2. Otherwise the boundary of the safe region Ra is one sheet of the
//      two-sheet hyperboloid P: Dist(cb, x) - Dist(ca, x) = ra + rb, with
//      foci ca and cb (Lemma 7).
//   3. Sq lies entirely inside Ra iff cq is inside Ra AND the minimum
//      distance dmin from cq to P exceeds rq (Section 4.2).
//   4. dmin is found by transforming to focus-centered coordinates
//      (Section 4.3.1) and solving the Lagrange-multiplier quartic of
//      Eq. (14) in O(1) (Section 4.3.2); the transform costs O(d).
//
// Two implementation notes beyond the paper's text (details in DESIGN.md):
//   * We never materialize the d-dimensional rotation — only the axial
//     coordinate y1 of cq and its distance y2 from the focal axis enter the
//     quartic, and those are O(d) inner products (geometry/focal_frame.h).
//   * The squared implicit form F(x) = 0 covers both sheets of the
//     hyperboloid. For cq inside Ra the near sheet separates cq from the far
//     sheet, so minimizing over all quartic candidates still yields the
//     distance to the near sheet; when cq is outside Ra the algorithm has
//     already answered false.

#ifndef HYPERDOM_DOMINANCE_HYPERBOLA_H_
#define HYPERDOM_DOMINANCE_HYPERBOLA_H_

#include "dominance/criterion.h"

namespace hyperdom {

/// How HyperbolaCriterion finds the minimum distance to the hyperboloid.
enum class HyperbolaInnerMethod {
  /// The paper's O(1) quartic (Eq. (14)) — the default.
  kQuartic,
  /// Dense parametric scan + golden-section refinement. Exact up to
  /// tolerance but two orders of magnitude slower; used as an ablation
  /// baseline and as a fallback safety net.
  kParametric,
};

/// \brief The paper's optimal dominance criterion.
class HyperbolaCriterion final : public DominanceCriterion {
 public:
  explicit HyperbolaCriterion(
      HyperbolaInnerMethod method = HyperbolaInnerMethod::kQuartic)
      : method_(method) {}

  using DominanceCriterion::Dominates;
  bool Dominates(SphereView sa, SphereView sb, SphereView sq) const override;

  /// Batched tier-1: one (Sa, Sq) pair against a block of candidates. The
  /// query-to-focus distance da = Dist(cq, ca) — the only O(d) term of
  /// the pipeline not involving cb — is computed once and amortized
  /// across the block; every verdict is bit-identical to the serial call.
  void DecideVerdictBatch(SphereView sa, const SphereView* sbs, size_t count,
                          SphereView sq, Verdict* out) const override;

  std::string_view name() const override { return "Hyperbola"; }
  bool is_correct() const override { return true; }
  bool is_sound() const override { return true; }

 private:
  /// The pipeline after the Lemma 1 overlap gate, with da precomputed.
  bool DominatesNonOverlapping(SphereView sa, SphereView sb, SphereView sq,
                               double da) const;

  HyperbolaInnerMethod method_;
};

/// \brief Minimum distance from the 2-plane point (y1, y2) to the full
/// hyperbola Dist(f_b, x) - Dist(f_a, x) = rab (both sheets), with foci
/// f_a = (-alpha, 0) and f_b = (+alpha, 0), via the paper's quartic.
///
/// Requires alpha > 0, 0 < rab < 2*alpha, y2 >= 0. Exposed for tests and the
/// ablation benchmark.
double HyperbolaMinDistQuartic(double alpha, double rab, double y1, double y2);

/// \brief HyperbolaMinDistQuartic(alpha, rab, y1, y2) > rq — the verdict
/// HyperbolaCriterion needs — decided without the quartic's root solve
/// when a vertex or singular-branch candidate (a few ns, against the
/// solve's few hundred) already lies within rq. Always the same answer as
/// the comparison; same preconditions.
bool HyperbolaMinDistQuarticExceeds(double alpha, double rab, double y1,
                                    double y2, double rq);

/// \brief Reference implementation of the same minimum distance using the
/// cosh/sinh parametrization of each sheet with a dense scan and
/// golden-section refinement. Same preconditions as the quartic version.
double HyperbolaMinDistParametric(double alpha, double rab, double y1,
                                  double y2);

}  // namespace hyperdom

#endif  // HYPERDOM_DOMINANCE_HYPERBOLA_H_
