"""Frequency-domain analysis: peaks, sensitivity integrals, design constraints.

The sensitivity integral is evaluated by tanh-sinh quadrature in numpy (in
s, up to twice the largest root, and in closed form beyond), not by the
residue bookkeeping that proves the theorem, so the value and the prediction
stay independent.
Log-magnitudes come from root factorizations (sums of ln|p - r_i|): Horner on
the expanded characteristic polynomial loses every digit near contour zeros,
while the factored form keeps the absolute error near machine precision.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import quad  # noqa: F401  (uncalled; bench/ still times and patches it)

from .lti import (
    BOUNDARY_TOL,
    RationalTransferFunction,
    Stability,
    classify_roots,
    contour_points,
    factored_values,
    is_stable,
    poly_roots,  # noqa: F401  (uncalled; bench/ still patches it)
    stable_rows,
    stacked_roots,
)
from .loops import LoopSet, outer_loop_ct
from .params import DObParams, OuterGains, per_sample_gain

__all__ = [
    "PeakSpec",
    "ConstraintReport",
    "BodeIntegralReport",
    "RootLocusRow",
    "RootLocusTable",
    "OuterGainAudit",
    "sensitivity_peak",
    "bode_integral",
    "check_constraints",
    "max_bandwidth",
    "root_locus",
    "critical_parameter",
    "audit_outer_gain_condition",
    "nyquist_s_magnitude",
    "nyquist_t_magnitude",
]

# Peak search ties within this relative band resolve to the contour's far
# end, then to DC (any maximizer of an exactly flat magnitude is valid).
PEAK_TIE_RTOL = 1e-12

# Newton refinement of a peak makes at most this many steps; it converges
# quadratically, and bisection safeguards it where it would not.
PEAK_NEWTON_STEPS = 30

# Total quadrature error above this (or NaN) raises instead of returning; in s
# it is relative to max(1, the largest root magnitude of S).
QUAD_ERROR_CEILING = 1e-4

# A sweep's midpoint build must match the pencil chi(v) = a + v*b of its two
# ends to this relative tolerance (of the largest coefficient), or the builder
# is refused; the CLI's sweeps match to about 3e-16.
PENCIL_RTOL = 1e-12


# ---------------------------------------------------------------------------
# peak search


def _newton_max(f, lo: float, x: float, hi: float) -> tuple[float, float]:
    """Best point that safeguarded Newton on f' evaluates in [lo, hi], starting at x.

    f(x) gives (value, f', f'').  The sign of f' at each point narrows the
    bracket toward the maximum; a Newton step that is not concave or would
    leave the bracket becomes the bracket's midpoint.  The search stops when
    a step moves less than 4 eps times the bracket's larger end, or f' is
    exactly 0.
    """
    tol = 4.0 * math.ulp(1.0) * max(abs(lo), abs(hi))
    best_x, best_v = x, -math.inf
    for _ in range(PEAK_NEWTON_STEPS):
        v, g, h = f(x)
        if v > best_v:
            best_x, best_v = x, v
        if g == 0.0:
            break
        if g > 0.0:
            lo = x
        else:
            hi = x
        step = x - g / h if h < 0.0 else math.nan
        if not lo < step < hi:  # NaN included
            step = 0.5 * (lo + hi)
        if abs(step - x) <= tol:
            break
        x = step
    return best_x, best_v


def _contour_positions(roots, discrete: bool) -> list[tuple[float, float]]:
    """(position along the frequency contour, distance to it) of each root.

    For a root u of a sampled system these are the angle of z = 1 + u in
    [0, pi] and ||z| - 1|; in s, |Im r| and |Re r|.  A root's log-magnitude
    term curves on the scale of its distance, so its narrow features lie
    within a few distances of its position.
    """
    if discrete:
        return [(abs(cmath.phase(1.0 + r)), abs(1.0 - abs(1.0 + r))) for r in roots]
    return [(abs(r.imag), abs(r.real)) for r in roots]


def _contour_end(roots, discrete: bool) -> float:
    """Far end of the peak search only: the angle pi in z, 1e3 * max(1, largest |root|) in s.

    The s end clears the maxima of |S|: up to 18.5 times the largest root on seeded loops.
    """
    return math.pi if discrete else 1e3 * max([1.0] + [abs(r) for r in roots])


def _peak_grid(end: float, roots, discrete: bool) -> np.ndarray:
    """0, end and each root's anchors, sorted, inside [0, end].

    A root's anchors are its position pos and pos +- dist*2^k for k from -3
    until the offset passes end, so its peak is resolved at every scale from
    dist/8 up.  A point within 1e-12 (relative) below the next is dropped:
    two nearly equal roots give anchors an ulp apart, and a maximum
    bracketed by its twin could not be refined past it.
    """
    pos, dist = np.array(_contour_positions(roots, discrete), dtype=float).reshape(-1, 2).T
    positive = dist[dist > 0.0]
    k_top = math.ceil(math.log2(end) - math.log2(positive.min())) if positive.size else -3
    offsets = np.ldexp(dist[:, None], np.arange(-3, max(k_top, -3) + 1))
    pts = np.concatenate(
        [[0.0, end], pos, (pos[:, None] - offsets).ravel(), (pos[:, None] + offsets).ravel()]
    )
    grid = np.sort(pts[(pts >= 0.0) & (pts <= end)])  # the mask drops exact repeats too
    return grid[np.append(np.diff(grid) > 1e-12 * grid[1:], True)]


def sensitivity_peak(tf: RationalTransferFunction) -> tuple[float, float]:
    """Worst-case magnitude over frequency (rad/s) and where it occurs.

    Requires a strictly stable proper system, and never refuses one.  The
    verdict is is_stable's, and the magnitude comes from tf.factors alone
    (roots in the stored u = z - 1 for sampled systems):
    lti.factored_values on _peak_grid (DC, _contour_end and each root's
    anchors), then safeguarded Newton on the analytic slope of the
    log-magnitude (_log_mag_slopes, _newton_max) from every grid point above
    both neighbours and from the grid's best point, each bracketed by its
    grid neighbours.  The best point evaluated wins, so a maximum outside the
    grid's best basin is found.

    One end rule serves both domains: an end of the contour within
    PEAK_TIE_RTOL (relative) of the best magnitude wins, the far end first,
    then DC.  So an exactly flat magnitude reports the far end, and rounding
    does not move a maximum off an end.  The far end is Nyquist in z, and
    omega = inf in s, where the magnitude tends to the lead ratio if the
    system is biproper and to 0 otherwise.
    """
    stability = is_stable(tf).stability
    if stability is not Stability.STABLE:
        kind = "unstable" if stability is Stability.UNSTABLE else "marginally stable"
        raise ValueError(f"peak undefined for {kind} system")
    discrete = tf.is_discrete
    far_w = tf.nyquist if discrete else math.inf
    if tf.num.is_zero:
        return far_w, 0.0
    zeros, poles = tf.factors

    roots = (*zeros, *poles)
    grid = _peak_grid(_contour_end(roots, discrete), roots, discrete)
    pts = contour_points(grid, discrete)
    ratio = factored_values(tf.num.lead, zeros, pts) / factored_values(tf.den.lead, poles, pts)
    with np.errstate(divide="ignore"):  # a zero on a grid point gives -inf
        logs = np.log(np.abs(ratio))
    lead_ratio = abs(tf.num.lead / tf.den.lead)
    f = _log_mag_slopes(math.log(lead_ratio), zeros, poles, discrete)
    i = int(np.argmax(logs))
    peaks = np.flatnonzero((logs[1:-1] > logs[:-2]) & (logs[1:-1] > logs[2:])) + 1
    last = len(grid) - 1
    candidates = [(float(grid[i]), float(logs[i]))] + [
        _newton_max(f, float(grid[max(k - 1, 0)]), float(grid[k]), float(grid[min(k + 1, last)]))
        for k in sorted({*peaks.tolist(), i})
    ]
    x_best, l_best = max(candidates, key=lambda c: c[1])
    m_best = math.exp(l_best)

    if discrete:
        far = math.exp(logs[-1])
    else:
        far = lead_ratio if tf.num.degree == tf.den.degree else 0.0
    floor = m_best - PEAK_TIE_RTOL * max(m_best, 1e-300)
    for w, m in ((far_w, far), (0.0, math.exp(logs[0]))):
        if m >= floor:
            return w, m
    return (x_best / tf.ts if discrete else x_best), m_best


def nyquist_s_magnitude(gain_product: float) -> float:
    """|S| of the sampled inner loop evaluated exactly at the Nyquist point."""
    return 2.0 / abs(gain_product - 2.0)


def nyquist_t_magnitude(gain_product: float) -> float:
    """|T| of the sampled inner loop evaluated exactly at the Nyquist point.

    This is the supremum of |T| only for gain_product >= 1; below 1 the
    closed-loop pole is positive and the supremum is 1, at DC.
    """
    return gain_product / abs(gain_product - 2.0)


# ---------------------------------------------------------------------------
# sensitivity integral


def _log_mag_slopes(lead_log: float, zeros, poles, discrete: bool):
    """x -> (f, f', f'') of f = lead_log + sum ln|p - zero| - sum ln|p - pole|.

    p = contour_points(x): with p' = dp/dx (j(1 + p) in z, j in s) and p'' its
    derivative (-(1 + p) in z, 0 in s), each root adds +-ln|p - r|, its slope
    Re(p'/(p - r)) and its curvature Re(p''/(p - r) - (p'/(p - r))^2).  The
    scalar form of the peak's Newton refinement; _integrate_log_mag sums the
    same log terms over arrays of nodes.
    """
    signed = [(r, 1.0) for r in zeros] + [(r, -1.0) for r in poles]

    def f(x: float) -> tuple[float, float, float]:
        p = contour_points(x, discrete)
        dp, ddp = (1j * (1.0 + p), -(1.0 + p)) if discrete else (1j, 0j)
        v, g, h = lead_log, 0.0, 0.0
        for r, sign in signed:
            d = (p - r) or 1e-300  # a zero on the contour at x
            q = dp / d
            v += sign * math.log(abs(d))
            g += sign * q.real
            h += sign * (ddp / d - q * q).real
        return v, g, h

    return f


def _tanh_sinh_passes() -> list[tuple[np.ndarray, np.ndarray, list[tuple[float, np.ndarray]]]]:
    """(upper-end mask, signed offset, [(step h, weight) of each level]) of each pass.

    Level k = 3..8 runs t over [-3.2, 3.2] in steps h = 2^-k, and after the
    first level only the odd multiples of h are new.  With u = (pi/2)sinh t a
    node lies half*2/(1 + e^(2|u|)) from the end of its piece that t's sign
    picks, a distance formed without subtracting from 1, so no node lands on a
    root at that end; its weight is (pi/2)cosh t / cosh^2 u.  The first pass
    holds levels 3 and 4, each level's columns in turn.
    """
    levels = []
    for k in range(3, 9):
        j = np.arange(-int(3.2 * 2**k), int(3.2 * 2**k) + 1)
        t = (j if k == 3 else j[j % 2 == 1]) / 2.0**k
        u = 0.5 * math.pi * np.sinh(t)
        dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        weight = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        levels.append((t > 0.0, np.where(t > 0.0, -dist, dist), [(2.0**-k, weight)]))
    (up3, off3, rule3), (up4, off4, rule4) = levels[:2]
    return [(np.concatenate([up3, up4]), np.concatenate([off3, off4]), rule3 + rule4), *levels[2:]]


_TANH_SINH = _tanh_sinh_passes()


def _pieces(a: float, b: float, cuts) -> np.ndarray:
    """The ends (lo, hi) of the pieces of [a, b], as two rows.

    The pieces run between the cuts inside (a, b), none reaches past ten
    times its left end, and one narrower than 1e-15*max(1, |hi|) is dropped.
    """
    pts = [a]
    for x in sorted({*(x for x in cuts if a < x < b), b}):
        while 0.0 < pts[-1] and 10.0 * pts[-1] < x:
            pts.append(10.0 * pts[-1])
        pts.append(x)
    return np.array(
        [(x0, x1) for x0, x1 in zip(pts[:-1], pts[1:]) if x1 - x0 > 1e-15 * max(1.0, abs(x1))]
    ).reshape(-1, 2).T


def _integrate_log_mag(lead_log: float, plus_roots, minus_roots, discrete: bool, lo, hi):
    """(integral, error, evaluations) of the factored log-magnitude over the pieces [lo, hi].

    The integrand is _log_mag_slopes' value, and the rule is tanh-sinh
    (Takahasi & Mori).  At each pass the new nodes of every unconverged
    piece form one (pieces x nodes) array, and the log terms are added into
    it root by root.  Level 3 alone never stops a piece, so the first pass
    holds levels 3 and 4, and each level's estimate is formed from its own
    columns, bitwise as in a pass of its own.  A piece stops when two levels
    differ by at most 32 eps times the weighted sum of its terms' sizes,
    |lead_log| + sum |ln|p - r|| + 1, its rounding floor; its error is that
    difference plus the floor, after level 8 too.  Sums are formed in units of each piece's half-width
    and scaled last, so a range near the largest double does not overflow
    while its nodes are weighted.  In z, a node's distance to pi is formed
    from the nearer end of its piece, like its angle, and a node past pi/2
    is measured from z = -1 (p = u + 2 against r + 2), so the log terms of
    roots near Nyquist keep their digits instead of ulp(2) noise.
    """
    half = 0.5 * (hi - lo)
    total = err = est = size = 0.0
    evaluations = 0
    for n_pass, (upper, offset, rules) in enumerate(_TANH_SINH):
        end = np.where(upper, hi[:, None], lo[:, None])
        step = half[:, None] * offset
        x = end + step
        if discrete:
            # past pi/2 measure from z = -1: u + 2 = 2 sin^2(rest/2) + j sin(rest)
            # and each root r + 2 (exact by Sterbenz for real parts in [-4, -1])
            rest = (math.pi - end) - step
            near = rest < 0.5 * math.pi
            re = np.where(near, 2.0 * np.sin(0.5 * rest) ** 2, -2.0 * np.sin(0.5 * x) ** 2)
            p, shift = re + 1j * np.sin(np.minimum(x, rest)), np.where(near, 2.0, 0.0)
        else:
            p, shift = 1j * x, 0.0
        f = np.full(x.shape, lead_log)
        mag = np.full(x.shape, abs(lead_log) + 1.0)
        evaluations += x.size
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite error is refused
            for roots, sign in ((plus_roots, 1.0), (minus_roots, -1.0)):
                for r in roots:
                    term = np.log(np.maximum(np.abs(p - (r + shift)), 1e-300))
                    f += sign * term
                    mag += np.abs(term)
            col = 0
            for h, weight in rules:  # each level's columns, coarsest first
                cols = slice(col, col + weight.size)
                col += weight.size
                prev, est = est, h * (f[:, cols] @ weight) + 0.5 * est
                size = h * (mag[:, cols] @ weight) + 0.5 * size
            diff = np.abs(est - prev)
            floor = 32.0 * math.ulp(1.0) * size
            done = (diff <= floor) | (n_pass == len(_TANH_SINH) - 1)
            total += float(np.sum(half[done] * est[done]))
            err += float(np.sum(half[done] * (diff[done] + floor[done])))
        lo, hi, half, est, size = (v[~done] for v in (lo, hi, half, est, size))
        if not lo.size:
            break
    return total, err, evaluations


def _log_tail(roots, c: float) -> float:
    """Sum over the roots r = a + jb of the integral of ln|jw - r| - ln w over [c, inf).

    Each gives c*(x*atan(x/(1 - y)) - (1 - y)/2*log1p(x^2 + y^2 - 2y)), with
    x = |a|/c and y = b/c < 1, less b*(ln c - 1 - ln inf): conjugates cancel it.
    """
    total = 0.0
    for x, y in ((abs(r.real) / c, r.imag / c) for r in roots):
        total += x * math.atan(x / (1 - y)) - (1 - y) / 2 * math.log1p(x * x + y * y - 2 * y)
    return c * total


@dataclass(frozen=True)
class BodeIntegralReport:
    """Computed sensitivity integral next to its theorem prediction.

    value             the quadrature result
    rhp_pole_sum      continuous: sum of real parts of unstable open-loop
                      poles; discrete: sum of log-magnitudes of unstable
                      open-loop poles; unstable is classify_roots's verdict,
                      so a pole in the BOUNDARY_TOL band does not count
    limit_term        continuous: lim s*L(s); discrete: ln|1 + L(inf)|
    predicted         pi*rhp_pole_sum - (pi/2)*limit_term  (continuous)
                      2*pi*(rhp_pole_sum - limit_term)     (discrete)
    quadrature_error  error estimate of value: over the pieces, the difference
                      of the last two tanh-sinh levels plus the rounding
                      floor of the integrand's terms (_integrate_log_mag)
    evaluations       number of integrand points the quadrature evaluated
    """

    value: float
    rhp_pole_sum: float
    limit_term: float
    predicted: float
    quadrature_error: float
    evaluations: int


def _unstable(roots, ts: float | None) -> list[complex]:
    """The roots (s, or z if ts is set) that classify_roots alone calls unstable."""
    return [r for r in roots if classify_roots((r,), ts).stability is Stability.UNSTABLE]


def bode_integral(loop: RationalTransferFunction) -> BodeIntegralReport:
    """Numeric integral of ln|S| for the open loop, with theorem prediction.

    One body serves both domains.  S comes from LoopSet.from_open_loop, so
    an improper or degenerate loop is refused there, and its roots from
    S.factors, the ones the peak search and freq read.  The theorem needs a
    stable closed loop, so an UNSTABLE verdict of classify_roots on S's
    poles is refused; a MARGINAL one, inside the BOUNDARY_TOL band, is not.
    _integrate_log_mag integrates the factored ln|S| of the roots by
    tanh-sinh, cut at each root's position along the contour and that
    position plus and minus its distance to it; the rule's nodes crowd the
    ends of each piece without reaching them, so the log singularity of a
    root on the contour at the end of a piece needs nothing more.  An error
    estimate that is not at most its ceiling (NaN included) raises before the
    limit term is formed.

    The domains differ only where the theorem does.  In z (Sung & Hara) the
    integral over the full circle, in omega*ts units, is twice the half
    circle's.  In s (Freudenberg & Looze) the loop needs relative degree
    >= 1, so S has unit lead and as many zeros as poles: quadrature stops at
    c = 2*max(1, largest |root|), and every |p - r| on [0, c], at most
    1.5*c, must be finite; _log_tail adds the rest, and the ceiling scales
    with c.  Each domain keeps its own rhp_pole_sum, limit_term and predicted.
    """
    S = LoopSet.from_open_loop(loop).S
    discrete = loop.is_discrete
    rel_deg = loop.den.degree - loop.num.degree
    lead_log = math.log(abs(S.num.lead / S.den.lead))
    if not discrete and rel_deg < 1:
        raise ValueError(
            "integral diverges: continuous loop must have relative degree >= 1"
        )
    # not is_stable(S): it refuses the improper S where 1 + L(inf) vanishes
    if classify_roots(S.poles(), S.ts).stability is Stability.UNSTABLE:
        raise ValueError("prediction undefined for unstable closed loop")
    num_roots, den_roots = S.factors
    roots = (*num_roots, *den_roots)
    # each root cuts at its position along the contour and its distance either side
    cuts = [x for p, d in _contour_positions(roots, discrete) for x in (p - d, p, p + d)]
    if discrete:
        value, err, evaluations = _integrate_log_mag(
            lead_log, num_roots, den_roots, True, *_pieces(0.0, math.pi, cuts)
        )
        # the integrand is even in theta, so the full-circle integral is
        # twice the half-range one; the result is in omega*ts units
        value, err, ceiling = 2.0 * value, 2.0 * err, QUAD_ERROR_CEILING
    else:
        # c clears every cut (pos + dist <= sqrt(2)*|r|) and every |Im r|
        scale = max([1.0] + [abs(r) for r in roots])
        c = 2.0 * scale
        # every |p - r| on [0, c] is at most c + scale, which must be finite
        if not math.isfinite(3.0 * scale):
            raise RuntimeError("quadrature did not converge: the range end overflows")
        value, err, evaluations = _integrate_log_mag(
            lead_log, num_roots, den_roots, False, *_pieces(0.0, c, cuts)
        )
        value += _log_tail(num_roots, c) - _log_tail(den_roots, c)
        ceiling = QUAD_ERROR_CEILING * scale
    if not err <= ceiling:
        raise RuntimeError(f"quadrature did not converge: achieved +-{err:.3g}")

    if discrete:
        rhp = sum(math.log(abs(z)) for z in _unstable([1.0 + r for r in num_roots], loop.ts))
        l_inf = loop.num.lead / loop.den.lead if rel_deg == 0 else 0.0
        mag = abs(1.0 + l_inf)
        if mag <= 1e-300:
            raise ValueError("limit term undefined: 1 + L(inf) vanishes")
        limit_term = math.log(mag)
        predicted = 2.0 * math.pi * (rhp - limit_term)
    else:
        rhp = sum(r.real for r in _unstable(num_roots, None))
        limit_term = loop.num.lead / loop.den.lead if rel_deg == 1 else 0.0
        predicted = math.pi * rhp - 0.5 * math.pi * limit_term
    return BodeIntegralReport(value, rhp, limit_term, predicted, err, evaluations)


# ---------------------------------------------------------------------------
# design constraints


@dataclass(frozen=True)
class PeakSpec:
    """Admissible sensitivity/complementary peak budgets, each in (0, 1)."""

    gamma_s: float
    gamma_t: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma_s < 1.0:
            raise ValueError("gamma_s must lie strictly inside (0, 1)")
        if not 0.0 < self.gamma_t < 1.0:
            raise ValueError("gamma_t must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class ConstraintReport:
    """Pass/fail of the sampled-design constraints with signed margins.

    Margins are boundary minus value, so positive means satisfied.  Marginal
    cases sit at zero and count as violations for the strict inequalities.
    inner_stable is the verdict of classify_roots on the closed-loop pole
    1 - x, so it fails within BOUNDARY_TOL of x = 0 and x = 2 exactly as
    is_stable of the sampled inner loop does.  outer_gain_ok is the printed
    continuous outer-loop gain inequality; it is None when no PD gains were
    supplied.
    """

    inner_stable: bool
    no_ringing: bool
    s_peak_ok: bool
    t_peak_ok: bool
    outer_gain_ok: bool | None
    margins: dict[str, float]


def _outer_gain_margin(p: DObParams, gains: OuterGains) -> float:
    """rhs - 1/alpha of the printed outer-loop gain inequality 1/alpha < rhs.

    Positive exactly when the inequality holds: with gradual underflow two
    doubles differ by zero only when equal, and an overflowed rhs gives +inf.
    """
    rhs = 1.0 + p.g_dob * (
        gains.kd / gains.kp + gains.kd / p.g_dob + gains.kd * gains.kd / gains.kp
    )
    return rhs - 1.0 / p.alpha


def _peak_bounds(spec: PeakSpec) -> tuple[float, float]:
    """Largest x meeting the |S| budget and the |T| budget, in that order."""
    return 2.0 * (1.0 - spec.gamma_s), 2.0 / (1.0 + spec.gamma_t)


def check_constraints(
    p: DObParams, gains: OuterGains | None, spec: PeakSpec
) -> ConstraintReport:
    x = per_sample_gain(p)
    b_s, b_t = _peak_bounds(spec)
    margins = {
        "inner": 2.0 - x,
        "ringing": 1.0 - x,
        "s_peak": b_s - x,
        "t_peak": b_t - x,
    }
    outer_gain_ok: bool | None = None
    if gains is not None:
        margins["outer_gain"] = _outer_gain_margin(p, gains)
        outer_gain_ok = margins["outer_gain"] > 0.0
    return ConstraintReport(
        inner_stable=classify_roots((complex(1.0 - x),), p.ts).is_stable,
        no_ringing=x <= 1.0,
        s_peak_ok=x <= b_s,
        t_peak_ok=x <= b_t,
        outer_gain_ok=outer_gain_ok,
        margins=margins,
    )


def max_bandwidth(alpha: float, ts: float, spec: PeakSpec) -> float:
    """Largest estimator bandwidth meeting both peak budgets."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    if not (ts > 0.0 and math.isfinite(ts)):
        raise ValueError("ts must be positive and finite")
    rate = alpha * ts
    # a product that underflows to 0 leaves the bound unlimited
    return min(_peak_bounds(spec)) / rate if rate > 0.0 else math.inf


@dataclass(frozen=True)
class OuterGainAudit:
    """Printed analytic outer-loop gain inequality vs root-based truth."""

    predicate_ok: bool
    margin: float
    root_stable: bool
    agree: bool


def audit_outer_gain_condition(p: DObParams, gains: OuterGains) -> OuterGainAudit:
    margin = _outer_gain_margin(p, gains)
    predicate_ok = margin > 0.0
    loop = outer_loop_ct(p, gains)
    root_stable = is_stable(loop.S).is_stable
    return OuterGainAudit(
        predicate_ok=predicate_ok,
        margin=margin,
        root_stable=root_stable,
        agree=predicate_ok == root_stable,
    )


# ---------------------------------------------------------------------------
# parameter sweeps


class RootLocusRow(NamedTuple):
    """One swept value, its closed-loop roots (z for a sampled loop) and their strict verdict.

    stable is classify_roots(roots).is_stable.  A named tuple: a row is
    immutable and equals the plain tuple (param, roots, stable).
    """

    param: float
    roots: tuple[complex, ...]
    stable: bool


@dataclass(frozen=True)
class RootLocusTable:
    rows: tuple[RootLocusRow, ...]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _affine_pencil(
    build_loop: Callable[[float], LoopSet], lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(a, b, ts) such that chi(v) = S.den of build_loop(v) is the pencil a + v*b.

    The loop is built at lo, hi and their midpoint; lo and hi give a and b,
    and a single value (lo == hi) is built once and is its own pencil with
    b = 0.  The probes must share ts and a degree of at least 1, the leading
    coefficient must not depend on v (so no value can drop the degree), and
    the midpoint must match a + v*b within PENCIL_RTOL of the largest
    coefficient, which a pencil that overflows does not.  A builder that
    fails a check is refused with a ValueError that names it: a builder is
    never assumed affine.
    """
    mid = 0.5 * (lo + hi)
    probes = tuple(dict.fromkeys((lo, hi, mid)))  # each distinct value is built once
    loops = [build_loop(v) for v in probes]
    ts = loops[0].L.ts
    if any(ls.L.ts != ts for ls in loops):
        raise ValueError(f"not a pencil: the sample time differs across the probes {probes}")
    chi = {v: np.array(ls.S.den.coeffs) for v, ls in zip(probes, loops)}
    degrees = tuple(len(c) - 1 for c in chi.values())
    if min(degrees) < 1 or len(set(degrees)) > 1:
        raise ValueError(f"not a pencil: chi has degrees {degrees} at the probes {probes}")
    c0, cm, c1 = chi[lo], chi[mid], chi[hi]
    scale = max(np.abs(c).max() for c in chi.values())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes off NaN or inf
        b = (c1 - c0) / ((hi - lo) or 1.0)  # one value: c1 is c0, and b = 0
        a = c0 - lo * b
        off = np.abs(a + mid * b - cm).max() / scale
    if b[0] != 0.0:
        raise ValueError("not a pencil: the leading coefficient of chi depends on the swept value")
    if not off <= PENCIL_RTOL:
        raise ValueError(f"not a pencil: chi at the midpoint {mid!r} is off a + v*b by"
                         f" {off:.3g} of its largest coefficient (PENCIL_RTOL {PENCIL_RTOL:g})")
    return a, b, ts


def _failed(v: float, exc: ValueError) -> ValueError:
    return ValueError(f"root locus failed at parameter {v!r}: {exc}")


def _closed_loop_roots(pencil, vals: Sequence[float]) -> tuple[list, list]:
    """(roots, stable flags) of the rows a + v*b of a pencil (a, b, ts) from _affine_pencil.

    Nothing is built: stacked_roots and stable_rows solve and classify all
    rows at once, bitwise poly_roots and classify_roots of each row.  A
    sampled chi is solved in u, and its roots are reported and classified
    as z = 1 + u.  The first row in sweep order that is not finite is
    refused.
    """
    a, b, ts = pencil
    with np.errstate(over="ignore", invalid="ignore"):  # rows are checked next
        rows = a + np.array(vals)[:, None] * b
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        v = vals[int(np.argmin(finite))]
        raise _failed(v, ValueError("polynomial coefficients must be finite"))
    r = stacked_roots(rows)
    if ts is not None:
        r = r + 1.0
    return r.tolist(), stable_rows(r, ts).tolist()


def root_locus(
    build_loop: Callable[[float], LoopSet],
    values: Sequence[float],
) -> RootLocusTable:
    """Closed-loop roots of 1 + L = 0 for each swept parameter value.

    build_loop maps the swept value to its LoopSet; the closed-loop roots are
    those of the shared S/T denominator chi, which must be affine in the
    swept value, as in every sweep the CLI offers.  Only the probes of
    _affine_pencil on the smallest and largest value are built, so
    build_loop must be defined over that whole range, and all rows are
    solved together (_closed_loop_roots).  A builder whose chi is not a
    pencil is refused with a ValueError that names the failed check.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("root locus needs at least one parameter value")

    def build(v: float) -> LoopSet:
        try:
            return build_loop(v)
        except ValueError as exc:
            raise _failed(v, exc) from exc

    roots, stable = _closed_loop_roots(_affine_pencil(build, min(vals), max(vals)), vals)
    return RootLocusTable(tuple(map(RootLocusRow, vals, map(tuple, roots), stable)))


@functools.lru_cache(maxsize=None)
def _contour_map(n: int, discrete: bool) -> np.ndarray:
    """Matrix taking a degree-n polynomial p (in s, or u = z - 1) to its form on the band edge.

    The band edge is where is_stable's verdict flips; the form is in its real
    variable t.  In s it is p(jt - BOUNDARY_TOL): column i is
    (jt - BOUNDARY_TOL)^(n-i).  In z, with r = 1 - BOUNDARY_TOL, it is
    (1 - jt)^n p(u) at z = r(1 + jt)/(1 - jt), t = tan(theta/2): column i is
    ((r - 1) + j(r + 1)t)^(n-i) (1 - jt)^i, z = r is t = 0 and z = -r is
    t = inf.  The coefficient of t^k is a real times j^k.
    """
    r = 1.0 - BOUNDARY_TOL
    top, rest = ([1j * (r + 1), r - 1], [-1j, 1]) if discrete else ([1j, -BOUNDARY_TOL], [0, 1])
    m = np.array([functools.reduce(np.convolve, [top] * (n - i) + [rest] * i, [1 + 0j])
                  for i in range(n + 1)]).T
    m.flags.writeable = False  # one array per degree and domain, shared by every call
    return m


def _crossings(a: np.ndarray, b: np.ndarray, ts: float | None, lo: float, hi: float):
    """Sorted candidate values v in [lo, hi] where a root of a + v*b meets the band edge.

    A root x lies on the edge exactly when a(x)*conj(b(x)) is real there,
    and then v = -a(x)/b(x).  With A and B the forms on the edge's real
    variable t (_contour_map), that is where q(t) = Im(A(t)*conj(B(t)))
    vanishes.  q always vanishes at the real points, t = 0 and in z t = inf,
    which are taken as they are; the rest of q is solved once.  q is odd, as
    A(-t) = conj A(t), so its real roots come in pairs +-t, and only t >= 0 is
    kept.  Each real root of q (to 1e-6) gives the edge point
    r*contour_points(x) - BOUNDARY_TOL (x = t and r = 1 in s, x = 2*atan(t)
    in z) and then v.  Rounding and pairs of roots near the edge give
    spurious values, so a caller checks the verdict between candidates.
    """
    discrete = ts is not None
    ab = np.array([a, b]).T
    ab = np.ldexp(ab, -np.frexp(np.abs(ab).max())[1])  # exact: q's products cannot overflow
    ab = _contour_map(len(a) - 1, discrete) @ ab
    q = np.trim_zeros(np.convolve(ab[:, 0], np.conj(ab[:, 1])).imag)
    t = stacked_roots(q[None, :])[0] if len(q) > 1 else np.empty(0, dtype=complex)
    t = t.real[(np.abs(t.imag) <= 1e-6 * np.maximum(1.0, np.abs(t))) & (t.real >= 0.0)]
    x = np.concatenate([[0.0, math.pi], 2.0 * np.arctan(t)] if discrete else [[0.0], t])
    r = 1.0 - BOUNDARY_TOL if discrete else 1.0
    p = r * contour_points(x, discrete) - BOUNDARY_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = (-np.polyval(a, p) / np.polyval(b, p)).real
    return np.unique(v[(lo <= v) & (v <= hi)])


def critical_parameter(
    build_loop: Callable[[float], LoopSet],
    lo: float,
    hi: float,
) -> float:
    """The lowest value in [lo, hi] where the closed-loop verdict flips.

    The endpoints must give opposite closed-loop verdicts, and chi must be
    affine in the parameter: only the probes of _affine_pencil (lo, hi and
    the midpoint) are built, so build_loop must be defined over the whole
    bracket, and a builder that is not a pencil is refused with a
    ValueError.  _crossings gives the values where a root meets the band
    edge (D-decomposition), and one stacked solve the verdicts at lo, hi and
    the midpoint of each interval between them.  Unless the first interval
    carries lo's verdict and the last hi's, a crossing was missed and
    RuntimeError is raised; else the first value that ends lo's verdict is
    returned.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    pencil = _affine_pencil(build_loop, lo, hi)
    ends = [lo, *_crossings(*pencil, lo, hi).tolist(), hi]
    mids = [0.5 * (v0 + v1) for v0, v1 in zip(ends[:-1], ends[1:])]
    flags = _closed_loop_roots(pencil, [lo, hi, *mids])[1]
    s_lo, inside = flags[0], flags[2:]
    if s_lo == flags[1]:
        raise ValueError("bracket endpoints give the same stability verdict")
    if inside[0] != s_lo or inside[-1] == s_lo:
        raise RuntimeError("a crossing of the stability boundary was missed")
    return ends[inside.index(not s_lo)]
