"""Frequency-domain analysis: peaks, sensitivity integrals, design constraints.

The sensitivity integral is evaluated by honest quadrature rather than by the
residue bookkeeping that proves the underlying theorem, so the reported value
and the theorem's prediction stay independent of each other.  Log-magnitudes
are computed from root factorizations (sum of ln|p - r_i| terms): evaluating
the expanded characteristic polynomial by Horner loses every significant
digit near contour zeros, while the factored form keeps the absolute error
near machine precision everywhere on the contour.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .lti import (
    RationalTransferFunction,
    Stability,
    classify_roots,
    contour_points,
    factored_values,
    is_stable,
    poly_roots,
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

# Golden-section refinement of a peak stops at a bracket this wide relative
# to its far end: near a smooth maximum the location is determined only to
# about sqrt(eps), so narrower brackets chase rounding.
PEAK_XTOL = math.sqrt(math.ulp(1.0))

# Total quadrature error above this (or NaN) raises instead of returning; in s
# it is relative to max(1, the largest root magnitude of S).
QUAD_ERROR_CEILING = 1e-4

# A sweep is solved as the pencil chi(v) = a + v*b only if a third build
# matches it to this relative tolerance (of the largest coefficient); the
# CLI's sweeps match to about 3e-16.
PENCIL_RTOL = 1e-12


# ---------------------------------------------------------------------------
# peak search


def _golden_max(f: Callable[[float], float], a: float, b: float):
    """Best point that golden-section search for a maximum of f on [a, b] evaluates."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = PEAK_XTOL * max(abs(a), abs(b))
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


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
    """Far end of the contour: the angle pi in z, 1e3 * max(1, largest |root|) in s."""
    return math.pi if discrete else 1e3 * max([1.0] + [abs(r) for r in roots])


def _peak_grid(end: float, roots, discrete: bool) -> np.ndarray:
    """0, end and each root's anchors, sorted, inside [0, end].

    A root's anchors are its position pos and pos +- dist*2^k for k from -3
    until the offset passes end, so its peak is resolved at every scale from
    dist/8 up.
    """
    pos, dist = np.array(_contour_positions(roots, discrete), dtype=float).reshape(-1, 2).T
    positive = dist[dist > 0.0]
    k_top = math.ceil(math.log2(end) - math.log2(positive.min())) if positive.size else -3
    offsets = np.ldexp(dist[:, None], np.arange(-3, max(k_top, -3) + 1))
    pts = np.concatenate(
        [[0.0, end], pos, (pos[:, None] - offsets).ravel(), (pos[:, None] + offsets).ravel()]
    )
    return np.unique(pts[(pts >= 0.0) & (pts <= end)])


def sensitivity_peak(tf: RationalTransferFunction) -> tuple[float, float]:
    """Worst-case magnitude over frequency (rad/s) and where it occurs.

    Requires a strictly stable proper system, and never refuses one.  The
    verdict is is_stable's, and the magnitude comes from tf.factors alone
    (roots in the stored u = z - 1 for sampled systems):
    lti.factored_values on _peak_grid (DC, _contour_end and each root's
    anchors), then golden-section search on _factored_log_mag around every
    grid point above both neighbours and around the grid's best point.  The
    best result wins, so a maximum outside the grid's best basin is found.

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
    f = _factored_log_mag(math.log(lead_ratio), zeros, poles, discrete)
    i = int(np.argmax(logs))
    peaks = np.flatnonzero((logs[1:-1] > logs[:-2]) & (logs[1:-1] > logs[2:])) + 1
    last = len(grid) - 1
    candidates = [(float(grid[i]), float(logs[i]))] + [
        _golden_max(f, float(grid[max(k - 1, 0)]), float(grid[min(k + 1, last)]))
        for k in np.union1d(peaks, [i]).tolist()
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


def _factored_log_mag(lead_log: float, plus_roots, minus_roots, discrete: bool):
    """x -> lead_log + sum ln|p - plus| - sum ln|p - minus| at p = contour_points(x)."""

    def f(x: float) -> float:
        pt = contour_points(x, discrete)
        acc = lead_log
        for r in plus_roots:
            d = abs(pt - r)
            acc += math.log(d if d > 1e-300 else 1e-300)
        for r in minus_roots:
            d = abs(pt - r)
            acc -= math.log(d if d > 1e-300 else 1e-300)
        return acc

    return f


def _integrate_log_mag(f, a: float, b: float, cuts):
    """Integral of f over [a, b] and its error, one QUADPACK quad per piece.

    The pieces run between the cuts inside (a, b), and no piece reaches past
    ten times its left end.  QUADPACK's QAGS extrapolates a log singularity
    at the end of a piece, so a contour root needs nothing but a cut at its
    position.
    """
    pts = [a]
    for x in sorted({*(x for x in cuts if a < x < b), b}):
        while 0.0 < pts[-1] and 10.0 * pts[-1] < x:
            pts.append(10.0 * pts[-1])
        pts.append(x)
    total = 0.0
    err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            continue
        out = quad(f, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=200, full_output=1)
        total += out[0]
        err += out[1]
    return total, err


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
    quadrature_error  error estimate of value: the sum of QUADPACK's estimates
                      over the pieces, plus, in s, the tail-model term and the
                      rounding of the integrand that the tail fit amplifies
    """

    value: float
    rhp_pole_sum: float
    limit_term: float
    predicted: float
    quadrature_error: float


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
    _integrate_log_mag integrates _factored_log_mag of the roots from 0 to
    _contour_end, cut at each root's position along the contour and that
    position plus and minus its distance to it; QUADPACK's extrapolation
    integrates the log singularity of a root on the contour at the end of a
    piece.  An error estimate that is not at most its ceiling (NaN included)
    raises before the limit term is formed.

    The domains differ only where the theorem does.  In z (Sung & Hara) the
    integral over the full circle, in omega*ts units, is twice the half
    circle's.  In s (Freudenberg & Looze) the loop needs relative degree
    >= 1, each root also cuts at its magnitude, a fitted tail beyond the end
    is added, and the ceiling scales with max(1, largest root magnitude).
    Each domain keeps its own rhp_pole_sum, limit_term and predicted.
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
    # in s, S is biproper with unit high-frequency gain (its denominator
    # shares the leading coefficient of L's when rel_deg >= 1)
    f = _factored_log_mag(lead_log, num_roots, den_roots, discrete)
    roots = (*num_roots, *den_roots)
    # in s each root also cuts at its corner frequency |r|; in z the repeated
    # pos is dropped, as _integrate_log_mag takes the cuts as a set
    cuts = [
        x
        for (pos, dist), r in zip(_contour_positions(roots, discrete), roots)
        for x in (pos - dist, pos, pos + dist, pos if discrete else abs(r))
    ]
    end = _contour_end(roots, discrete)
    value, err = _integrate_log_mag(f, 0.0, end, cuts)

    if discrete:
        # the integrand is even in theta, so the full-circle integral is
        # twice the half-range one; the result is in omega*ts units
        value, err, ceiling = 2.0 * value, 2.0 * err, QUAD_ERROR_CEILING
    else:
        # Beyond the end c, ln|S| ~ A/w^2 + B/w^4 (odd powers are
        # imaginary for real coefficients); fit a = A/c^2 and b = B/c^4 at
        # w = c and 2c and integrate the model to infinity.  The fit
        # multiplies the rounding of f, which is a few ulp of each log term,
        # by up to 17*c/3.
        f1 = f(end)
        f2 = f(2.0 * end)
        a_fit = (16.0 * f2 - f1) / 3.0
        b_fit = f1 - a_fit
        value += end * (a_fit + b_fit / 3.0)
        rounding = 2.0 * math.ulp(1.0) * (
            abs(lead_log) + sum(abs(math.log(abs(2j * end - r))) + 1.0 for r in roots)
        )
        err += end * abs(b_fit) / 3.0 + 17.0 * end / 3.0 * rounding + 1e-10
        # the integral and its rounding grow with the roots, so the ceiling
        # does too
        ceiling = QUAD_ERROR_CEILING * (end / 1e3)
    if not err <= ceiling:
        raise RuntimeError(f"quadrature did not converge: achieved +-{err:.3g}")

    if discrete:
        unstable = _unstable([1.0 + r for r in num_roots], loop.ts)
        rhp = sum(math.log(abs(z)) for z in unstable)
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
    return BodeIntegralReport(value, rhp, limit_term, predicted, err)


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


@dataclass(frozen=True)
class RootLocusRow:
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

    def flip_count(self) -> int:
        """Number of stability transitions along the sweep order."""
        flags = [row.stable for row in self.rows]
        return sum(1 for a, b in zip(flags[:-1], flags[1:]) if a != b)


def _affine_pencil(
    build_loop: Callable[[float], LoopSet], probes: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, float | None] | None:
    """(a, b, ts) when chi(v) = S.den of build_loop(v) is the pencil a + v*b.

    The loop is built at the first, the last and the middle of probes.  The
    first and last give a and b; the middle one must match a + v*b within
    PENCIL_RTOL of the largest coefficient, with the same degree and ts.
    The leading coefficient must not depend on v, so no swept value can drop
    the degree.  Anything else returns None, and the caller solves point by
    point: a builder is never assumed affine without this check.
    """
    v0, vm, v1 = probes[0], probes[len(probes) // 2], probes[-1]
    if len({v0, vm, v1}) < 3:
        return None
    loops = [build_loop(v) for v in (v0, vm, v1)]
    ts = loops[0].L.ts
    if any(ls.L.ts != ts for ls in loops):
        return None
    c0, cm, c1 = (ls.S.den.coeffs for ls in loops)
    if not len(c0) == len(cm) == len(c1) >= 2:
        return None
    c0, cm, c1 = np.array(c0), np.array(cm), np.array(c1)
    b = (c1 - c0) / (v1 - v0)
    a = c0 - v0 * b
    scale = max(np.abs(c0).max(), np.abs(cm).max(), np.abs(c1).max())
    if b[0] != 0.0 or np.abs(a + vm * b - cm).max() > PENCIL_RTOL * scale:
        return None
    return a, b, ts


def _failed(v: float, exc: ValueError) -> ValueError:
    return ValueError(f"root locus failed at parameter {v!r}: {exc}")


def _closed_loop_roots(
    build_loop: Callable[[float], LoopSet], pencil, vals: Sequence[float]
) -> tuple[list, list]:
    """(roots, stable flags) of chi = S.den at each value.

    With a pencil (a, b, ts) from _affine_pencil each row is a + v*b,
    nothing is built, and stacked_roots and stable_rows solve and classify
    all rows at once: bitwise poly_roots and classify_roots of each row.
    Without one each value is built and solved in turn by poly_roots and
    classify_roots.  A sampled chi is solved in u, and its roots are
    reported and classified as z = 1 + u.
    """
    if pencil is not None:
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
    roots, stable = [], []
    for v in vals:
        ls = build_loop(v)
        try:
            r = poly_roots(ls.S.den)
        except ValueError as exc:
            raise _failed(v, exc) from exc
        roots.append(r if ls.L.ts is None else tuple(1.0 + u for u in r))
        stable.append(classify_roots(roots[-1], ls.L.ts).is_stable)
    return roots, stable


def root_locus(
    build_loop: Callable[[float], LoopSet],
    values: Sequence[float],
) -> RootLocusTable:
    """Closed-loop roots of 1 + L = 0 for each swept parameter value.

    build_loop maps the swept value to its LoopSet; the closed-loop roots are
    those of the shared S/T denominator chi (_closed_loop_roots).  When chi
    is affine in the swept value (every sweep the CLI offers), only the probe
    values of _affine_pencil are built and all rows are solved together, so
    build_loop must be defined over the whole sweep.  Otherwise every value
    is built and solved in sweep order.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("root locus needs at least one parameter value")

    def build(v: float) -> LoopSet:
        try:
            return build_loop(v)
        except ValueError as exc:
            raise _failed(v, exc) from exc

    roots, stable = _closed_loop_roots(build, _affine_pencil(build, vals), vals)
    return RootLocusTable(
        tuple(
            RootLocusRow(param=v, roots=tuple(ri), stable=si)
            for v, ri, si in zip(vals, roots, stable)
        )
    )


def critical_parameter(
    build_loop: Callable[[float], LoopSet],
    lo: float,
    hi: float,
) -> float:
    """Bisect the stability boundary between two parameter values.

    The endpoints must give opposite closed-loop verdicts; the bracket is
    shrunk to a relative width of 1e-6 and its midpoint returned.  When chi
    is affine in the parameter, only the probe values of _affine_pencil
    (lo, the midpoint and hi) are built and every verdict comes from
    a + v*b, so build_loop must be defined over the whole bracket.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    pencil = _affine_pencil(build_loop, (lo, 0.5 * (lo + hi), hi))

    def stable_at(v: float) -> bool:
        return _closed_loop_roots(build_loop, pencil, [v])[1][0]

    s_lo = stable_at(lo)
    if s_lo == stable_at(hi):
        raise ValueError("bracket endpoints give the same stability verdict")
    while hi - lo > 1e-6 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if stable_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
