"""Peaks, waterbed integrals, design constraints, and parameter sweeps."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doblab import analysis, lti
from doblab.analysis import (
    OuterGainAudit,
    PeakSpec,
    RootLocusRow,
    _contour_positions,
    _integrate_log_mag,
    _pieces,
    audit_outer_gain_condition,
    bode_integral,
    check_constraints,
    critical_parameter,
    max_bandwidth,
    root_locus,
    sensitivity_peak,
)
from doblab.discretize import DiscretizationRule, substitute
from doblab.loops import LoopSet, inner_loop_ct, inner_loop_dt, outer_loop_ct, outer_loop_dt
from doblab.lti import (
    BOUNDARY_TOL,
    Polynomial,
    RationalTransferFunction,
    Stability,
    classify_roots,
    is_stable,
    poly_roots,
)
from doblab.params import DObParams, OuterGains
from oracles import nyquist_s_magnitude, nyquist_t_magnitude

TS = 1e-3
SWEEP_GAINS = OuterGains(kp=1000.0, kd=250.0)


def _inner_dt(x: float, ts: float = TS) -> LoopSet:
    return inner_loop_dt(DObParams(alpha=1.0, g_dob=x / ts, ts=ts))


# ------------------------------------------------------------------- peaks


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_sensitivity_peak_at_nyquist(x):
    omega, peak = sensitivity_peak(_inner_dt(x).S)
    assert omega == pytest.approx(math.pi / TS, rel=1e-12)
    assert peak == pytest.approx(2.0 / abs(x - 2.0), rel=1e-9)
    assert peak == pytest.approx(nyquist_s_magnitude(x), rel=1e-9)


@pytest.mark.parametrize("x", [1.0, 1.5, 1.9])
def test_complementary_peak_at_nyquist_when_pole_negative(x):
    omega, peak = sensitivity_peak(_inner_dt(x).T)
    assert omega == pytest.approx(math.pi / TS, rel=1e-12)
    assert peak == pytest.approx(x / abs(x - 2.0), rel=1e-9)
    assert peak == pytest.approx(nyquist_t_magnitude(x), rel=1e-9)


@pytest.mark.parametrize("x", [0.1, 0.5])
def test_complementary_peak_is_dc_when_pole_positive(x):
    # for 0 < x < 1 the closed-loop pole 1-x is positive, |T| decreases
    # monotonically from its DC value 1; the Nyquist value x/(2-x) is a
    # local evaluation, not the supremum
    omega, peak = sensitivity_peak(_inner_dt(x).T)
    assert omega == 0.0
    assert peak == pytest.approx(1.0, rel=1e-12)
    assert nyquist_t_magnitude(x) < 1.0


@pytest.mark.parametrize("ts", [1e-3, 1e-4])
def test_complementary_peak_tie_rule_keeps_dc(ts):
    # below x = 1 the supremum of |T| is exactly 1, at DC; the grid and the
    # Newton refinement can round a point just off DC to a value an ulp
    # above 1, and the tie rule must still report DC itself
    for x in np.linspace(0.0, 1.0, 502)[1:-1]:
        omega, peak = sensitivity_peak(_inner_dt(x, ts).T)
        assert omega == 0.0, f"x={x}"
        assert abs(peak - 1.0) <= 1e-12, f"x={x}"
    # at x = 1 |T| is flat, and Nyquist wins the tie over DC
    omega, peak = sensitivity_peak(_inner_dt(1.0, ts).T)
    assert omega == math.pi / ts
    assert abs(peak - 1.0) <= 1e-12


def test_peak_requires_strict_stability():
    with pytest.raises(ValueError, match="unstable"):
        sensitivity_peak(_inner_dt(2.5).S)
    with pytest.raises(ValueError, match="marginally stable"):
        sensitivity_peak(_inner_dt(2.0).S)


def test_continuous_peaks_first_order():
    ls = inner_loop_ct(DObParams(alpha=1.0, g_dob=100.0))
    # S = s/(s+100) is biproper: supremum 1 approached as omega -> inf
    omega, peak = sensitivity_peak(ls.S)
    assert math.isinf(omega)
    assert peak == pytest.approx(1.0, rel=1e-12)
    # T = 100/(s+100) peaks at DC
    omega, peak = sensitivity_peak(ls.T)
    assert omega == 0.0
    assert peak == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_continuous_complementary_peak_second_order_closed_form(alpha):
    # inner-s T = wn^2/(s^2 + g_v s + wn^2) with wn^2 = alpha*g_dob*g_v and
    # zeta = g_v/(2 wn): for zeta >= 1/sqrt(2), that is g_v >= 2*alpha*g_dob,
    # |T| peaks at DC, and the DC tie clause must report DC itself rather
    # than a rounding-noise omega next to it; below, the peak is
    # 1/(2 zeta sqrt(1 - zeta^2)) at wn*sqrt(1 - 2 zeta^2)
    for g in (100.0, 250.0, 500.0, 1000.0):
        for gv in (100.0, 300.0, 500.0, 1000.0, 2000.0, 5000.0):
            ls = inner_loop_ct(DObParams(alpha=alpha, g_dob=g, g_v=gv))
            omega, peak = sensitivity_peak(ls.T)
            wn = math.sqrt(alpha * g * gv)
            zeta = gv / (2.0 * wn)
            if gv >= 2.0 * alpha * g:
                assert omega == 0.0, (g, gv, omega)
                assert abs(peak - 1.0) <= 1e-12, (g, gv, peak)
            else:
                want = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta * zeta))
                assert abs(peak - want) <= 1e-12, (g, gv, peak, want)
                assert omega == pytest.approx(wn * math.sqrt(1.0 - 2.0 * zeta * zeta), rel=1e-6)


def test_continuous_peak_far_end_wins_ties():
    # |S| of this biproper loop tends to 1 as omega -> inf, and its
    # supremum by 50-digit mpmath is 1.00000000000049, inside PEAK_TIE_RTOL
    # of that limit, so omega = inf wins the tie; a rule that preferred the
    # far end only when strictly above the refined maximum returned
    # (3238392.45..., 1.0000000000005063)
    p = DObParams(alpha=7.466207822704074, g_dob=0.001845069119572016, g_v=161934.990486253)
    ls = outer_loop_ct(p, OuterGains(kp=2.0823313003801656, kd=8.956140496266354))
    assert sensitivity_peak(ls.S) == (math.inf, 1.0)
    # an identically zero magnitude ties everywhere: the far end again
    zero = RationalTransferFunction(Polynomial((0.0,)), Polynomial((1.0, 1.0)), ts=None)
    assert sensitivity_peak(zero) == (math.inf, 0.0)


def test_nyquist_magnitude_formulas():
    assert nyquist_s_magnitude(0.5) == pytest.approx(2.0 / 1.5, rel=1e-15)
    assert nyquist_s_magnitude(2.5) == pytest.approx(4.0, rel=1e-15)
    assert nyquist_t_magnitude(1.5) == pytest.approx(3.0, rel=1e-15)
    assert nyquist_t_magnitude(0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # the two differ by exactly x/2 in ratio
    for x in (0.3, 0.9, 1.7):
        assert nyquist_t_magnitude(x) == pytest.approx(
            nyquist_s_magnitude(x) * x / 2.0, rel=1e-13
        )


# --------------------------------------------------------------- integrals


@pytest.mark.parametrize("x", [0.5, 1.5])
def test_discrete_integral_vanishes_for_stable_loop(x):
    r = bode_integral(_inner_dt(x).L)
    assert r.rhp_pole_sum == 0.0
    assert r.limit_term == 0.0
    assert r.predicted == 0.0
    assert abs(r.value) <= 1e-3
    assert r.quadrature_error <= 1e-4


def test_discrete_integral_counts_unstable_open_loop_pole():
    # L = 1.5/(z - 1.5) = 1.5/(u - 0.5): open-loop pole outside the circle,
    # closed loop stable; quadrature must reproduce the 2*pi*ln of the pole
    # radius
    L = RationalTransferFunction(
        Polynomial((1.5,)), Polynomial((1.0, -0.5)), ts=TS
    )
    r = bode_integral(L)
    assert r.rhp_pole_sum == pytest.approx(math.log(1.5), rel=1e-12)
    assert r.predicted == pytest.approx(2.0 * math.pi * math.log(1.5), rel=1e-12)
    assert r.value == pytest.approx(r.predicted, abs=1e-6)


@pytest.mark.parametrize("ts", [None, TS])
def test_integral_counts_open_loop_poles_outside_the_boundary_band(ts):
    # L = 1.5/(p - margin): a pole 5e-8 outside the boundary is unstable for
    # classify_roots and counts; one inside the BOUNDARY_TOL band does not
    for margin, counted in ((5e-8, True), (0.5 * BOUNDARY_TOL, False)):
        L = RationalTransferFunction(Polynomial((1.5,)), Polynomial((1.0, -margin)), ts=ts)
        r = bode_integral(L)
        want = (margin if ts is None else math.log(1.0 + margin)) if counted else 0.0
        assert r.rhp_pole_sum == pytest.approx(want, rel=1e-12, abs=0.0)
        assert r.value == pytest.approx(r.predicted, abs=1e-6)


def test_discrete_integral_rejects_improper_loop():
    # the theorem holds only for a causal sampled loop; quadrature of
    # L = 0.3 z^2/(z + 0.5), written in u = z - 1, gives 1.28 against a
    # prediction of 0
    L = RationalTransferFunction(
        Polynomial((0.3, 0.6, 0.3)), Polynomial((1.0, 1.5)), ts=TS
    )
    with pytest.raises(ValueError, match="open loop must be proper"):
        bode_integral(L)


def test_discrete_integral_rejects_vanishing_limit_term():
    # L = -u/(u + 0.5) at ts 1e-3 is proper and S = (u + 0.5)/0.5 integrates
    # fine, but 1 + L(inf) = 0 leaves ln|1 + L(inf)| undefined
    L = RationalTransferFunction(Polynomial((-1.0, 0.0)), Polynomial((1.0, 0.5)), ts=TS)
    with pytest.raises(ValueError, match=r"limit term undefined: 1 \+ L\(inf\) vanishes"):
        bode_integral(L)


@pytest.mark.parametrize(
    "ls",
    [
        inner_loop_dt(DObParams(alpha=1.0, g_dob=3000.0, ts=TS)),
        outer_loop_ct(DObParams(alpha=0.01, g_dob=50.0), SWEEP_GAINS),
    ],
    ids=["inner-z-x3", "outer-s-alpha0.01"],
)
def test_integral_rejects_unstable_closed_loop(ls):
    # the theorem assumes a stable closed loop: quadrature gives -4.3552
    # (-2 pi ln 2, for the pole at z = -2) against a prediction of 0, and
    # -6.7255 against -4.7124
    assert is_stable(ls.S).stability is Stability.UNSTABLE
    with pytest.raises(ValueError, match=r"^prediction undefined for unstable closed loop$"):
        bode_integral(ls.L)


@pytest.mark.parametrize("x", [2.0, 2.0 + 0.5 * BOUNDARY_TOL])
def test_integral_keeps_marginal_closed_loop(x):
    # a closed-loop pole inside the BOUNDARY_TOL band is Marginal, not
    # Unstable, and the integral is still reported
    ls = _inner_dt(x)
    assert is_stable(ls.S).stability is Stability.MARGINAL
    r = bode_integral(ls.L)
    assert r.predicted == 0.0 and abs(r.value) <= 1e-6


def test_continuous_integral_ideal_velocity():
    for alpha, g in [(1.0, 100.0), (2.0, 500.0)]:
        ls = inner_loop_ct(DObParams(alpha=alpha, g_dob=g))
        r = bode_integral(ls.L)
        assert r.rhp_pole_sum == 0.0
        assert r.limit_term == pytest.approx(alpha * g, rel=1e-12)
        assert r.predicted == pytest.approx(-0.5 * math.pi * alpha * g, rel=1e-12)
        assert r.value == pytest.approx(r.predicted, rel=1e-3)


def test_continuous_integral_finite_gv_vanishes():
    ls = inner_loop_ct(DObParams(alpha=1.0, g_dob=500.0, g_v=1000.0))
    r = bode_integral(ls.L)
    assert r.limit_term == 0.0  # relative degree 2
    assert r.predicted == 0.0
    assert abs(r.value) <= 1e-2


def test_continuous_integral_unstable_pole_dual_route():
    # L = 3/(s-1): predicted pi*1 - (pi/2)*3 = -pi/2
    L = RationalTransferFunction(Polynomial((3.0,)), Polynomial((1.0, -1.0)), ts=None)
    r = bode_integral(L)
    assert r.rhp_pole_sum == pytest.approx(1.0, rel=1e-12)
    assert r.limit_term == pytest.approx(3.0, rel=1e-12)
    assert r.predicted == pytest.approx(-math.pi / 2.0, rel=1e-12)
    assert r.value == pytest.approx(r.predicted, abs=1e-6)


def test_continuous_integral_allpass_is_zero():
    # L = 2/(s-1) gives S = (s-1)/(s+1), an all-pass: ln|S| == 0 pointwise,
    # and the theorem terms cancel exactly
    L = RationalTransferFunction(Polynomial((2.0,)), Polynomial((1.0, -1.0)), ts=None)
    r = bode_integral(L)
    assert r.predicted == 0.0
    assert abs(r.value) <= 1e-8


def test_continuous_integral_rejects_biproper():
    L = RationalTransferFunction(Polynomial((1.0, 1.0)), Polynomial((1.0, 2.0)), ts=None)
    with pytest.raises(ValueError, match="integral diverges"):
        bode_integral(L)


def test_waterbed_tradeoff_grows_with_bandwidth():
    # the continuous deficit -pi*alpha*g/2 deepens as bandwidth rises
    values = []
    for g in (100.0, 250.0, 500.0):
        r = bode_integral(inner_loop_ct(DObParams(alpha=1.0, g_dob=g)).L)
        values.append(r.value)
    assert values[0] > values[1] > values[2]


def _exact_integral(L: RationalTransferFunction) -> float:
    """Exact integral of the factored ln|S| over the computed roots of S.

    In z, Jensen's formula gives the mean of ln|e^jt - r| over the circle as
    ln max(1, |r|); the roots are raw poly_roots of the stored coefficients
    in u = z - 1, plus 1.  In s, ln|(jw - r)/(jw - q)| integrates over the
    whole axis to pi*(|Re r| - |Re q|), and the roots come in conjugate pairs.
    """
    chi = L.den + L.num
    zeros = poly_roots(L.den) if L.den.degree >= 1 else ()
    poles = poly_roots(chi) if chi.degree >= 1 else ()
    if L.is_discrete:
        zeros, poles = ([1.0 + r for r in rs] for rs in (zeros, poles))
        lead_log = math.log(abs(L.den.lead / chi.lead))
        return 2.0 * math.pi * (
            lead_log
            + sum(math.log(max(1.0, abs(r))) for r in zeros)
            - sum(math.log(max(1.0, abs(q))) for q in poles)
        )
    return 0.5 * math.pi * (
        sum(abs(r.real) for r in zeros) - sum(abs(q.real) for q in poles)
    )


def _random_stable_loops(builder: str, count: int, seed: int) -> list[LoopSet]:
    """count closed-loop-stable loops of one builder, log-uniform parameters."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    loops = []
    while len(loops) < count:
        alpha = log_uniform(0.1, 10.0)
        gains = OuterGains(kp=log_uniform(1.0, 1e5), kd=log_uniform(0.01, 1e3))
        if builder.endswith("z"):
            ts = log_uniform(1e-5, 1e-2)
            p = DObParams(alpha, log_uniform(1e-3, 2.0) / (alpha * ts), ts=ts)
        else:
            gv = log_uniform(10.0, 1e5) if rng.uniform() < 0.7 else math.inf
            p = DObParams(alpha, log_uniform(1.0, 1e4), g_v=gv)
        ls = {
            "inner-s": lambda: inner_loop_ct(p),
            "inner-z": lambda: inner_loop_dt(p),
            "outer-s": lambda: outer_loop_ct(p, gains),
            "outer-z": lambda: outer_loop_dt(p, gains),
        }[builder]()
        if is_stable(ls.S).is_stable:
            loops.append(ls)
    return loops


def _assert_within_quadrature_error(ls: LoopSet) -> None:
    r = bode_integral(ls.L)
    exact = _exact_integral(ls.L)
    assert abs(r.value - exact) <= r.quadrature_error, (r, exact)
    if not ls.L.is_discrete:
        # the tail beyond twice the largest root is exact, so only the
        # quadrature's own rounding is left
        scale = max([1.0] + [abs(q) for q in (*ls.S.factors[0], *ls.S.factors[1])])
        assert abs(r.value - exact) <= 1e-13 * scale, (r, exact, scale)


@pytest.mark.parametrize("builder", ["inner-s", "inner-z", "outer-s", "outer-z"])
def test_bode_integral_against_exact_integral_random(builder):
    for ls in _random_stable_loops(builder, 75, seed=2718):
        _assert_within_quadrature_error(ls)


@pytest.mark.parametrize("builder", ["inner-s", "outer-s"])
def test_bode_integral_against_exact_integral_wide_ranges(builder):
    # roots of S up to about 1e8 rad/s: the quadrature error and its ceiling
    # grow with the largest root
    rng = np.random.Generator(np.random.PCG64(7))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    found = 0
    while found < 50:
        p = DObParams(log_uniform(0.01, 100.0), log_uniform(0.1, 1e6), g_v=log_uniform(1.0, 1e6))
        gains = OuterGains(kp=log_uniform(0.1, 1e7), kd=log_uniform(1e-3, 1e4))
        ls = inner_loop_ct(p) if builder == "inner-s" else outer_loop_ct(p, gains)
        if is_stable(ls.S).is_stable:
            found += 1
            _assert_within_quadrature_error(ls)


@pytest.mark.parametrize(
    "ls",
    [
        # g_v over three decades above g_dob spreads the roots of S
        inner_loop_ct(
            DObParams(alpha=1.2941390667632446, g_dob=2.7281241779049954, g_v=9134.917027409185)
        ),
        outer_loop_ct(
            DObParams(alpha=0.5528124867560883, g_dob=1.1420557904803015, g_v=1948.020950930901),
            OuterGains(kp=69.20088351742298, kd=2.233278968941267),
        ),
        *(_inner_dt(x) for x in (1e-9, 1e-6, 2.0 - 1e-6, 2.0 - 1e-8)),
    ],
    ids=["inner-s-gv", "outer-s-gv", "x=1e-9", "x=1e-6", "x=2-1e-6", "x=2-1e-8"],
)
def test_bode_integral_against_exact_integral_hard_cases(ls):
    _assert_within_quadrature_error(ls)


def test_bode_integral_root_near_nyquist_converges_early():
    # at x = 2 - 1e-6 the root of S lies 1e-6 inside z = -1; measured from
    # z = 1, u's real part rounds to ulp(2) there and the piece beside the
    # root ran through level 8 (2 048 evaluations in all)
    r = bode_integral(_inner_dt(2.0 - 1e-6).L)
    assert r.evaluations <= 600
    assert abs(r.value - r.predicted) <= r.quadrature_error


@pytest.mark.parametrize("ls", [_inner_dt(0.5), inner_loop_ct(DObParams(1.0, 500.0, g_v=2e3))],
                         ids=["z", "s"])
def test_bode_integral_refuses_nan_error(monkeypatch, ls):
    # NaN compares false with the ceiling, so it must not pass for converged
    monkeypatch.setattr(analysis, "_integrate_log_mag", lambda *args: (0.0, math.nan, 1))
    with pytest.raises(RuntimeError, match="quadrature did not converge"):
        bode_integral(ls.L)


def _cuts(roots, discrete):
    """The cuts bode_integral puts at each root's position and its distance either side."""
    return [x for p, d in _contour_positions(roots, discrete) for x in (p - d, p, p + d)]


@pytest.mark.parametrize(
    "roots, discrete, b, exact",
    [
        # int_0^1 ln x dx, a log singularity at the lower end of the range
        ((0j,), False, 1.0, -1.0),
        # int_0^pi ln|e^jt - 1| and ln|e^jt + 1|: a root on the contour at
        # u = 0, the lower end, and at u = -2, the upper end
        ((0j,), True, math.pi, 0.0),
        ((-2 + 0j,), True, math.pi, 0.0),
        # int_0^pi ln|e^jt - r| = pi ln max(1, |r|) for real r (Jensen)
        *(
            ((complex(r - 1.0),), True, math.pi, math.pi * math.log(max(1.0, abs(r))))
            for r in (0.5, -0.5, 1.0 - 1e-9, 1.0 + 1e-9, -1.0 + 1e-9, -1.0 - 1e-9, 3.0, -7.0)
        ),
    ],
    ids=["ln-x", "root-at-0", "root-at-pi"]
    + [f"r={r}" for r in ("0.5", "-0.5", "1-1e-9", "1+1e-9", "-1+1e-9", "-1-1e-9", "3", "-7")],
)
def test_integrate_log_mag_against_closed_forms(roots, discrete, b, exact):
    lo, hi = _pieces(0.0, b, _cuts(roots, discrete))
    value, err, evaluations = _integrate_log_mag(0.0, roots, (), discrete, lo, hi)
    assert abs(value - exact) <= err <= 1e-13, (value, err)
    assert 0 < evaluations <= 1639 * len(lo)


def _reference_levels() -> list:
    """(step h, upper-end mask, signed offset, weight) of the nodes new at each level 3..8."""
    levels = []
    for k in range(3, 9):
        j = np.arange(-int(3.2 * 2**k), int(3.2 * 2**k) + 1)
        t = (j if k == 3 else j[j % 2 == 1]) / 2.0**k
        u = 0.5 * math.pi * np.sinh(t)
        dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        weight = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        levels.append((2.0**-k, t > 0.0, np.where(t > 0.0, -dist, dist), weight))
    return levels


def _integrate_log_mag_per_level(lead_log, plus_roots, minus_roots, discrete, lo, hi):
    """_integrate_log_mag evaluated one level per pass: its reference."""
    levels = _reference_levels()
    half = 0.5 * (hi - lo)
    total = err = est = size = 0.0
    evaluations = 0
    for level, (h, upper, offset, weight) in enumerate(levels):
        end = np.where(upper, hi[:, None], lo[:, None])
        step = half[:, None] * offset
        x = end + step
        if discrete:
            rest = (math.pi - end) - step
            near = rest < 0.5 * math.pi
            re = np.where(near, 2.0 * np.sin(0.5 * rest) ** 2, -2.0 * np.sin(0.5 * x) ** 2)
            p, shift = re + 1j * np.sin(np.minimum(x, rest)), np.where(near, 2.0, 0.0)
        else:
            p, shift = 1j * x, 0.0
        f = np.full(x.shape, lead_log)
        mag = np.full(x.shape, abs(lead_log) + 1.0)
        evaluations += x.size
        with np.errstate(over="ignore", invalid="ignore"):
            for roots, sign in ((plus_roots, 1.0), (minus_roots, -1.0)):
                for r in roots:
                    term = np.log(np.maximum(np.abs(p - (r + shift)), 1e-300))
                    f += sign * term
                    mag += np.abs(term)
            prev, est, size = est, h * (f @ weight) + 0.5 * est, h * (mag @ weight) + 0.5 * size
            if level == 0:
                continue
            diff = np.abs(est - prev)
            floor = 32.0 * math.ulp(1.0) * size
            done = (diff <= floor) | (level == len(levels) - 1)
            total += float(np.sum(half[done] * est[done]))
            err += float(np.sum(half[done] * (diff[done] + floor[done])))
        lo, hi, half, est, size = (v[~done] for v in (lo, hi, half, est, size))
        if not lo.size:
            break
    return total, err, evaluations


@pytest.mark.parametrize("builder", ["inner-s", "inner-z", "outer-s", "outer-z"])
def test_integrate_log_mag_is_bitwise_its_per_level_reference(monkeypatch, builder):
    # levels 3 and 4 share one array pass; (value, error, evaluations) of
    # every call bode_integral makes stay bitwise those of one pass per level
    calls = []

    def compared(*args):
        got, want = _integrate_log_mag(*args), _integrate_log_mag_per_level(*args)
        calls.append([(value.hex(), error.hex(), n) for value, error, n in (got, want)])
        return got

    monkeypatch.setattr(analysis, "_integrate_log_mag", compared)
    for ls in _random_stable_loops(builder, 40, seed=83):
        bode_integral(ls.L)
    assert len(calls) == 40
    assert all(got == want for got, want in calls)


def test_bode_integral_counts_its_evaluations():
    # each piece stops by level 8, 1639 nodes
    for ls in _random_stable_loops("outer-z", 5, seed=5) + _random_stable_loops("outer-s", 5, 5):
        discrete = ls.L.is_discrete
        roots = (*ls.S.factors[0], *ls.S.factors[1])
        end = math.pi if discrete else 2.0 * max([1.0] + [abs(q) for q in roots])
        pieces = len(_pieces(0.0, end, _cuts(roots, discrete))[0])
        assert 0 < bode_integral(ls.L).evaluations <= 1639 * pieces


@pytest.mark.parametrize("builder", ["inner-s", "outer-s"])
def test_continuous_factors_are_conjugate_symmetric(builder):
    # the closed-form tail drops each root's b*(ln c - 1 - ln inf), which
    # cancels only over exact conjugate pairs
    for ls in _random_stable_loops(builder, 250, seed=31):
        for roots in ls.S.factors:
            assert sorted(roots, key=lambda r: (r.real, r.imag)) == sorted(
                (r.conjugate() for r in roots), key=lambda r: (r.real, r.imag)
            ), roots


# ------------------------------------------------------ peaks against oracles


def _mp_magnitude(tf: RationalTransferFunction, omega: float):
    """50-digit |tf| at omega, from the stored coefficients (in u = z - 1 if sampled)."""
    with mpmath.workdps(50):
        w = mpmath.mpf(omega)
        p = mpmath.mpc(0, w) if tf.ts is None else mpmath.expj(w * mpmath.mpf(tf.ts)) - 1
        num = mpmath.polyval([mpmath.mpf(c) for c in tf.num.coeffs], p)
        return abs(num / mpmath.polyval([mpmath.mpf(c) for c in tf.den.coeffs], p))


def _mp_golden_max(f, lo: float, hi: float):
    """Maximizer of a unimodal f on [lo, hi] by 120 golden-section steps."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        invphi = (mpmath.sqrt(5) - 1) / 2
        for _ in range(120):
            x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            if f(x1) >= f(x2):
                hi = x2
            else:
                lo = x1
        return (lo + hi) / 2


def _dense_factored_max(tf: RationalTransferFunction) -> float:
    """Largest |tf| on a dense root-agnostic grid, factored over 30-digit roots.

    In z the grid is uniform and geometric in the angle, and each factor is
    (e^jt - 1) - r for a root r of the stored coefficients in u = z - 1, so
    roots clustered at z = 1 keep their distances.
    In s it is DC plus a geometric grid from 1e-4 of the smallest root
    magnitude to 1e4 times the largest.
    """
    with mpmath.workdps(30):

        def roots(p):
            if p.degree < 1:
                return np.zeros(0, dtype=complex)
            # Durand-Kerner from numpy's roots, turned off the real axis so
            # that real starts can become a complex pair; it raises unless
            # converged
            start = [mpmath.mpc(r * (1 + 1e-6j)) for r in np.roots(p.coeffs)]
            rs = mpmath.polyroots(
                [mpmath.mpf(c) for c in p.coeffs], maxsteps=100, extraprec=100, roots_init=start
            )
            return np.array([complex(r) for r in rs])

        zeros, poles = roots(tf.num), roots(tf.den)
    lead_log = math.log(abs(tf.num.lead / tf.den.lead))
    if tf.ts is None:
        mags = np.abs(np.concatenate([zeros, poles]))
        mags = mags[mags > 0.0]
        pts = 1j * np.concatenate(
            [[0.0], np.geomspace(mags.min() * 1e-4, mags.max() * 1e4, 40001)]
        )
    else:
        th = np.concatenate([np.linspace(0.0, math.pi, 20001), np.geomspace(1e-9, math.pi, 20001)])
        pts = -2.0 * np.sin(0.5 * th) ** 2 + 1j * np.sin(th)

    def total(rs):
        return np.log(np.abs(pts[:, None] - rs[None, :])).sum(axis=1)

    with np.errstate(divide="ignore"):
        return math.exp(float(np.max(lead_log + total(zeros) - total(poles))))


@pytest.mark.parametrize("builder", ["inner-s", "inner-z", "outer-s", "outer-z"])
def test_sensitivity_peak_against_dense_grid_and_mpmath(builder):
    # 25 stable loops give 50 peaks, of S and of T
    for ls in _random_stable_loops(builder, 25, seed=1729):
        for tf in (ls.S, ls.T):
            omega, peak = sensitivity_peak(tf)
            assert peak >= _dense_factored_max(tf) * (1.0 - 1e-9), (tf, omega, peak)
            if math.isfinite(omega):
                want = _mp_magnitude(tf, omega)
                assert abs(peak - want) <= 1e-12 * want, (tf, omega, peak)
            else:
                assert peak == abs(tf.num.lead / tf.den.lead)


def test_continuous_peak_far_beyond_the_roots():
    # |S| peaks at about 17 times the largest root of S: a far end of ten
    # times the largest root missed it and reported (inf, 1.0)
    ls = outer_loop_ct(
        DObParams(alpha=0.45492483763404273, g_dob=798.9754635529805),
        OuterGains(kp=1.0745196447105028, kd=434.8875957723461),
    )
    omega, peak = sensitivity_peak(ls.S)
    largest = max(abs(r) for r in (*ls.S.factors[0], *ls.S.factors[1]))
    assert math.isfinite(omega) and omega > 10.0 * largest, (omega, largest)
    assert abs(peak - _mp_magnitude(ls.S, omega)) <= 1e-12
    assert abs(peak - mpmath.mpf("1.0000056955063127")) <= 1e-12


def test_sensitivity_peak_refines_every_local_maximum():
    # |S| has a maximum of 1.01528 at 1.99576 rad/s and a lower one of
    # 1.01470 at 536 rad/s, whose basin holds the grid's best point;
    # refining that point alone reported (536.158..., 1.0146969452653676)
    p = DObParams(alpha=6.269892581620689, g_dob=36.48570843961356, ts=0.002715414878132935)
    ls = outer_loop_dt(p, OuterGains(kp=1.1982803733761844, kd=1.2923499920001982))
    omega, peak = sensitivity_peak(ls.S)
    want = _mp_magnitude(ls.S, omega)
    assert abs(peak - want) <= 1e-12 * want
    assert abs(omega / _mp_golden_max(lambda w: _mp_magnitude(ls.S, w), 1.0, 3.0) - 1) <= 1e-6
    assert peak >= _dense_factored_max(ls.S) * (1.0 - 1e-9)


def test_sensitivity_peak_narrow_low_frequency_resonance():
    # closed-loop poles at 0.99998 +- 1.2e-4j put a resonance of |S| at
    # 1.9 rad/s, well inside the first 12 rad/s of a uniform grid over
    # [0, pi/ts]; such a grid reported (5496.14, 1.00020)
    p = DObParams(alpha=5.7648265887390435, g_dob=14.23361007584627, ts=6.582776545701536e-05)
    gains = OuterGains(kp=3.4305922100365893, kd=0.5556386927921653)
    ls = outer_loop_dt(p, gains)
    omega, peak = sensitivity_peak(ls.S)

    # the function the search is given: S's stored coefficients
    w_coeffs = _mp_golden_max(lambda w: _mp_magnitude(ls.S, w), 1.0, 3.0)
    assert abs(peak / _mp_magnitude(ls.S, w_coeffs) - 1) <= 1e-9
    assert abs(omega / w_coeffs - 1) <= 1e-6

    # the loop's factored blocks, which S's coefficients in u = z - 1 match
    # to rounding
    with mpmath.workdps(50):
        a, g, ts, kp, kd = (mpmath.mpf(v) for v in (p.alpha, p.g_dob, p.ts, gains.kp, gains.kd))

        def s_blocks(w):
            z = mpmath.expj(w * ts)
            pd = ((kp + kd / ts) * z - kd / ts) / z
            ci = a * ((1 + g * ts) * z - 1) / (z - 1 + a * g * ts)
            plant = ts * ts / 2 * (z + 1) / (z - 1) ** 2
            return abs(1 / (1 + pd * ci * plant))

        w_blocks = _mp_golden_max(s_blocks, 1.0, 3.0)
        assert abs(peak / s_blocks(w_blocks) - 1) <= 1e-6
    assert abs(omega / w_blocks - 1) <= 1e-6


@pytest.mark.parametrize(
    "p, gains, lo, hi",
    [
        (DObParams(alpha=3.277204450776134, g_dob=109.53453596946274, g_v=63411.23272436881),
         OuterGains(kp=0.062187597430507696, kd=4831.108025794936), 200.0, 900.0),
        (DObParams(alpha=0.5851443958269975, g_dob=0.3571931460905942, g_v=107593.57081609155),
         OuterGains(kp=0.016153805223448597, kd=8620.308185070462), 2.0, 10.0),
    ],
    ids=["ulp-apart", "few-ulp-apart"],
)
def test_sensitivity_peak_beside_nearly_equal_roots(p, gains, lo, hi):
    # T has a zero and a pole a few ulp apart (-1.2872326030418627e-05 and
    # -1.2872326030418625e-05 in the first case); their grid anchors were
    # kept an ulp apart, and a maximum bracketed by its twin was reported
    # 8.1e-8 (and 4.3e-8) below the true one
    tf = outer_loop_ct(p, gains).T
    omega, peak = sensitivity_peak(tf)
    w_max = _mp_golden_max(lambda w: _mp_magnitude(tf, w), lo, hi)
    want = _mp_magnitude(tf, w_max)
    assert abs(peak - want) <= 1e-12 * want, (omega, peak, w_max, want)


@pytest.mark.parametrize(
    "p, gains, lo, hi",
    [
        (DObParams(alpha=50.63387825580654, g_dob=33814.03314886575),
         OuterGains(kp=136.16379427698408, kd=471.75916079325486), 3000.0, 6000.0),
        (DObParams(alpha=7.715083435042701, g_dob=125.24081007170942, g_v=603.2611352417842),
         OuterGains(kp=43.58719360220679, kd=7102.640476468553), 700.0, 1000.0),
    ],
    ids=["ideal-velocity", "finite-gv"],
)
def test_sensitivity_peak_where_a_bracket_ends_on_a_near_twin_anchor(p, gains, lo, hi):
    # |T| peaks at 1.00026198336589 near 4298.13 rad/s (and 1.00222206492833
    # near 832.48 rad/s); a grid that dropped one of two anchors within 1e-12
    # of each other closed the maximum's bracket on the other, and the search
    # reported (4731.81, 1.0002618707297326) and (804.36, 1.0022216443271972)
    tf = outer_loop_ct(p, gains).T
    omega, peak = sensitivity_peak(tf)
    want = _mp_magnitude(tf, _mp_golden_max(lambda w: _mp_magnitude(tf, w), lo, hi))
    assert peak >= want * (1 - mpmath.mpf(1e-12)), (omega, peak, want)
    assert abs(peak - _mp_magnitude(tf, omega)) <= 1e-12 * peak, (omega, peak)
    assert type(omega) is float and type(peak) is float


def _mp_blocks_s(p: DObParams, gains: OuterGains):
    """30-digit |S| of outer_loop_dt at omega, from the printed factored z blocks."""

    def s_mag(w):
        with mpmath.workdps(30):
            a, g, ts, kp, kd = (mpmath.mpf(v) for v in (p.alpha, p.g_dob, p.ts, gains.kp, gains.kd))
            z = mpmath.expj(mpmath.mpf(w) * ts)
            pd = ((kp + kd / ts) * z - kd / ts) / z
            ci = a * ((1 + g * ts) * z - 1) / (z - 1 + a * g * ts)
            plant = ts * ts / 2 * (z + 1) / (z - 1) ** 2
            return abs(1 / (1 + pd * ci * plant))

    return s_mag


def test_outer_dt_peak_against_factored_blocks():
    # stable outer loops, log-uniform over alpha 0.05..5, g_dob 10..1e4,
    # ts 1e-5..1e-2, kp 1..1e5 and kd 0.1..1e3.  Products of the blocks in z
    # split L's double pole at z = 1 and moved these peaks by up to 1.5e-6;
    # in u the worst is 3.8e-15
    rng = np.random.Generator(np.random.PCG64(11))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    found = 0
    while found < 40:
        p = DObParams(log_uniform(0.05, 5.0), log_uniform(10.0, 1e4), ts=log_uniform(1e-5, 1e-2))
        gains = OuterGains(kp=log_uniform(1.0, 1e5), kd=log_uniform(0.1, 1e3))
        ls = outer_loop_dt(p, gains)
        if not is_stable(ls.S).is_stable:
            continue
        found += 1
        omega, peak = sensitivity_peak(ls.S)
        s_mag = _mp_blocks_s(p, gains)
        want = s_mag(omega)
        assert abs(peak - want) <= 1e-13 * want, (p, gains, peak, want)
        _, (s_val,), _ = ls.st_response([omega])
        assert abs(abs(s_val) - want) <= 1e-13 * want, (p, gains, s_val, want)
        # and no larger value of the blocks' |S| next to it
        lo, hi = omega * (1.0 - 1e-3), min(omega * (1.0 + 1e-3), ls.L.nyquist)
        assert s_mag(_mp_golden_max(s_mag, lo, hi)) <= peak * (1.0 + 1e-13)


@pytest.mark.parametrize("x", [1e-9, 1e-6])
def test_inner_dt_closed_forms_at_small_x(x):
    # in z the stored pole was fl(x - 1), off u = -x by 2.8e-8 relative at
    # x = 1e-9
    ls = _inner_dt(x)
    x = ls.L.num.coeffs[0]
    assert ls.S.den.coeffs == (1.0, x)
    assert ls.S.factors[1] == (complex(-x),)
    assert ls.S.poles() == (1.0 - x,)
    nyq = math.pi / TS
    if x > BOUNDARY_TOL:  # at x = 1e-9 the pole is on the boundary band: no peak
        assert sensitivity_peak(ls.S) == (nyq, pytest.approx(nyquist_s_magnitude(x), rel=1e-15))
    _, (s_val,), (t_val,) = ls.st_response([nyq])
    assert abs(abs(s_val) - nyquist_s_magnitude(x)) <= 1e-15 * abs(s_val)
    assert abs(abs(t_val) - nyquist_t_magnitude(x)) <= 1e-15 * abs(t_val)


def _recorded(monkeypatch, module, name: str) -> list:
    """The arguments of every later call of module.name."""
    calls = []
    fn = getattr(module, name)

    def recorded(arg):
        calls.append(arg)
        return fn(arg)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_one_solve_per_polynomial(monkeypatch):
    # the verdict, the peak and a contour value all read the same S.factors;
    # S.num is L.den, whose roots the blocks carry, so only chi is solved
    calls = _recorded(monkeypatch, lti, "poly_roots")
    ls = outer_loop_dt(DObParams(alpha=1.0, g_dob=500.0, ts=TS), SWEEP_GAINS)
    S = ls.S
    assert is_stable(S).is_stable
    sensitivity_peak(S)
    ls.st_response([100.0])
    assert calls == [S.den]

    # a bare verdict solves the denominator alone
    calls.clear()
    S = outer_loop_dt(DObParams(alpha=1.0, g_dob=500.0, ts=TS), SWEEP_GAINS).S
    assert is_stable(S).is_stable
    assert calls == [S.den]

    # L, S and T of one LoopSet hold three polynomial objects, of which only
    # chi is not a block product, and the LoopSet that bode_integral builds
    # again from L shares L's cached chi
    calls.clear()
    ls = outer_loop_dt(DObParams(alpha=1.0, g_dob=500.0, ts=TS), SWEEP_GAINS)
    sensitivity_peak(ls.S)
    sensitivity_peak(ls.T)
    assert ls.L.factors == (ls.T.factors[0], ls.S.factors[0])
    ls.st_response([1.0, 100.0])
    bode_integral(ls.L)
    assert [id(p) for p in calls] == [id(ls.L.chi)]
    assert ls.S.den is ls.T.den is ls.L.chi


def test_design_point_makes_six_root_solves(monkeypatch):
    # a library-study design point: four peaks, three Bode integrals, the
    # constraints, the outer-gain audit, a Tustin verdict, an alpha sweep and
    # its crossing.  The open-loop polynomials carry their roots, so only the
    # six closed-loop chi are solved: the four loops', the audit's and the
    # Tustin loop's; the sweep and the crossing solve bare pencil rows, not
    # polynomial objects
    calls = _recorded(monkeypatch, lti, "poly_roots")
    inner_z = _inner_dt(1.2)
    outer_z = _dt_alpha_build(0.9)
    outer_s = outer_loop_ct(DObParams(alpha=1.3, g_dob=750.0, g_v=3000.0), SWEEP_GAINS)
    inner_s = inner_loop_ct(DObParams(alpha=0.8, g_dob=400.0, g_v=2000.0))
    for tf in (inner_z.S, inner_z.T, outer_z.S, outer_s.S):
        sensitivity_peak(tf)
    for ls in (inner_z, inner_s, outer_z):
        bode_integral(ls.L)
    check_constraints(DObParams(alpha=1.2, g_dob=600.0, ts=TS), SWEEP_GAINS, PeakSpec(0.5, 0.5))
    audit_outer_gain_condition(DObParams(alpha=1.2, g_dob=600.0), SWEEP_GAINS)
    inner_ct = inner_loop_ct(DObParams(alpha=1.0, g_dob=2000.0, g_v=1000.0))
    is_stable(LoopSet.from_open_loop(substitute(inner_ct.L, TS, DiscretizationRule.TUSTIN)).S)
    values = np.linspace(1.1, 4.9, 200)
    flags = [row.stable for row in root_locus(_dt_alpha_build, values)]
    k = flags.index(False)
    critical_parameter(_dt_alpha_build, values[k - 1], values[k])
    assert len(calls) == 6


def test_outer_dt_nyquist_zero_is_exact():
    # the ZoH zero of the sampled outer loop is z = -1 exactly, so T vanishes
    # at Nyquist; the ZoH block carries it as u = -2 and the products keep it
    for ls in _random_stable_loops("outer-z", 40, seed=19):
        assert -2.0 in ls.T.factors[0]
        assert ls.st_response([ls.L.nyquist])[2][0] == 0.0


# -------------------------------------------------------------- constraints


def test_peak_spec_validation():
    with pytest.raises(ValueError, match="gamma_s"):
        PeakSpec(gamma_s=0.0, gamma_t=0.5)
    with pytest.raises(ValueError, match="gamma_s"):
        PeakSpec(gamma_s=1.0, gamma_t=0.5)
    with pytest.raises(ValueError, match="gamma_t"):
        PeakSpec(gamma_s=0.5, gamma_t=-0.1)


def test_check_constraints_strictness_at_boundaries():
    spec = PeakSpec(gamma_s=0.5, gamma_t=0.5)
    ts = 1e-3

    def report(x):
        return check_constraints(
            DObParams(alpha=1.0, g_dob=x / ts, ts=ts), None, spec
        )

    at_two = report(2.0)
    assert not at_two.inner_stable  # strict: marginal is not stable
    assert at_two.margins["inner"] == 0.0

    at_one = report(1.0)
    assert at_one.no_ringing  # boundary pole at 0 does not ring
    assert at_one.margins["ringing"] == 0.0

    # s budget 2(1-0.5) = 1, t budget 2/1.5
    at_s = report(1.0)
    assert at_s.s_peak_ok
    assert at_s.margins["s_peak"] == 0.0
    at_t = report(2.0 / 1.5)
    assert at_t.t_peak_ok
    assert abs(at_t.margins["t_peak"]) < 1e-15


@settings(max_examples=300, deadline=None)
@given(
    center=st.sampled_from([0.0, 1e-9, 2.0 - 1e-9, 2.0 - 1e-12, 2.0]),
    ulps=st.integers(-8, 8),
    alpha=st.floats(0.5, 2.0),
    ts=st.sampled_from([1e-3, 1e-4]),
)
def test_inner_stable_is_the_sampled_inner_loop_verdict(center, ulps, alpha, ts):
    # a few ulp around x = 0 and x = 2 and around the edges of the
    # BOUNDARY_TOL band, where two definitions of the boundary would part
    x = center + ulps * math.ulp(center)
    assume(x > 0.0)
    p = DObParams(alpha=alpha, g_dob=x / (alpha * ts), ts=ts)
    report = check_constraints(p, None, PeakSpec(gamma_s=0.5, gamma_t=0.5))
    assert report.inner_stable == is_stable(inner_loop_dt(p).S).is_stable


def test_check_constraints_margin_consistency_random():
    rng = np.random.Generator(np.random.PCG64(57))
    for _ in range(300):
        spec = PeakSpec(
            gamma_s=float(rng.uniform(0.05, 0.95)),
            gamma_t=float(rng.uniform(0.05, 0.95)),
        )
        p = DObParams(
            alpha=float(10.0 ** rng.uniform(-1, 1)),
            g_dob=float(10.0 ** rng.uniform(1, 3.5)),
            ts=1e-3,
        )
        rep = check_constraints(p, None, spec)
        assert rep.inner_stable == (rep.margins["inner"] > 0.0)
        assert rep.no_ringing == (rep.margins["ringing"] >= 0.0)
        assert rep.s_peak_ok == (rep.margins["s_peak"] >= 0.0)
        assert rep.t_peak_ok == (rep.margins["t_peak"] >= 0.0)
        # both peak budgets imply inner-loop stability
        if rep.s_peak_ok or rep.t_peak_ok:
            assert rep.inner_stable
        assert rep.outer_gain_ok is None
        assert set(rep.margins) == {"inner", "ringing", "s_peak", "t_peak"}


def test_check_constraints_outer_gain_row():
    spec = PeakSpec(gamma_s=0.5, gamma_t=0.5)
    p = DObParams(alpha=0.01, g_dob=750.0, ts=1e-3)
    rep = check_constraints(p, SWEEP_GAINS, spec)
    assert rep.outer_gain_ok is True
    assert "outer_gain" in rep.margins
    assert rep.margins["outer_gain"] > 0.0


def test_max_bandwidth_reference_value():
    spec = PeakSpec(gamma_s=0.5, gamma_t=0.5)
    # min(2*(1-0.5), 2/1.5) = 1 -> 1/(1*1e-3)
    assert max_bandwidth(1.0, 1e-3, spec) == pytest.approx(1000.0, rel=1e-15)
    assert max_bandwidth(2.0, 1e-3, spec) == pytest.approx(500.0, rel=1e-15)


def test_max_bandwidth_back_substitution():
    rng = np.random.Generator(np.random.PCG64(63))
    for _ in range(100):
        spec = PeakSpec(
            gamma_s=float(rng.uniform(0.05, 0.95)),
            gamma_t=float(rng.uniform(0.05, 0.95)),
        )
        alpha = float(10.0 ** rng.uniform(-1, 1))
        ts = float(rng.choice([1e-4, 1e-3]))
        g = max_bandwidth(alpha, ts, spec)
        p = DObParams(alpha=alpha, g_dob=g, ts=ts)
        rep = check_constraints(p, None, spec)
        m_s, m_t = rep.margins["s_peak"], rep.margins["t_peak"]
        # the binding budget sits on its boundary; neither is violated by
        # more than roundoff
        assert m_s >= -1e-12 and m_t >= -1e-12
        assert min(abs(m_s), abs(m_t)) <= 1e-12
        assert rep.inner_stable


def test_max_bandwidth_validation():
    spec = PeakSpec(gamma_s=0.5, gamma_t=0.5)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            max_bandwidth(alpha, 1e-3, spec)
    for ts in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="ts"):
            max_bandwidth(1.0, ts, spec)


# -------------------------------------------------------------- gain audit


def test_outer_gain_audit_agrees_in_design_region():
    audit = audit_outer_gain_condition(
        DObParams(alpha=0.01, g_dob=750.0), SWEEP_GAINS
    )
    assert isinstance(audit, OuterGainAudit)
    assert audit.predicate_ok and audit.root_stable and audit.agree
    assert audit.margin > 0.0


def test_outer_gain_audit_flags_optimistic_predicate():
    # the printed inequality keeps much smaller alpha than the roots allow;
    # in that window the audit must report the disagreement
    audit = audit_outer_gain_condition(
        DObParams(alpha=1e-3, g_dob=750.0), SWEEP_GAINS
    )
    assert audit.predicate_ok  # 1/alpha = 1000 clears the printed bound
    assert not audit.root_stable  # the characteristic roots say otherwise
    assert not audit.agree


def test_outer_gain_audit_margin_sign_matches_predicate():
    spec = PeakSpec(gamma_s=0.5, gamma_t=0.5)
    cases = [(alpha, SWEEP_GAINS) for alpha in (1e-5, 1e-3, 0.1, 1.0)]
    # kd/kp overflows, so the right-hand side of the inequality is infinite
    cases.append((1.0, OuterGains(kp=1e-300, kd=1e300)))
    for alpha, gains in cases:
        p = DObParams(alpha=alpha, g_dob=750.0, ts=1e-3)
        audit = audit_outer_gain_condition(p, gains)
        report = check_constraints(p, gains, spec)
        assert audit.predicate_ok == (audit.margin > 0.0)
        assert report.margins["outer_gain"] == audit.margin
        assert report.outer_gain_ok == audit.predicate_ok


# -------------------------------------------------------------- root locus


def _dt_alpha_build(alpha: float) -> LoopSet:
    return outer_loop_dt(DObParams(alpha=alpha, g_dob=750.0, ts=1e-3), SWEEP_GAINS)


def test_root_locus_residual_invariant():
    values = np.linspace(1.0, 5.0, 41)
    table = root_locus(_dt_alpha_build, values)
    assert len(table) == 41
    for row in table:
        # chi in u = z - 1, the roots in z
        chi = _dt_alpha_build(row.param).S.den
        bound = 1e-8 * chi.max_abs
        for r in row.roots:
            residual = np.polyval(chi.coeffs, r - 1.0)
            assert abs(residual) <= bound * max(1.0, abs(r - 1.0)) ** chi.degree


def test_root_locus_single_flip_over_alpha():
    table = root_locus(_dt_alpha_build, np.linspace(1.0, 5.0, 41))
    assert table.rows[0].stable
    assert not table.rows[-1].stable
    assert sum(r0.stable != r1.stable for r0, r1 in zip(table.rows, table.rows[1:])) == 1


@pytest.mark.parametrize("values", [np.linspace(1.0, 5.0, 9), [1.0, 5.0]], ids=["pencil", "two-values"])
def test_root_locus_rows_are_named_tuples(values):
    table = root_locus(_dt_alpha_build, values)
    row = table.rows[0]
    assert RootLocusRow._fields == ("param", "roots", "stable")
    assert type(row.param) is float and type(row.stable) is bool
    assert type(row.roots) is tuple and all(type(r) is complex for r in row.roots)
    with pytest.raises(AttributeError):
        row.stable = not row.stable
    for v, row in zip(values, table):
        ls = _dt_alpha_build(float(v))
        flag = classify_roots(ls.S.poles(), ls.L.ts).is_stable
        assert row == (float(v), row.roots, flag) == RootLocusRow(*row)
        assert np.allclose(np.sort_complex(row.roots), np.sort_complex(ls.S.poles()), rtol=1e-9)


def _dt_gdob_build(g_dob: float) -> LoopSet:
    return outer_loop_dt(DObParams(alpha=0.01, g_dob=g_dob, ts=1e-3), SWEEP_GAINS)


class _Counted:
    """A builder that counts its calls."""

    def __init__(self, build):
        self.build = build
        self.calls = 0

    def __call__(self, v: float) -> LoopSet:
        self.calls += 1
        return self.build(v)


@pytest.mark.parametrize(
    "build, values",
    [(_dt_alpha_build, np.linspace(1.0, 5.0, 2000)), (_dt_gdob_build, np.logspace(2.0, 6.0, 2000))],
    ids=["alpha-linear", "gdob-log"],
)
def test_root_locus_stacked_solve_bitwise_equals_per_point(build, values):
    def companion_roots(p: Polynomial):
        # the per-point solve: one companion matrix, one eigvals call
        a = np.asarray(p.coeffs) / p.coeffs[0]
        comp = np.zeros((p.degree, p.degree))
        comp[0, :] = -a[1:]
        comp[1:, :-1] = np.eye(p.degree - 1)
        return np.sort_complex(np.linalg.eigvals(comp))

    a, b, ts = analysis._affine_pencil(build, float(values[0]), float(values[-1]))
    table = root_locus(build, values)
    assert [row.param for row in table] == [float(v) for v in values]
    for row in table:
        # chi is solved in u = z - 1 and its roots are reported as z = 1 + u
        chi = Polynomial(tuple(a + row.param * b))
        roots = 1.0 + np.array(poly_roots(chi))
        # same values, same order, same signs of zero
        got = np.array(row.roots).tobytes()
        assert got == roots.tobytes()
        assert got == (1.0 + companion_roots(chi)).tobytes()
        assert row.stable == classify_roots(tuple(roots), ts).is_stable
    # both sweeps cross the stability boundary
    assert sum(r0.stable != r1.stable for r0, r1 in zip(table.rows, table.rows[1:])) >= 1


def _exact_outer_dt_roots(alpha: float, g_dob: float, ts: float = 1e-3):
    """50-digit roots of chi for outer_loop_dt, from its factored blocks.

    chi(z) = z*(z - 1 + x)*(z - 1)^2
             + (kp + kd/ts - kd/(ts*z))*z * alpha*((1 + g*ts)*z - 1)
               * (ts^2/2)*(z + 1),   x = alpha*g*ts.
    """
    with mpmath.workdps(50):
        a, g, t = (mpmath.mpf(v) for v in (alpha, g_dob, ts))
        kp, kd = mpmath.mpf(SWEEP_GAINS.kp), mpmath.mpf(SWEEP_GAINS.kd)

        def mul(p, q):
            out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
            for i, u in enumerate(p):
                for j, w in enumerate(q):
                    out[i + j] += u * w
            return out

        den = mul(mul([1, 0], [1, a * g * t - 1]), [1, -2, 1])
        num = mul(mul([kp + kd / t, -kd / t], [a * (1 + g * t), -a]), [t * t / 2, t * t / 2])
        chi = [d + n for d, n in zip(den, [0] + num)]
        return [complex(r) for r in mpmath.polyroots(chi, maxsteps=200, extraprec=200)]


@pytest.mark.parametrize(
    "build, exact, values",
    [
        (_dt_alpha_build, lambda v: _exact_outer_dt_roots(v, 750.0),
         np.linspace(1.0, 5.0, 2000)),
        (_dt_gdob_build, lambda v: _exact_outer_dt_roots(0.01, v),
         np.logspace(2.0, 6.0, 2000)),
    ],
    ids=["alpha-linear", "gdob-log"],
)
def test_root_locus_affine_pencil_against_mpmath(build, exact, values):
    counted = _Counted(build)
    table = root_locus(counted, values)
    # first, middle and last value only
    assert counted.calls == 3
    assert [row.param for row in table] == [float(v) for v in values]
    for row in table:
        loops = build(row.param)
        verdict = classify_roots(loops.S.poles(), loops.L.ts)
        assert row.stable == verdict.is_stable
    assert sum(r0.stable != r1.stable for r0, r1 in zip(table.rows, table.rows[1:])) >= 1
    # a 50-digit oracle on every tenth row; measured worst 8.2e-12 (gdob-log
    # near 103, where the per-point path is itself 5.4e-12 away)
    for row in table.rows[::10]:
        want = exact(row.param)
        got = list(row.roots)
        scale = max(abs(r) for r in want)
        for r in want:
            j = min(range(len(got)), key=lambda k: abs(got[k] - r))
            assert abs(got.pop(j) - r) <= 1e-11 * scale, row.param


def _pencil_loop(v: float, ts: float | None) -> LoopSet:
    """chi = z^2 - z + v = u^2 + u + v, whose complex z roots have |z|^2 = v, or chi = s + v."""
    if ts is None:
        L = RationalTransferFunction(Polynomial((v,)), Polynomial((1.0, 0.0)))
    else:
        L = RationalTransferFunction(Polynomial((v,)), Polynomial((1.0, 1.0, 0.0)), ts=ts)
    return LoopSet.from_open_loop(L)


@pytest.mark.parametrize(
    "ts, center",
    [
        (1e-3, (1.0 - BOUNDARY_TOL) ** 2),
        (1e-3, (1.0 + BOUNDARY_TOL) ** 2),
        (None, BOUNDARY_TOL),
    ],
    ids=["z-stable-edge", "z-unstable-edge", "s-stable-edge"],
)
def test_root_locus_flags_at_the_boundary_band_edges(ts, center):
    # 401 values within 200 ulp of the value that puts the worst root on a
    # band edge; the flags of the one array pass must be the scalar verdicts
    values = [center + k * math.ulp(center) for k in range(-200, 201)]
    counted = _Counted(lambda v: _pencil_loop(v, ts))
    table = root_locus(counted, values)
    assert counted.calls == 3
    flags = [row.stable for row in table]
    assert flags == [classify_roots(row.roots, ts).is_stable for row in table]
    if center < 1.0:
        # the stable edge is crossed inside the sweep
        assert any(flags) and not all(flags)


def test_root_locus_flags_equal_classify_roots_on_seeded_pencils():
    rng = np.random.Generator(np.random.PCG64(31))
    flips = 0
    for _ in range(20):
        g_dob, ts = float(10 ** rng.uniform(1, 4)), float(10 ** rng.uniform(-5, -2))
        gains = OuterGains(kp=float(10 ** rng.uniform(0, 5)), kd=float(10 ** rng.uniform(-2, 3)))
        g_v = float(10 ** rng.uniform(1, 5))

        def build_z(alpha):
            return outer_loop_dt(DObParams(alpha=alpha, g_dob=g_dob, ts=ts), gains)

        def build_s(alpha):
            return outer_loop_ct(DObParams(alpha=alpha, g_dob=g_dob, g_v=g_v), gains)

        for build in (build_z, build_s):
            table = root_locus(build, np.geomspace(0.05, 20.0, 300))
            ts_row = build(1.0).L.ts
            for row in table:
                assert row.stable == classify_roots(row.roots, ts_row).is_stable
            flips += sum(r0.stable != r1.stable for r0, r1 in zip(table.rows, table.rows[1:]))
    assert flips >= 20  # most sweeps cross the boundary


def test_root_locus_annotates_failures():
    def build(v: float) -> LoopSet:
        if v > 3.0:
            # constant loop with 1 + L identically zero
            return LoopSet.from_open_loop(
                RationalTransferFunction(
                    Polynomial((-1.0,)), Polynomial((1.0,)), ts=None
                )
            )
        return inner_loop_ct(DObParams(alpha=1.0, g_dob=100.0))

    with pytest.raises(ValueError, match=r"root locus failed at parameter 4\.0"):
        root_locus(build, [1.0, 4.0])

    def static_build(v: float) -> LoopSet:
        if v > 3.0:
            # a static gain loop builds, but 1 + L has no roots to solve for
            return LoopSet.from_open_loop(
                RationalTransferFunction(
                    Polynomial((1.0,)), Polynomial((1.0,)), ts=None
                )
            )
        return inner_loop_ct(DObParams(alpha=1.0, g_dob=100.0))

    # the probes are 1, 6 and their midpoint 3.5, in that order
    with pytest.raises(ValueError, match=r"degrees \(1, 0, 0\) at the probes \(1\.0, 6\.0, 3\.5\)"):
        root_locus(static_build, [1.0, 2.0, 5.0, 6.0])

    # the largest value, a probe, cannot be built: 1e300 * 1e10 overflows
    def huge_build(v: float) -> LoopSet:
        return _pencil_loop(1e300 * v, 1e-3)

    with pytest.raises(ValueError, match=r"parameter 10000000000\.0: .* must be finite"):
        root_locus(huge_build, [1.0, 1e10, 2.0, 3.0, 4.0])


def test_root_locus_reports_the_first_failure_in_sweep_order():
    # chi's constant term 1e308*(v - 1) is a + v*b with a = -1e308 and
    # b = 1e308; every probe builds, but v*b overflows above 1.797, so the
    # rows for 1.9 and 2 are not finite, and 1.9 comes first
    def build(v: float) -> LoopSet:
        return _pencil_loop(1e308 * (v - 1.0), 1e-3)

    with pytest.raises(ValueError, match=r"failed at parameter 1\.9: .* must be finite"):
        root_locus(build, [1.0, 1.5, 1.9, 2.0])
    assert len(root_locus(build, [1.0, 1.5, 1.75])) == 3


def test_root_locus_refuses_a_pencil_that_overflows_between_probes():
    # the probes -1.5 and 1.5 give chi constant terms of -+1.5e308, whose
    # difference overflows: the pencil is refused, with no numpy warning
    def build(v: float) -> LoopSet:
        return _pencil_loop(1e308 * v, 1e-3)

    with pytest.raises(ValueError, match=r"not a pencil: chi at the midpoint 0\.0 is off a \+ v\*b by nan"):
        root_locus(build, [0.5, -1.5, 1.5])


def test_root_locus_requires_values():
    with pytest.raises(ValueError, match="at least one"):
        root_locus(_dt_alpha_build, [])


# ------------------------------------------------------ critical parameter


def _bisect_per_point(build, lo: float, hi: float) -> float:
    """Reference bisection: one build and one root solve per verdict."""

    def stable_at(v: float) -> bool:
        loops = build(v)
        return classify_roots(loops.S.poles(), loops.L.ts).is_stable

    s_lo = stable_at(lo)
    while hi - lo > 1e-6 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if stable_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_critical_parameter_inner_loop():
    g, ts = 1000.0, 1e-3

    def build(alpha: float) -> LoopSet:
        return inner_loop_dt(DObParams(alpha=alpha, g_dob=g, ts=ts))

    # boundary at alpha*g*ts = 2
    crit = critical_parameter(build, 1.5, 3.0)
    assert crit == pytest.approx(2.0, rel=1e-5)


@pytest.mark.parametrize("g_dob, ts", [(1000.0, 1e-3), (750.0, 1e-4), (3e4, 1e-4)])
def test_critical_parameter_inner_loop_on_the_pencil(g_dob, ts):
    def build(alpha: float) -> LoopSet:
        return inner_loop_dt(DObParams(alpha=alpha, g_dob=g_dob, ts=ts))

    counted = _Counted(build)
    exact = 2.0 / (g_dob * ts)
    crit = critical_parameter(counted, 0.5 * exact, 3.0 * exact)
    assert counted.calls == 3
    # the band-edge crossing, 5e-10 relative from alpha*g*ts = 2
    assert abs(crit - exact) <= 1e-6 * crit


@pytest.mark.parametrize(
    "build, lo, hi",
    [
        (_dt_alpha_build, 1.0, 5.0),
        (_dt_gdob_build, 100.0, 1000.0),
        (lambda a: outer_loop_ct(DObParams(alpha=a, g_dob=750.0, g_v=3000.0), SWEEP_GAINS),
         1e-4, 1e-2),
    ],
    ids=["outer-z-alpha", "outer-z-gdob", "outer-s-gv-alpha"],
)
def test_critical_parameter_pencil_matches_per_point_bisection(build, lo, hi):
    counted = _Counted(build)
    crit = critical_parameter(counted, lo, hi)
    assert counted.calls == 3
    ref = _bisect_per_point(build, lo, hi)
    assert abs(crit - ref) <= 1e-6 * ref


def test_critical_parameter_outer_ct_matches_routh_bound():
    g = 750.0
    kp, kd = SWEEP_GAINS.kp, SWEEP_GAINS.kd

    def build(alpha: float) -> LoopSet:
        return outer_loop_ct(DObParams(alpha=alpha, g_dob=g), SWEEP_GAINS)

    crit = critical_parameter(build, 1e-4, 1e-2)
    # Routh condition on s^3 + a*(g+kd) s^2 + a*(kp+g*kd) s + a*g*kp
    alpha_low = (g * kp) / ((g + kd) * (kp + g * kd))
    assert crit == pytest.approx(alpha_low, rel=1e-4)


def test_critical_parameter_refuses_a_pencil_of_huge_coefficients():
    # with kp = 1e200 the crossing polynomial's products would overflow, and
    # the loop is stable for every g_dob: the bracket is refused as before
    def build(g_dob: float) -> LoopSet:
        return outer_loop_ct(DObParams(alpha=1.0, g_dob=g_dob), OuterGains(kp=1e200, kd=1.0))

    with pytest.raises(ValueError, match="same stability verdict"):
        critical_parameter(build, 1.0, 100.0)


def test_critical_parameter_bracket_validation():
    def build(alpha: float) -> LoopSet:
        return inner_loop_dt(DObParams(alpha=alpha, g_dob=1000.0, ts=1e-3))

    with pytest.raises(ValueError, match="same stability verdict"):
        critical_parameter(build, 0.5, 1.5)
    with pytest.raises(ValueError, match="lo < hi"):
        critical_parameter(build, 3.0, 1.5)


def _stacked_solves(monkeypatch) -> list:
    """Every later stacked_roots call, whether from analysis or from poly_roots."""
    calls = _recorded(monkeypatch, lti, "stacked_roots")
    monkeypatch.setattr(analysis, "stacked_roots", lti.stacked_roots)
    return calls


@pytest.mark.parametrize(
    "build, lo, hi",
    [
        (_dt_alpha_build, 1.0, 5.0),
        (lambda a: outer_loop_ct(DObParams(alpha=a, g_dob=750.0, g_v=3000.0), SWEEP_GAINS),
         1e-4, 1e-2),
        (lambda a: inner_loop_dt(DObParams(alpha=a, g_dob=1000.0, ts=1e-3)), 1.5, 3.0),
    ],
    ids=["outer-z-alpha", "outer-s-gv-alpha", "inner-z-alpha"],
)
def test_critical_parameter_on_a_pencil_makes_two_solves(monkeypatch, build, lo, hi):
    # one solve of the crossing polynomial, one of every verdict's row; the
    # bisection made 15 one-row solves
    calls = _stacked_solves(monkeypatch)
    crit = critical_parameter(build, lo, hi)
    assert len(calls) <= 2
    assert abs(crit - _bisect_per_point(build, lo, hi)) <= 1e-6 * crit


@pytest.mark.parametrize(
    "g_dob, ts", [(1000.0, 1e-3), (750.0, 1e-4), (3e4, 1e-4), (123.456, 3.7e-3), (7.0, 0.011)]
)
def test_critical_parameter_inner_loop_is_the_exact_crossing(g_dob, ts):
    # the closed-loop pole 1 - alpha*g_dob*ts reaches the band edge z = -r,
    # r = 1 - BOUNDARY_TOL, where is_stable's verdict flips; solved by sympy
    # on the exact binary values of g_dob, ts and BOUNDARY_TOL.  The boundary
    # z = -1 itself lies 5e-10 relative away
    alpha = sympy.Symbol("alpha")
    edge = -(1 - sympy.Rational(BOUNDARY_TOL))
    (exact,) = sympy.solve(1 - alpha * sympy.Rational(g_dob) * sympy.Rational(ts) - edge, alpha)
    exact = float(exact)

    def build(a: float) -> LoopSet:
        return inner_loop_dt(DObParams(alpha=a, g_dob=g_dob, ts=ts))

    crit = critical_parameter(build, 0.5 * exact, 3.0 * exact)
    assert abs(crit - exact) <= 1e-10 * exact


def _three_crossings(v: float) -> LoopSet:
    # chi = s^4 + (11 - v) s^3 + 8 s^2 + 5 s + 1 + v: stable, unstable,
    # stable again and unstable over v in [1, 12]
    L = RationalTransferFunction(Polynomial((-v, 0.0, 0.0, v)), Polynomial((1.0, 11.0, 8.0, 5.0, 1.0)))
    return LoopSet.from_open_loop(L)


def _verdict(build, v: float) -> bool:
    ls = build(v)
    return classify_roots(ls.S.poles(), ls.L.ts).is_stable


def test_critical_parameter_returns_the_lowest_of_three_crossings(monkeypatch):
    assert [_verdict(_three_crossings, v) for v in (1.0, 5.5, 8.0, 12.0)] == [
        True, False, True, False
    ]
    calls = _stacked_solves(monkeypatch)
    crit = critical_parameter(_three_crossings, 1.0, 12.0)
    assert len(calls) <= 2
    # per point, the verdict flips there, and bisection of the first flip agrees
    assert _verdict(_three_crossings, crit * (1 - 1e-6))
    assert not _verdict(_three_crossings, crit * (1 + 1e-6))
    assert abs(crit - _bisect_per_point(_three_crossings, 1.0, 5.5)) <= 1e-6 * crit


def test_crossings_give_one_candidate_per_crossing():
    # q(t) is odd, so its real roots pair up as +-t; each pair is one
    # crossing, and so one candidate, the one that per-point bisection finds
    pencil = analysis._affine_pencil(_three_crossings, 1.0, 12.0)
    found = analysis._crossings(*pencil, 1.0, 12.0).tolist()
    assert len(found) == 3
    for v, (lo, hi) in zip(found, [(1.0, 5.5), (5.5, 8.0), (8.0, 12.0)]):
        assert abs(v - _bisect_per_point(_three_crossings, lo, hi)) <= 1e-6 * v


def test_critical_parameter_on_a_vanishing_crossing_polynomial(monkeypatch):
    # chi = (s + 1)(s^2 + v): a(jw)*conj(b(jw)) is real for every w, so the
    # crossing polynomial vanishes identically.  No such pencil can flip: its
    # roots outside a common factor pair up across the boundary, so here no
    # v is stable, and the bracket is refused
    def build(v: float) -> LoopSet:
        L = RationalTransferFunction(Polynomial((v, v)), Polynomial((1.0, 1.0, 0.0, 0.0)))
        return LoopSet.from_open_loop(L)

    with pytest.raises(ValueError, match="same stability verdict"):
        critical_parameter(build, -1.0, 2.0)
    # so a vanishing q is forced on a flipping pencil: with no candidate the
    # one interval cannot carry both endpoint verdicts, and nothing is bisected
    monkeypatch.setattr(analysis, "_crossings", lambda *args: np.empty(0))
    with pytest.raises(RuntimeError, match="crossing .* was missed"):
        critical_parameter(_dt_alpha_build, 1.0, 5.0)


@pytest.mark.parametrize("lo, gap", [(4.0, (4.0, 5.5)), (1.0, (8.0, 12.0))], ids=["first", "last"])
def test_critical_parameter_refuses_a_dropped_crossing(monkeypatch, lo, gap):
    # _three_crossings flips near 4.8, 6 and 10.2: without the first, the
    # first interval of [4, 12] is [4, 6], and its midpoint 5 is unstable,
    # not lo's verdict; without the last, the last interval's midpoint 9 is
    # stable, not hi's
    solved = analysis._crossings

    def dropping(*args):
        v = solved(*args)
        return v[(v < gap[0]) | (v > gap[1])]

    monkeypatch.setattr(analysis, "_crossings", dropping)
    with pytest.raises(RuntimeError, match="crossing .* was missed"):
        critical_parameter(_three_crossings, lo, 12.0)


def _slow_crossing(v: float) -> LoopSet:
    # chi = s + 1e-3 (v - 1) crosses the boundary at v = 1, but its root
    # leaves the BOUNDARY_TOL band only at v = 1 + 1e-6
    L = RationalTransferFunction(Polynomial((1e-3 * v,)), Polynomial((1.0, -1e-3)))
    return LoopSet.from_open_loop(L)


@pytest.mark.parametrize(
    "build, lo, hi", [(_slow_crossing, 0.5, 2.0), (_dt_gdob_build, 100.0, 1000.0)],
    ids=["slow-s", "outer-z-gdob"],
)
def test_critical_parameter_solves_a_slow_crossing_at_the_band_edge(monkeypatch, build, lo, hi):
    # the verdict flips far from the boundary crossing, where the root leaves
    # the band; the band edge is solved for, so two stacked solves still do.
    # On the sampled outer loop the crossing at g_dob 159.446 is such a slow one
    calls = _stacked_solves(monkeypatch)
    crit = critical_parameter(build, lo, hi)
    assert len(calls) <= 2
    assert abs(crit - _bisect_per_point(build, lo, hi)) <= 1e-6 * crit


def _random_brackets(count: int, seed: int) -> list:
    """(build, lo, hi) of count brackets across a verdict flip, five sweep kinds in turn.

    Log-uniform parameters; each bracket is the first flip of a 40-value
    geometric root_locus sweep.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    def sweep(kind, alpha, g_dob, ts, g_v, gains):
        return [
            lambda v: outer_loop_dt(DObParams(v, g_dob, ts=ts), gains),
            lambda v: outer_loop_dt(DObParams(alpha, v, ts=ts), gains),
            lambda v: outer_loop_ct(DObParams(v, g_dob, g_v=g_v), gains),
            lambda v: outer_loop_ct(DObParams(alpha, v, g_v=g_v), gains),
            lambda v: inner_loop_dt(DObParams(v, g_dob, ts=ts)),
        ][kind]

    brackets = []
    while len(brackets) < count:
        kind = len(brackets) % 5
        gains = OuterGains(kp=log_uniform(1.0, 1e5), kd=log_uniform(0.01, 1e3))
        build = sweep(
            kind, log_uniform(0.1, 10.0), log_uniform(1.0, 1e4),
            log_uniform(1e-5, 1e-2), log_uniform(10.0, 1e5), gains,
        )
        values = np.geomspace(1e-3, 1e3, 40) if kind in (0, 2, 4) else np.geomspace(0.1, 1e6, 40)
        flags = [row.stable for row in root_locus(build, values)]
        k = next((i for i in range(len(values) - 1) if flags[i] != flags[i + 1]), None)
        if k is not None:
            brackets.append((build, float(values[k]), float(values[k + 1])))
    return brackets


def test_critical_parameter_is_where_is_stable_flips_on_seeded_brackets(monkeypatch):
    # within 1e-9 relative on either side is_stable gives lo's and hi's
    # verdicts; the 1e-6 contract alone would allow 5e-7
    calls = _stacked_solves(monkeypatch)
    for build, lo, hi in _random_brackets(60, seed=5):
        calls.clear()
        crit = critical_parameter(build, lo, hi)
        assert len(calls) <= 2
        assert [_verdict(build, v) for v in (crit * (1 - 1e-9), crit * (1 + 1e-9))] == [
            _verdict(build, lo), _verdict(build, hi)
        ], (lo, hi, crit)


def test_critical_parameter_refuses_a_builder_that_is_not_a_pencil():
    # alpha = v*v makes chi quadratic in v: the midpoint probe is off the
    # pencil of the ends, and both sweeps refuse the builder
    def build(v: float) -> LoopSet:
        return _dt_alpha_build(v * v)

    lo, hi = 1.0, math.sqrt(5.0)
    off = r"not a pencil: chi at the midpoint 1\.618.* is off a \+ v\*b by 0\.0764 .*PENCIL_RTOL"
    with pytest.raises(ValueError, match=off):
        critical_parameter(build, lo, hi)
    with pytest.raises(ValueError, match=off):
        root_locus(build, np.linspace(lo, hi, 9))


@pytest.mark.parametrize(
    "build, check",
    [
        # a continuous loop below 2, a sampled one from 2 on
        (lambda v: _pencil_loop(v, None if v < 2.0 else 1e-3), "the sample time differs"),
        # chi = u^2 + u + v below 2, chi = u + 1 + v from 2 on; the probes are 1, 3 and 2
        (lambda v: _pencil_loop(v, 1e-3) if v < 2.0 else LoopSet.from_open_loop(
            RationalTransferFunction(Polynomial((v,)), Polynomial((1.0, 1.0)), ts=1e-3)),
         r"chi has degrees \(2, 1, 1\) at the probes \(1\.0, 3\.0, 2\.0\)"),
        # chi = v*u^2 + u + 1: the leading coefficient is the swept value
        (lambda v: LoopSet.from_open_loop(RationalTransferFunction(
            Polynomial((1.0,)), Polynomial((v, 1.0, 0.0)), ts=1e-3)),
         "the leading coefficient of chi depends on the swept value"),
    ],
    ids=["ts", "degree", "leading-coefficient"],
)
def test_sweeps_name_the_pencil_check_a_builder_fails(build, check):
    # the midpoint check is named in the test just above
    with pytest.raises(ValueError, match="not a pencil: " + check):
        root_locus(build, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="not a pencil: " + check):
        critical_parameter(build, 1.0, 3.0)


def test_two_value_sweep_rows_are_the_end_rows_of_a_longer_sweep():
    # both sweeps take a and b from the same two end builds
    for build, lo, hi in [(_dt_alpha_build, 1.0, 5.0), (_dt_gdob_build, 1e2, 1e6)]:
        counted = _Counted(build)
        two = root_locus(counted, [lo, hi])
        assert counted.calls == 3  # the ends and their midpoint
        nine = root_locus(build, np.linspace(lo, hi, 9))
        for got, want in zip(two, (nine.rows[0], nine.rows[-1])):
            assert got.param == want.param and got.stable == want.stable
            assert np.array(got.roots).tobytes() == np.array(want.roots).tobytes()


@pytest.mark.parametrize("v", [-0.5, 3.0])
def test_one_value_sweep_solves_the_built_chi(v):
    counted = _Counted(lambda a: _dt_alpha_build(abs(a)))
    (row,) = root_locus(counted, [v])
    assert counted.calls == 1
    ls = _dt_alpha_build(abs(v))
    want = 1.0 + np.array(poly_roots(ls.S.den))
    assert row.param == v
    assert np.array(row.roots).tobytes() == want.tobytes()
    assert row.stable == classify_roots(tuple(want), ls.L.ts).is_stable


def test_sweep_takes_its_pencil_from_the_smallest_and_largest_value():
    probes = []

    def build(v: float) -> LoopSet:
        probes.append(v)
        return _dt_alpha_build(v)

    table = root_locus(build, [1.0, 2.0, 1.0])
    assert probes == [1.0, 2.0, 1.5]
    ascending = root_locus(_dt_alpha_build, [1.0, 2.0])
    assert [row.param for row in table] == [1.0, 2.0, 1.0]
    assert table.rows[0] == table.rows[2] == ascending.rows[0]
    assert table.rows[1] == ascending.rows[1]
