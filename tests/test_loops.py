"""Loop builders: printed forms, dual-route expansions, and the S+T identity."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from doblab.lti import (
    Polynomial,
    RationalTransferFunction,
    Stability,
    contour_points,
    is_stable,
    poly_roots,
    tf_eval,
)
from doblab.loops import (
    LoopSet,
    PhaseCharacter,
    ci_compensator_dt,
    inner_loop_ct,
    inner_loop_dt,
    outer_loop_ct,
    outer_loop_dt,
)
from doblab.params import DObParams, OuterGains, per_sample_gain

SWEEP_GAINS = OuterGains(kp=1000.0, kd=250.0)


# ---------------------------------------------------------------- parameters


def test_params_validation():
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            DObParams(alpha=alpha, g_dob=100.0)
    with pytest.raises(ValueError, match="g_dob"):
        DObParams(alpha=1.0, g_dob=-5.0)
    with pytest.raises(ValueError, match="g_dob"):
        DObParams(alpha=1.0, g_dob=math.inf)
    with pytest.raises(ValueError, match="g_v"):
        DObParams(alpha=1.0, g_dob=100.0, g_v=0.0)
    with pytest.raises(ValueError, match="ts"):
        DObParams(alpha=1.0, g_dob=100.0, ts=0.0)
    for kp in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="kp must be positive and finite"):
            OuterGains(kp=kp, kd=1.0)
    for kd in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="kd must be nonnegative and finite"):
            OuterGains(kp=1.0, kd=kd)
    # kd = 0 is a valid pure-proportional outer loop
    OuterGains(kp=1.0, kd=0.0)


def test_per_sample_gain_requires_ts():
    p = DObParams(alpha=1.0, g_dob=100.0)
    with pytest.raises(ValueError, match="sampling period required"):
        per_sample_gain(p)
    with pytest.raises(ValueError, match="sampling period required"):
        inner_loop_dt(p)


# ---------------------------------------------------------------- inner loop


def test_inner_ct_ideal_velocity_is_pure_integrator():
    ls = inner_loop_ct(DObParams(alpha=1.0, g_dob=100.0))
    assert ls.L.ts is None
    assert ls.L.num.coeffs == (100.0,)
    assert ls.L.den.coeffs == (1.0, 0.0)
    # S = s/(s+100): first-order low-pass complement, strictly below 1
    assert ls.S.den.coeffs == (1.0, 100.0)
    om = np.logspace(-2, 5, 400)
    _, s_vals, _ = ls.st_response(om)
    assert np.all(np.abs(s_vals) < 1.0)


def test_inner_ct_finite_gv_form():
    ls = inner_loop_ct(DObParams(alpha=2.0, g_dob=300.0, g_v=500.0))
    assert ls.L.num.coeffs == (2.0 * 300.0 * 500.0,)
    assert ls.L.den.coeffs == (1.0, 500.0, 0.0)
    # relative degree 2: the velocity low-pass adds a pole
    assert ls.L.den.degree - ls.L.num.degree == 2


def test_inner_dt_characteristic_polynomial_exact():
    for alpha, g, ts in [(1.0, 500.0, 1e-3), (0.7, 1234.0, 1e-4), (2.5, 600.0, 1e-3)]:
        p = DObParams(alpha=alpha, g_dob=g, ts=ts)
        x = (alpha * g) * ts
        ls = inner_loop_dt(p)
        # x/u in u = z - 1
        assert ls.L.num.coeffs == (x,)
        assert ls.L.den.coeffs == (1.0, 0.0)
        # closed-loop pole at u = -x, coefficient-exact
        assert ls.S.den.coeffs == (1.0, x)
        assert ls.T.num.coeffs == (x,)
        assert ls.T.den.coeffs == ls.S.den.coeffs


def test_inner_dt_stability_regions():
    def verdict(x):
        p = DObParams(alpha=1.0, g_dob=x / 1e-3, ts=1e-3)
        return is_stable(inner_loop_dt(p).S)

    assert verdict(0.5).stability is Stability.STABLE
    assert verdict(2.0).stability is Stability.MARGINAL
    assert not verdict(2.0).is_stable

    v = verdict(2.5)
    assert v.stability is Stability.UNSTABLE
    assert v.worst_pole == pytest.approx(-1.5, rel=1e-12)

    # 1 < x < 2: stable but the pole is negative real, so the estimate rings
    v = verdict(1.2)
    assert v.stability is Stability.STABLE
    assert v.worst_pole.real == pytest.approx(-0.2, rel=1e-9)
    assert v.worst_pole.real < 0.0


# ---------------------------------------------------------------- outer loop


def _sympy_outer_ct(alpha, g, gv, kp, kd):
    s = sympy.symbols("s")
    a, gg, kpp, kdd = (sympy.Rational(v) for v in (alpha, g, kp, kd))
    if gv is None:
        num = a * (gg * s**2 + (s + gg) * (kdd * s + kpp))
        den = s**3
    else:
        gvv = sympy.Rational(gv)
        num = a * (gvv * gg * s**2 + (s + gvv) * (s + gg) * (kdd * s + kpp))
        den = s**3 * (s + gvv)
    num_c = [float(c) for c in sympy.Poly(sympy.expand(num), s).all_coeffs()]
    den_c = [float(c) for c in sympy.Poly(sympy.expand(den), s).all_coeffs()]
    return num_c, den_c


def test_outer_ct_matches_symbolic_expansion():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(30):
        alpha = float(rng.uniform(0.05, 5.0))
        g = float(rng.uniform(10.0, 2000.0))
        kp = float(rng.uniform(10.0, 5000.0))
        kd = float(rng.uniform(0.0, 500.0))
        gv = float(rng.uniform(50.0, 5000.0)) if rng.integers(2) else None
        p = DObParams(alpha=alpha, g_dob=g, g_v=math.inf if gv is None else gv)
        ls = outer_loop_ct(p, OuterGains(kp=kp, kd=max(kd, 1e-6)))
        num_ref, den_ref = _sympy_outer_ct(alpha, g, gv, kp, max(kd, 1e-6))
        assert np.allclose(ls.L.num.coeffs, num_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(ls.L.den.coeffs, den_ref, rtol=1e-12, atol=0.0)


def test_outer_ct_finite_gv_parallel_decomposition():
    # the printed single fraction equals inner loop + PD reference branch:
    # L_o = L_i + alpha*(s+g_v)(s+g)(kd*s+kp) / (s^3 (s+g_v))
    p = DObParams(alpha=0.8, g_dob=400.0, g_v=900.0)
    gains = OuterGains(kp=1500.0, kd=60.0)
    whole = outer_loop_ct(p, gains).L
    inner = inner_loop_ct(p).L
    branch_num = p.alpha * (
        Polynomial((1.0, p.g_v)) * Polynomial((1.0, p.g_dob)) * Polynomial((gains.kd, gains.kp))
    )
    branch = RationalTransferFunction(
        branch_num, Polynomial((1.0, p.g_v, 0.0, 0.0, 0.0)), ts=None
    )
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)) * 100.0
        lhs = tf_eval(whole, z)
        rhs = tf_eval(inner, z) + tf_eval(branch, z)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _sympy_outer_dt(alpha, g, ts, kp, kd):
    """L's coefficients in u from the printed z blocks, expanded exactly at z = 1 + u."""
    u = sympy.symbols("u")
    z = 1 + u
    a, gg, t, kpp, kdd = (sympy.Rational(v) for v in (alpha, g, ts, kp, kd))
    x = a * gg * t
    num = ((kpp + kdd / t) * z - kdd / t) * a * ((1 + gg * t) * z - 1) * t**2 / 2 * (z + 1)
    den = z * (z - (1 - x)) * (z - 1) ** 2
    return [
        [float(c) for c in sympy.Poly(sympy.expand(e), u).all_coeffs()] for e in (num, den)
    ]


def test_outer_dt_equals_block_product():
    # independent route: the printed z blocks, expanded by sympy at z = 1 + u
    alpha, g, ts = 1.0, 750.0, 1e-3
    num_ref, den_ref = _sympy_outer_dt(alpha, g, ts, SWEEP_GAINS.kp, SWEEP_GAINS.kd)

    ls = outer_loop_dt(DObParams(alpha=alpha, g_dob=g, ts=ts), SWEEP_GAINS)
    assert np.allclose(ls.L.num.coeffs, num_ref, rtol=1e-13, atol=0.0)
    assert np.allclose(ls.L.den.coeffs, den_ref, rtol=1e-13, atol=0.0)
    chi_ref = np.asarray(den_ref) + np.concatenate(([0.0], num_ref))
    assert np.allclose(ls.S.den.coeffs, chi_ref, rtol=1e-13)


def test_dt_outer_stability_implies_per_sample_gain_below_two():
    rng = np.random.Generator(np.random.PCG64(29))
    stable_seen = 0
    for _ in range(500):
        p = DObParams(
            alpha=float(10.0 ** rng.uniform(-2, 1)),
            g_dob=float(10.0 ** rng.uniform(1, 4)),
            ts=float(rng.choice([1e-4, 1e-3, 1e-2])),
        )
        gains = OuterGains(
            kp=float(10.0 ** rng.uniform(1, 3.5)),
            kd=float(10.0 ** rng.uniform(0, 2.5)),
        )
        if is_stable(outer_loop_dt(p, gains).S).is_stable:
            stable_seen += 1
            assert per_sample_gain(p) < 2.0
    assert stable_seen >= 20  # the draw must actually exercise the claim


def test_dt_poles_approach_sampled_ct_poles():
    # as ts shrinks, closed-loop poles approach exp(p*ts) of the continuous
    # design; one extra pole from the backward-difference stays near z = 0
    ct_poles = poly_roots(outer_loop_ct(DObParams(alpha=1.0, g_dob=750.0), SWEEP_GAINS).S.den)
    errs = {}
    for ts in (1e-4, 1e-5):
        dt = outer_loop_dt(DObParams(alpha=1.0, g_dob=750.0, ts=ts), SWEEP_GAINS)
        dt_poles = dt.S.poles()
        errs[ts] = max(
            min(abs(z - np.exp(pc * ts)) for z in dt_poles) for pc in ct_poles
        )
        assert len(dt_poles) == len(ct_poles) + 1
    assert errs[1e-4] < 1e-2
    assert errs[1e-5] < errs[1e-4] / 50.0


# ------------------------------------------------------------- compensator


def test_ci_compensator_coefficients():
    # alpha*((1 + g*ts)*u + g*ts)/(u + x) in u = z - 1
    p = DObParams(alpha=1.0, g_dob=500.0, ts=1e-3)
    x = (1.0 * 500.0) * 1e-3
    ci = ci_compensator_dt(p)
    assert ci.tf.num.coeffs == (1.0 * (1.0 + 500.0 * 1e-3), 1.0 * (500.0 * 1e-3))
    assert ci.tf.den.coeffs == (1.0, x)
    assert ci.threshold == pytest.approx(1.0 / 1.5, rel=1e-15)


def test_ci_compensator_phase_classification():
    g, ts = 500.0, 1e-3
    threshold = 1.0 / (1.0 + g * ts)
    assert ci_compensator_dt(DObParams(alpha=1.0, g_dob=g, ts=ts)).character is PhaseCharacter.LEAD
    assert ci_compensator_dt(DObParams(alpha=0.5, g_dob=g, ts=ts)).character is PhaseCharacter.LAG
    at = ci_compensator_dt(DObParams(alpha=threshold, g_dob=g, ts=ts))
    assert at.character is PhaseCharacter.NEUTRAL
    # at the threshold the zero cancels the pole: C_i collapses to a gain
    zero = at.tf.num.coeffs[1] / -at.tf.num.coeffs[0]
    pole = -per_sample_gain(DObParams(alpha=threshold, g_dob=g, ts=ts))
    assert zero == pytest.approx(pole, rel=1e-12)


def test_ci_lead_iff_alpha_above_threshold_random():
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(200):
        g = float(10.0 ** rng.uniform(1, 4))
        ts = float(rng.choice([1e-4, 1e-3]))
        alpha = float(10.0 ** rng.uniform(-2, 1))
        ci = ci_compensator_dt(DObParams(alpha=alpha, g_dob=g, ts=ts))
        threshold = 1.0 / (1.0 + g * ts)
        if alpha > threshold * (1.0 + 1e-9):
            assert ci.character is PhaseCharacter.LEAD
        elif alpha < threshold * (1.0 - 1e-9):
            assert ci.character is PhaseCharacter.LAG


# ------------------------------------------------------------ S+T identity


ST_BATTERY = [
    lambda: inner_loop_dt(DObParams(alpha=1.0, g_dob=500.0, ts=1e-3)),
    lambda: inner_loop_dt(DObParams(alpha=1.9, g_dob=1000.0, ts=1e-3)),
    lambda: inner_loop_ct(DObParams(alpha=1.0, g_dob=100.0)),
    lambda: inner_loop_ct(DObParams(alpha=2.0, g_dob=300.0, g_v=500.0)),
    lambda: outer_loop_ct(DObParams(alpha=1.0, g_dob=750.0), SWEEP_GAINS),
    lambda: outer_loop_ct(DObParams(alpha=1.0, g_dob=750.0, g_v=1000.0), SWEEP_GAINS),
    lambda: outer_loop_dt(DObParams(alpha=1.0, g_dob=750.0, ts=1e-3), SWEEP_GAINS),
    lambda: outer_loop_dt(DObParams(alpha=0.01, g_dob=750.0, ts=1e-3), SWEEP_GAINS),
]


@pytest.mark.parametrize("build", ST_BATTERY)
def test_s_plus_t_is_one_everywhere(build):
    ls = build()
    if ls.L.ts is None:
        om = np.logspace(-2, 6, 1000)
    else:
        om = np.linspace(0.0, math.pi / ls.L.ts, 1000)
    _, s_vals, t_vals = ls.st_response(om)
    assert np.max(np.abs(s_vals + t_vals - 1.0)) <= 1e-12


def test_s_plus_t_shared_denominator():
    ls = outer_loop_dt(DObParams(alpha=1.0, g_dob=750.0, ts=1e-3), SWEEP_GAINS)
    assert ls.S.den.coeffs == ls.T.den.coeffs


# ------------------------------------------ array evaluation against oracles

EPS = float(np.finfo(float).eps)
GAINS = st.builds(OuterGains, kp=st.floats(500.0, 2000.0), kd=st.floats(125.0, 500.0))


def _assert_s_plus_t_is_one(s_vals, t_vals) -> None:
    # two divisions by the same d + n and one sum: a few ulp of the larger
    # of 1 and |S| + |T| (|S| reaches 2/(2 - x) on the inner loop)
    scale = np.maximum(1.0, np.abs(s_vals) + np.abs(t_vals))
    assert np.all(np.abs(s_vals + t_vals - 1.0) <= 4.0 * EPS * scale)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.01, 1.99),
    ts=st.sampled_from([1e-3, 1e-4]),
    alpha=st.floats(0.05, 3.0),
    g=st.floats(10.0, 5000.0),
    gv=st.one_of(st.just(math.inf), st.floats(100.0, 1e4)),
    gains=GAINS,
)
def test_array_evaluation_matches_scalar_path(x, ts, alpha, g, gv, gains):
    # inner loops and s-domain loops: nothing cancels badly here, so the
    # factored array path and scalar Horner on S and T agree to 1e-12
    battery = [
        inner_loop_dt(DObParams(alpha=1.0, g_dob=x / ts, ts=ts)),
        inner_loop_ct(DObParams(alpha=alpha, g_dob=g, g_v=gv)),
        outer_loop_ct(DObParams(alpha=alpha, g_dob=g, g_v=gv), gains),
    ]
    for ls in battery:
        if ls.L.is_discrete:
            om = np.linspace(0.0, ls.L.nyquist, 257)
        else:
            om = np.logspace(-2.0, 6.0, 257)
        _, s_vals, t_vals = ls.st_response(om)
        for got, tf in ((s_vals, ls.S), (t_vals, ls.T)):
            pts = [
                contour_points(float(w) / tf.nyquist * math.pi, True)
                if tf.is_discrete
                else 1j * float(w)
                for w in om
            ]
            want = np.array([tf.num(p) / tf.den(p) for p in pts])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        _assert_s_plus_t_is_one(s_vals, t_vals)


def _exact_st(L: RationalTransferFunction, om: np.ndarray):
    """S, T, |n|, |d| and |d + n| from 50-digit evaluations of L.num and L.den.

    A sampled L is evaluated at u = e^(j*omega*ts) - 1, its stored variable.
    """
    with mpmath.workdps(50):
        num = [mpmath.mpf(c) for c in L.num.coeffs]
        den = [mpmath.mpf(c) for c in L.den.coeffs]
        exact = []
        for w in om:
            if L.ts is None:
                p = mpmath.mpc(0, float(w))
            else:
                p = mpmath.expj(mpmath.mpf(float(w)) * mpmath.mpf(L.ts)) - 1
            n, d = mpmath.polyval(num, p), mpmath.polyval(den, p)
            exact.append((complex(d / (d + n)), complex(n / (d + n)), abs(n), abs(d), abs(d + n)))
    s_exact, t_exact = (np.array([e[k] for e in exact]) for k in (0, 1))
    return (s_exact, t_exact, *(np.array([float(e[k]) for e in exact]) for k in (2, 3, 4)))


def _horner_envelope(poly: Polynomial, exact_abs: np.ndarray) -> np.ndarray:
    """A priori relative error of complex Horner evaluation, weighted as on |z| = 1."""
    return 2.0 * poly.degree * EPS * sum(abs(c) for c in poly.coeffs) / exact_abs


@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(0.3, 1.5),
    g=st.floats(200.0, 1500.0),
    ts=st.sampled_from([1e-3, 1e-4]),
    gains=GAINS,
)
def test_sampled_outer_loop_evaluation_against_mpmath(alpha, g, ts, gains):
    # The oracle is a 50-digit evaluation of the same coefficients.  The
    # factored array path must be within 1e-12 relative, or inside the
    # first-order error envelope of Horner's rule where that is wider: near
    # a zero of n or of d + n (T at Nyquist) the value is a rounding residue.
    ls = outer_loop_dt(DObParams(alpha=alpha, g_dob=g, ts=ts), gains)
    nyq = ls.L.nyquist
    # the first 200 points of a 20 000-point grid, then a pass over the band
    om = np.concatenate(
        [np.linspace(0.0, nyq, 20000)[1:201], np.linspace(0.02 * nyq, nyq, 60)]
    )
    num, den = ls.L.num, ls.L.den
    s_exact, t_exact, abs_n, abs_d, abs_w = _exact_st(ls.L, om)
    w_env = _horner_envelope(den, abs_w) + _horner_envelope(num, abs_w)
    s_env = _horner_envelope(den, abs_d) + w_env + 4.0 * EPS
    t_env = _horner_envelope(num, abs_n) + w_env + 4.0 * EPS

    _, s_vals, t_vals = ls.st_response(om)
    assert np.all(np.abs(s_vals - s_exact) <= np.maximum(1e-12, s_env) * np.abs(s_exact))
    assert np.all(np.abs(t_vals - t_exact) <= np.maximum(1e-12, t_env) * np.abs(t_exact))
    _assert_s_plus_t_is_one(s_vals, t_vals)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


@pytest.mark.parametrize("builder", ["inner-z", "inner-s", "outer-z", "outer-s"])
def test_st_response_against_mpmath_on_random_loops(builder):
    # closed-loop-stable loops over ts 1e-5..1e-2, alpha 0.1..10,
    # g_dob 1..1e4, kp 1..1e5, kd 0.01..1e3 and g_v 1..1e5, log-uniform
    rng = np.random.Generator(np.random.PCG64(11))
    found = 0
    while found < 25:
        ts, alpha, g_dob = (_log_uniform(rng, *r) for r in ((1e-5, 1e-2), (0.1, 10.0), (1.0, 1e4)))
        gains = OuterGains(kp=_log_uniform(rng, 1.0, 1e5), kd=_log_uniform(rng, 0.01, 1e3))
        g_v = _log_uniform(rng, 1.0, 1e5)
        ls = {
            "inner-z": lambda: inner_loop_dt(DObParams(alpha=alpha, g_dob=g_dob, ts=ts)),
            "inner-s": lambda: inner_loop_ct(DObParams(alpha=alpha, g_dob=g_dob, g_v=g_v)),
            "outer-z": lambda: outer_loop_dt(DObParams(alpha=alpha, g_dob=g_dob, ts=ts), gains),
            "outer-s": lambda: outer_loop_ct(DObParams(alpha=alpha, g_dob=g_dob, g_v=g_v), gains),
        }[builder]()
        if not is_stable(ls.S).is_stable:
            continue
        found += 1
        if ls.L.is_discrete:
            end = ls.L.nyquist
            band = np.linspace(0.0, end, 301)
        else:
            mags = [abs(r) for r in poly_roots(ls.S.den) if abs(r) > 0.0]
            end = 1e3 * max(mags)
            band = np.logspace(math.log10(min(mags) / 1e3), math.log10(end), 301)
        # DC, the first 30 points of a 20 001-point grid, the band and its end
        om = np.unique(np.concatenate([np.linspace(0.0, end, 20001)[:30], band, [end]]))
        _, s_vals, t_vals = ls.st_response(om)
        s_exact, t_exact, *_ = _exact_st(ls.L, om)
        for got, want in ((s_vals, s_exact), (t_vals, t_exact)):
            err = np.abs(got - want)
            assert np.all(err <= 1e-12 * np.abs(want) + 1e-15), float(np.max(err / np.abs(want)))
        _assert_s_plus_t_is_one(s_vals, t_vals)


# ---------------------------------------------------------------- guards


def test_from_open_loop_rejects_improper():
    L = RationalTransferFunction(
        Polynomial((1.0, 0.0, 1.0)), Polynomial((1.0, 0.0)), ts=None
    )
    with pytest.raises(ValueError, match="proper"):
        LoopSet.from_open_loop(L)


def test_from_open_loop_rejects_degenerate():
    L = RationalTransferFunction(Polynomial((-1.0,)), Polynomial((1.0,)), ts=None)
    with pytest.raises(ValueError, match="degenerate"):
        LoopSet.from_open_loop(L)


def test_st_response_refuses_pole():
    # x = 2 puts the closed-loop pole exactly at z = -1
    ls = inner_loop_dt(DObParams(alpha=2.0, g_dob=1000.0, ts=1e-3))
    om = np.linspace(0.0, math.pi / 1e-3, 11)  # grid lands on Nyquist
    with pytest.raises(ValueError, match=r"evaluation at pole: omega=3141\.59"):
        ls.st_response(om)
    # one point short of Nyquist is answered
    ls.st_response(om[:-1])


# ts where (pi/ts)*ts rounds away from pi: an angle taken as omega*ts misses
# the Nyquist point there, (omega/nyquist)*pi does not
NYQUIST_TS = [1e-3, 1e-4, 1e-6, 1.2022644346174132e-06, 0.00013489628825916533]


@pytest.mark.parametrize("ts", NYQUIST_TS)
def test_nyquist_row_is_exact(ts):
    assert sum((math.pi / t) * t != math.pi for t in NYQUIST_TS) == 3
    assert contour_points(math.pi, True) == complex(-2.0, 0.0)
    assert contour_points(np.array([math.pi]), True)[0] == complex(-2.0, 0.0)
    om = np.linspace(0.0, math.pi / ts, 64)
    # the ZoH zero sits at u = -2, so outer-loop T is 0 at Nyquist
    for alpha, gains in ((1.0, SWEEP_GAINS), (0.3, OuterGains(kp=50.0, kd=0.0))):
        _, s_vals, t_vals = outer_loop_dt(DObParams(alpha, 500.0, ts=ts), gains).st_response(om)
        assert t_vals[-1] == 0.0 and abs(s_vals[-1] - 1.0) <= EPS
        assert np.angle(t_vals[-1]) == 0.0 and math.copysign(1.0, np.angle(t_vals[-1])) == 1.0
    # the inner loop's S = u/(u + x) and T = x/(u + x) are real at u = -2
    p = DObParams(1.0, 0.75 / ts, ts=ts)
    _, s_vals, t_vals = inner_loop_dt(p).st_response(om)
    assert s_vals[-1].imag == 0.0 and t_vals[-1].imag == 0.0
    x = per_sample_gain(p)
    assert abs(s_vals[-1] - 2.0 / (2.0 - x)) <= 1e-15 * abs(s_vals[-1])


def test_st_response_rejects_beyond_nyquist():
    ls = inner_loop_dt(DObParams(alpha=1.0, g_dob=500.0, ts=1e-3))
    with pytest.raises(ValueError):
        ls.st_response(np.linspace(0.0, 1.1 * math.pi / 1e-3, 50))
