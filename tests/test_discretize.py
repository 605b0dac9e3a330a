"""Discretization maps: exact coefficients, step invariance, DC preservation."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from doblab.discretize import (
    DiscretizationRule,
    backward_euler_pd,
    substitute,
    zoh_double_integrator,
)
from doblab.loops import inner_loop_ct, inner_loop_dt, outer_loop_ct
from doblab.lti import Polynomial, RationalTransferFunction
from doblab.params import DObParams, OuterGains


# ---------------------------------------------------------------------------
# ZoH double integrator


def test_zoh_exact_coefficients():
    # h*(u + 2)/u^2 in u = z - 1, h = ts^2/2
    tf = zoh_double_integrator(1.0, 0.001)
    assert tf.num.coeffs == (5e-7, 1e-6)
    assert tf.den.coeffs == (1.0, 0.0, 0.0)
    assert tf.ts == 0.001


def test_zoh_gain_scaling():
    tf = zoh_double_integrator(2.0, 1.0)
    assert tf.num.coeffs == (1.0, 2.0)
    assert tf.den.coeffs == (1.0, 0.0, 0.0)


def test_zoh_rejects_bad_ts():
    with pytest.raises(ValueError):
        zoh_double_integrator(1.0, 0.0)
    with pytest.raises(ValueError):
        zoh_double_integrator(1.0, -1e-3)


def test_zoh_step_invariance():
    # discrete step response must equal gain*t^2/2 at every sample instant
    gain, ts, n = 1.0, 1e-3, 1000
    tf = zoh_double_integrator(gain, ts)
    h = tf.num.coeffs[0]
    y = np.zeros(n)
    u = np.ones(n)
    for k in range(1, n):
        ym2 = y[k - 2] if k >= 2 else 0.0
        um2 = u[k - 2] if k >= 2 else 0.0
        y[k] = 2.0 * y[k - 1] - ym2 + h * (u[k - 1] + um2)
    t = np.arange(n) * ts
    assert np.abs(y - 0.5 * gain * t * t).max() < 1e-12


# ---------------------------------------------------------------------------
# backward-Euler PD


def test_pd_exact_coefficients():
    # ((kp + kd/ts)*u + kp)/(u + 1) in u = z - 1
    tf = backward_euler_pd(OuterGains(kp=1000.0, kd=250.0), 0.001)
    assert tf.num.coeffs == (251000.0, 1000.0)
    assert tf.den.coeffs == (1.0, 1.0)


def test_pd_pure_proportional():
    tf = backward_euler_pd(OuterGains(kp=1000.0, kd=0.0), 0.001)
    assert tf.num.coeffs == (1000.0,)
    assert tf.den.coeffs == (1.0,)
    assert tf(0.0) == 1000.0  # no leftover pole at z = 0


def test_pd_dc_value_is_kp():
    tf = backward_euler_pd(OuterGains(kp=123.0, kd=45.0), 0.01)
    assert tf(1.0) == pytest.approx(123.0, rel=1e-15)


# ---------------------------------------------------------------------------
# variable substitution


def test_forward_euler_reproduces_native_inner_loop():
    for alpha, g, ts in ((1.0, 500.0, 1e-3), (0.25, 750.0, 1e-4), (3.0, 100.0, 1e-2)):
        ct = inner_loop_ct(DObParams(alpha=alpha, g_dob=g))
        fe = substitute(ct.L, ts, DiscretizationRule.FORWARD_EULER)
        native = inner_loop_dt(DObParams(alpha=alpha, g_dob=g, ts=ts))
        assert fe.num.coeffs == native.L.num.coeffs
        assert fe.den.coeffs == native.L.den.coeffs
        assert fe.ts == ts


def test_tustin_of_constant_is_constant():
    one = RationalTransferFunction(Polynomial((1.0,)), Polynomial((1.0,)))
    out = substitute(one, 1e-3, DiscretizationRule.TUSTIN)
    assert out(0.7) == pytest.approx(1.0, rel=1e-15)
    assert out.num.coeffs == out.den.coeffs


def test_backward_euler_matches_pd_block():
    kp, kd, ts = 1000.0, 250.0, 1e-3
    pd_s = RationalTransferFunction(Polynomial((kd, kp)), Polynomial((1.0,)))
    via_sub = substitute(pd_s, ts, DiscretizationRule.BACKWARD_EULER)
    direct = backward_euler_pd(OuterGains(kp=kp, kd=kd), ts)
    # same rational function: cross-multiplied polynomials must agree
    lhs = via_sub.num * direct.den
    rhs = direct.num * via_sub.den
    assert lhs.degree == rhs.degree
    scale = max(lhs.max_abs, rhs.max_abs)
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=0.0, atol=1e-13 * scale)


def test_substitution_rejects_discrete_input():
    dt = zoh_double_integrator(1.0, 1e-3)
    with pytest.raises(ValueError):
        substitute(dt, 1e-3, DiscretizationRule.TUSTIN)


def _draw_origin_pole_free(rng):
    while True:
        num = rng.normal(size=int(rng.integers(1, 4)))
        den = rng.normal(size=int(rng.integers(1, 4)))
        if abs(den[-1]) < 0.1 or abs(den[0]) < 0.1:
            continue  # avoid origin poles and degenerate leads
        if len(num) > len(den):
            continue
        return RationalTransferFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


def test_dc_gain_preserved_without_origin_pole():
    rng = np.random.Generator(np.random.PCG64(71))
    rules = (DiscretizationRule.BACKWARD_EULER, DiscretizationRule.TUSTIN)
    for _ in range(200):
        tf_s = _draw_origin_pole_free(rng)
        dc_s = tf_s(0.0)
        for ts in (4.0, 1.0, 0.25):
            for rule in rules:
                tf_z = substitute(tf_s, ts, rule)
                dc_z = tf_z(1.0)
                assert abs(dc_z - dc_s) <= 1e-12 * max(1.0, abs(dc_s))


def test_dc_drift_at_small_ts_is_pure_cancellation():
    # the cleared form mixes coefficient scales ts^0 .. ts^N; this pins a
    # ceiling on the DC drift rather than the well-scaled invariant
    rng = np.random.Generator(np.random.PCG64(71))
    rules = (DiscretizationRule.BACKWARD_EULER, DiscretizationRule.TUSTIN)
    worst = 0.0
    for _ in range(200):
        tf_s = _draw_origin_pole_free(rng)
        dc_s = tf_s(0.0)
        for rule in rules:
            tf_z = substitute(tf_s, 1e-3, rule)
            dc_z = tf_z(1.0)
            worst = max(worst, abs(dc_z - dc_s) / max(1.0, abs(dc_s)))
    assert worst < 1e-6


def test_forward_euler_pole_mapping():
    # s = -a maps to z = 1 - a*ts under forward Euler
    a, ts = 200.0, 1e-3
    tf_s = RationalTransferFunction(Polynomial((a,)), Polynomial((1.0, a)))
    tf_z = substitute(tf_s, ts, DiscretizationRule.FORWARD_EULER)
    (pole,) = tf_z.poles()
    assert pole == pytest.approx(1.0 - a * ts, rel=1e-14)


def test_tustin_maps_left_half_plane_inside_disk():
    rng = np.random.Generator(np.random.PCG64(83))
    for _ in range(100):
        re = -abs(rng.normal()) * 100.0 - 0.5
        im = rng.normal() * 100.0
        den = Polynomial(tuple(np.poly([complex(re, im), complex(re, -im)]).real))
        tf_s = RationalTransferFunction(Polynomial((1.0,)), den)
        tf_z = substitute(tf_s, 1e-3, DiscretizationRule.TUSTIN)
        assert all(abs(p) < 1.0 for p in tf_z.poles())


@pytest.mark.parametrize(
    "p",
    [
        DObParams(alpha=1.0, g_dob=500.0),
        DObParams(alpha=0.7, g_dob=2000.0, g_v=1000.0),
        DObParams(alpha=2.5, g_dob=300.0, g_v=5000.0),
    ],
    ids=["ideal", "gv-1e3", "gv-5e3"],
)
def test_tustin_is_the_continuous_loop_on_the_warped_axis(p):
    # Tustin's s = (2/ts)(z - 1)/(z + 1) maps z = e^(j*theta) to
    # s = j*(2/ts)*tan(theta/2); a sampled system is stored in u = z - 1
    ts = 1e-3
    L = inner_loop_ct(p).L
    Lz = substitute(L, ts, DiscretizationRule.TUSTIN)
    theta = np.linspace(0.01, math.pi - 0.01, 180)
    u = np.exp(1j * theta) - 1.0
    s = 1j * (2.0 / ts) * np.tan(0.5 * theta)
    got = np.polyval(Lz.num.coeffs, u) / np.polyval(Lz.den.coeffs, u)
    want = np.polyval(L.num.coeffs, s) / np.polyval(L.den.coeffs, s)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10


def _seeded_ct_loops(count: int, seed: int) -> list[RationalTransferFunction]:
    """Open loops of inner_loop_ct and outer_loop_ct in turn, g_v finite or inf."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    out = []
    for i in range(count):
        gv = log_uniform(10.0, 1e5) if i % 4 < 2 else math.inf
        p = DObParams(log_uniform(0.1, 10.0), log_uniform(1.0, 1e4), g_v=gv)
        if i % 2:
            gains = OuterGains(kp=log_uniform(1.0, 1e5), kd=log_uniform(0.01, 1e3))
            out.append(outer_loop_ct(p, gains).L)
        else:
            out.append(inner_loop_ct(p).L)
    return out


RULE_MAPS = {
    # s = p(z)/q(z) as printed, written with the sample time t
    DiscretizationRule.FORWARD_EULER: lambda z, t: (z - 1, t),
    DiscretizationRule.BACKWARD_EULER: lambda z, t: (z - 1, t * z),
    DiscretizationRule.TUSTIN: lambda z, t: (2 * (z - 1), t * (z + 1)),
}


def _sympy_cleared(poly: Polynomial, p, q, order: int, z) -> list[float]:
    """float of each coefficient of sum c_k p^k q^(order - k), expanded exactly."""
    deg = poly.degree
    expr = sum(
        sympy.Rational(c) * p ** (deg - i) * q ** (order - deg + i)
        for i, c in enumerate(poly.coeffs)
    )
    return [float(c) for c in sympy.Poly(sympy.expand(expr), z).all_coeffs()]


@pytest.mark.parametrize("rule", list(DiscretizationRule), ids=lambda r: r.value)
@pytest.mark.parametrize("ts", [1e-3, 1e-4])
def test_substitute_rounds_each_coefficient_once_against_sympy(rule, ts):
    # every coefficient is the correctly rounded exact one in u = z - 1,
    # bit for bit: the printed map in z, with z = 1 + u substituted
    u = sympy.symbols("u")
    p, q = RULE_MAPS[rule](1 + u, sympy.Rational(ts))
    for tf_s in _seeded_ct_loops(30, seed=1729):
        order = max(tf_s.num.degree, tf_s.den.degree)
        tf_z = substitute(tf_s, ts, rule)
        assert list(tf_z.num.coeffs) == _sympy_cleared(tf_s.num, p, q, order, u)
        assert list(tf_z.den.coeffs) == _sympy_cleared(tf_s.den, p, q, order, u)


def _fraction_substitute(tf_s, ts, rule):
    """substitute in Fraction object arrays: the rational clearing it replaced, kept as its oracle.

    The rule's s = p(u)/q(u) powers are multiplied by np.convolve and summed
    by np.polyadd exactly, and Polynomial rounds each Fraction once.
    """
    t = Fraction(ts)
    p, q = {
        DiscretizationRule.FORWARD_EULER: ((1, 0), (t,)),
        DiscretizationRule.BACKWARD_EULER: ((1, 0), (t, t)),
        DiscretizationRule.TUSTIN: ((2, 0), (t, 2 * t)),
    }[rule]
    p, q = (np.array([Fraction(c) for c in f], dtype=object) for f in (p, q))
    order = max(tf_s.num.degree, tf_s.den.degree)
    p_pows = q_pows = [np.array([Fraction(1)], dtype=object)]
    for _ in range(order):
        p_pows = p_pows + [np.convolve(p_pows[-1], p)]
        q_pows = q_pows + [np.convolve(q_pows[-1], q)]

    def compose(poly):
        acc = np.array([Fraction(0)], dtype=object)
        for i, c in enumerate(poly.coeffs):
            k = poly.degree - i
            if c != 0.0:
                acc = np.polyadd(acc, Fraction(c) * np.convolve(p_pows[k], q_pows[order - k]))
        return Polynomial(tuple(acc))

    num, den = compose(tf_s.num), compose(tf_s.den)
    if den.is_zero:
        raise ValueError("substitution produced a zero denominator")
    return RationalTransferFunction(num, den, ts=ts)


def _outcome(fn, tf_s, ts, rule):
    """repr of both coefficient tuples (signed zeros shown), or the exception type."""
    try:
        tf_z = fn(tf_s, ts, rule)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return repr(tf_z.num.coeffs), repr(tf_z.den.coeffs)


def _seeded_polynomial_loops(count: int, seed: int) -> list[RationalTransferFunction]:
    """Continuous loops of degree 0..4 over 0..4, each coefficient zero (either sign) one time in three."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def poly():
        c = [
            float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-30, 30))
            if rng.uniform() < 2 / 3 else float(rng.choice([0.0, -0.0]))
            for _ in range(rng.integers(1, 6))
        ]
        return Polynomial((float(10.0 ** rng.uniform(-30, 30)), *c[1:]))

    return [RationalTransferFunction(poly(), poly()) for _ in range(count)]


@pytest.mark.parametrize("rule", list(DiscretizationRule), ids=lambda r: r.value)
def test_substitute_is_bitwise_the_fraction_clearing(rule):
    # the integer clearing against the Fraction one it replaced, outcome for
    # outcome: every coefficient bitwise, signed zeros included, and the same
    # refusal where a coefficient overflows or the denominator vanishes
    rng = np.random.Generator(np.random.PCG64(2024))
    loops = _seeded_ct_loops(60, seed=31) + _seeded_polynomial_loops(60, seed=37)
    refused = 0
    for tf_s in loops:
        for ts in (5e-324, 1e300, 1e-3, float(10.0 ** rng.uniform(-6, -1))):
            want = _outcome(_fraction_substitute, tf_s, ts, rule)
            assert _outcome(substitute, tf_s, ts, rule) == want, (tf_s, ts)
            refused += isinstance(want, type)
    assert 0 < refused < len(loops) * 4  # both outcomes are exercised
