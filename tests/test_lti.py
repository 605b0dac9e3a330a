"""Polynomial/transfer-function algebra against independent oracles."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doblab import lti
from doblab.loops import LoopSet
from doblab.lti import (
    BOUNDARY_TOL,
    Polynomial,
    RationalTransferFunction,
    Stability,
    classify_roots,
    contour_points,
    is_stable,
    poly_roots,
    stable_rows,
    tf_connect,
)


# sampled systems are written in u = z - 1


def s_i(x, ts=1e-3):
    """S of the sampled inner loop, (z - 1)/(z - 1 + x) = u/(u + x)."""
    return RationalTransferFunction(Polynomial((1.0, 0.0)), Polynomial((1.0, x)), ts=ts)


def t_i(x, ts=1e-3):
    """T of the sampled inner loop, x/(u + x)."""
    return RationalTransferFunction(Polynomial((x,)), Polynomial((1.0, x)), ts=ts)


# ---------------------------------------------------------------------------
# Polynomial


def test_polynomial_strips_exact_leading_zeros():
    p = Polynomial((0.0, 0.0, 2.0, -1.0))
    assert p.coeffs == (2.0, -1.0)
    assert p.degree == 1
    assert p.lead == 2.0


def test_polynomial_zero_and_degree():
    z = Polynomial((0.0, 0.0))
    assert z.is_zero
    assert Polynomial((3.0,)).degree == 0


def test_polynomial_rejects_nonfinite():
    with pytest.raises(ValueError):
        Polynomial((1.0, math.nan))
    with pytest.raises(ValueError):
        Polynomial((math.inf, 1.0))


def test_polynomial_arithmetic_matches_numpy():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        a = Polynomial(tuple(rng.normal(size=rng.integers(1, 6))))
        b = Polynomial(tuple(rng.normal(size=rng.integers(1, 6))))
        if a.is_zero or b.is_zero:
            continue
        prod = (a * b).coeffs
        ref = np.convolve(a.coeffs, b.coeffs)
        assert np.allclose(prod, ref, rtol=1e-13, atol=0.0)
        tot = (a + b)(1.7) - (a(1.7) + b(1.7))
        assert abs(tot) < 1e-10


def test_polynomial_sum_and_product_are_bitwise_numpy():
    # __add__ pads in Python and __mul__ lists np.convolve's result: both are
    # bitwise np.polyadd and np.convolve, on mixed lengths and signed zeros
    rng = np.random.Generator(np.random.PCG64(13))

    def draw():
        n = int(rng.integers(1, 7))
        c = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6, size=n)
        zero = rng.uniform(size=n) < 0.3
        c[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        return Polynomial(tuple(c.tolist()))

    pairs = [(draw(), draw()) for _ in range(500)]
    pairs += [(a, Polynomial(tuple(-c for c in a.coeffs))) for a, _ in pairs[:50]]  # exact 0 sums
    for a, b in pairs:
        for mine, ref in ((a + b, np.polyadd), (a * b, np.convolve)):
            assert repr(mine.coeffs) == repr(Polynomial(tuple(ref(a.coeffs, b.coeffs))).coeffs)
    # a padded top coefficient is 0.0 + c: -0.0 becomes 0.0; an unpadded -0.0 + -0.0 stays
    assert repr((Polynomial((1.0, -0.0, 2.0)) + Polynomial((3.0,))).coeffs) == "(1.0, 0.0, 5.0)"
    assert repr((Polynomial((1.0, -0.0)) + Polynomial((1.0, -0.0))).coeffs) == "(2.0, -0.0)"


# ---------------------------------------------------------------------------
# poly_roots


def test_roots_perfect_square():
    roots = poly_roots(Polynomial((1.0, -2.0, 1.0)))
    assert len(roots) == 2
    assert all(abs(r - 1.0) < 1e-7 for r in roots)


def test_roots_linear_inner_pole():
    (r,) = poly_roots(Polynomial((1.0, -0.5)))
    assert r == 0.5


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError, match="undefined roots"):
        poly_roots(Polynomial((0.0,)))
    with pytest.raises(ValueError, match="undefined roots"):
        poly_roots(Polynomial((3.0,)))


def test_roots_residual_bound():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(300):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1)
        coeffs[0] = coeffs[0] if abs(coeffs[0]) > 0.1 else 1.0
        p = Polynomial(tuple(coeffs))
        for r in poly_roots(p):
            bound = 1e-8 * p.max_abs * max(1.0, abs(r)) ** p.degree
            assert abs(p(r)) <= bound


def _match_root_sets(mine, theirs, tol):
    # greedy nearest pairing; fine because tolerances are far below spacing
    pool = list(theirs)
    for r in mine:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - r))
        assert abs(pool[j] - r) < tol, (r, pool[j])
        pool.pop(j)


def test_roots_against_mpmath_oracle():
    rng = np.random.Generator(np.random.PCG64(37))
    mpmath.mp.dps = 40
    for _ in range(60):
        deg = int(rng.integers(1, 13))
        coeffs = rng.normal(size=deg + 1)
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 1.0
        p = Polynomial(tuple(coeffs))
        mine = poly_roots(p)
        oracle = [
            complex(r) for r in mpmath.polyroots(list(coeffs), maxsteps=200, extraprec=80)
        ]
        scale = max(1.0, max(abs(r) for r in oracle))
        _match_root_sets(mine, oracle, 1e-6 * scale)


def test_polished_roots_where_the_slope_coefficient_would_overflow():
    # the Newton polish's slope has the coefficient 2 * 1e308, past the
    # largest float; the roots are -5e-309 +- 1e-154j, from the quadratic
    # formula at 50 digits, and even the subnormal real part is kept
    with mpmath.workdps(50):
        a, b, c = (mpmath.mpf(v) for v in (1e308, 1.0, 1.0))
        d = mpmath.sqrt(b * b - 4 * a * c)
        want = [complex((-b - d) / (2 * a)), complex((-b + d) / (2 * a))]
    got = Polynomial((1e308, 1.0, 1.0)).roots
    assert len(got) == 2
    for g, w in zip(sorted(got, key=lambda r: r.imag), want):
        assert abs(g.real - w.real) <= 1e-12 * abs(w.real)
        assert abs(g.imag - w.imag) <= 4 * math.ulp(abs(w.imag))


def test_roots_from_roots_round_trip():
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(100):
        n_pairs = int(rng.integers(0, 4))
        n_real = int(rng.integers(1, 13 - 2 * n_pairs))
        roots = []
        for _ in range(n_pairs):
            c = complex(rng.normal(), abs(rng.normal()) + 0.05)
            roots += [c, c.conjugate()]
        roots += [complex(rng.normal(), 0.0) for _ in range(n_real)]
        # np.poly builds both coefficient sets, independently of doblab
        p = Polynomial(tuple(np.poly(roots).real))
        back = np.poly(poly_roots(p)).real
        scale = max(abs(c) for c in p.coeffs)
        assert np.allclose(back, p.coeffs, rtol=0.0, atol=1e-8 * scale)


# ---------------------------------------------------------------------------
# known roots


def test_known_roots_must_number_the_degree():
    with pytest.raises(ValueError, match="1 known roots for degree 2"):
        Polynomial((1.0, 0.0, 0.0), (0.0,))
    with pytest.raises(ValueError, match="known roots"):
        Polynomial((2.0,), (1.0,))
    # the degree is counted after exact leading zeros are stripped
    with pytest.raises(ValueError, match="known roots"):
        Polynomial((0.0, 1.0, 1.0), (-1.0, -1.0))
    assert Polynomial((0.0, 1.0, 1.0), (-1.0,)).roots == (-1.0,)
    # a constant knows it has no roots; the known roots are not compared
    assert Polynomial((3.0,)).known_roots == ()
    assert Polynomial((1.0, 2.0), (-2.0,)) == Polynomial((1.0, 2.0))


def _counted_solves(monkeypatch) -> list:
    calls = []
    solve = lti.poly_roots
    monkeypatch.setattr(lti, "poly_roots", lambda p: calls.append(p) or solve(p))
    return calls


def test_known_times_known_is_the_union_unsolved(monkeypatch):
    calls = _counted_solves(monkeypatch)
    a = Polynomial((1.0, 2.0), (-2.0,))
    b = Polynomial((1.0, 1.0, 0.0), (-1.0, 0.0))
    prod = a * b
    assert prod.coeffs == tuple(np.convolve(a.coeffs, b.coeffs))
    assert prod.roots == (-2.0, -1.0, 0.0)
    assert calls == []


def test_known_times_unknown_is_solved(monkeypatch):
    calls = _counted_solves(monkeypatch)
    prod = Polynomial((1.0, 2.0), (-2.0,)) * Polynomial((1.0, 1.0, 0.0))
    assert prod.known_roots is None
    _match_root_sets(prod.roots, (-2.0, -1.0, 0.0), 1e-15)
    assert prod.roots is prod.roots  # solved once, then cached
    assert calls == [prod]


# ---------------------------------------------------------------------------
# calling a system / tf_connect


def test_eval_zero_at_unit():
    assert s_i(0.5)(1.0) == 0.0


def test_eval_nyquist_point_value():
    val = s_i(0.5)(-1.0)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_eval_matches_brute_force_cubic():
    num = Polynomial((2.0, -1.0, 0.5, 3.0))
    den = Polynomial((1.0, 0.0, -0.25, 1.0))
    tf = RationalTransferFunction(num, den)
    z = 2.0
    brute_n = sum(c * z ** k for k, c in enumerate(reversed(num.coeffs)))
    brute_d = sum(c * z ** k for k, c in enumerate(reversed(den.coeffs)))
    assert tf(z) == pytest.approx(brute_n / brute_d, rel=1e-15)


def test_eval_refuses_pole():
    with pytest.raises(ValueError, match="evaluation at pole"):
        s_i(0.5)(0.5)


def test_eval_refuses_within_pole_eval_tol():
    # a call refuses where |den| <= POLE_EVAL_TOL of its scale, so next to
    # a pole as well as on it; S = u/(u + x) at u = -2 has |den| = 2 - x
    with pytest.raises(ValueError, match="evaluation at pole"):
        s_i(2.0 - 1e-12)(-1.0)
    assert s_i(2.0 - 1e-6)(-1.0) == pytest.approx(2e6, rel=1e-9)


def test_connect_feedback_builds_complementary():
    # closing the loop is LoopSet.from_open_loop: T = L/(1 + L)
    x = 0.5
    L = RationalTransferFunction(Polynomial((x,)), Polynomial((1.0, 0.0)), ts=1e-3)
    t = LoopSet.from_open_loop(L).T
    assert t.num.coeffs == (x,)
    assert t.den.coeffs == (1.0, x)


def test_connect_series_identity():
    tf = s_i(1.2)
    one = RationalTransferFunction(Polynomial((1.0,)), Polynomial((1.0,)), ts=1e-3)
    out = tf_connect(tf, one)
    assert out.num.coeffs == tf.num.coeffs
    assert out.den.coeffs == tf.den.coeffs


def test_connect_domain_mismatch():
    ct = RationalTransferFunction(Polynomial((1.0,)), Polynomial((1.0, 0.0)))
    dt = s_i(0.5)
    with pytest.raises(ValueError, match="domain mismatch"):
        tf_connect(ct, dt)
    other = s_i(0.5, ts=2e-3)
    with pytest.raises(ValueError, match="domain mismatch"):
        tf_connect(dt, other)


# ---------------------------------------------------------------------------
# stability


def test_stability_examples():
    assert is_stable(t_i(0.5)).stability is Stability.STABLE
    marginal = is_stable(t_i(2.0))
    assert marginal.stability is Stability.MARGINAL
    assert marginal.worst_pole == pytest.approx(-1.0)
    bad = is_stable(t_i(2.5))
    assert bad.stability is Stability.UNSTABLE
    assert bad.worst_pole == pytest.approx(-1.5)
    assert not bad.is_stable
    assert not marginal.is_stable


def test_stability_rejects_improper():
    tf = RationalTransferFunction(Polynomial((1.0, 0.0, 0.0)), Polynomial((1.0, 1.0)))
    with pytest.raises(ValueError, match="proper"):
        is_stable(tf)


def test_stability_agrees_with_explicit_root_check():
    rng = np.random.Generator(np.random.PCG64(53))
    for _ in range(1000):
        deg = int(rng.integers(1, 7))
        den = rng.normal(size=deg + 1)
        if abs(den[0]) < 0.1:
            den[0] = 1.0
        discrete = bool(rng.integers(0, 2))
        ts = 1e-3 if discrete else None
        tf = RationalTransferFunction(
            Polynomial((1.0,)), Polynomial(tuple(den)), ts=ts
        )
        verdict = is_stable(tf)
        roots = poly_roots(tf.den)
        if discrete:
            # the stored variable is u = z - 1
            worst = max(abs(1.0 + r) for r in roots) - 1.0
        else:
            worst = max(r.real for r in roots)
        if worst < -BOUNDARY_TOL:
            assert verdict.stability is Stability.STABLE
        elif worst <= BOUNDARY_TOL:
            assert verdict.stability is Stability.MARGINAL
        else:
            assert verdict.stability is Stability.UNSTABLE


def test_classify_roots_empty_is_stable():
    assert classify_roots((), None).stability is Stability.STABLE


@settings(max_examples=300, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e300), min_size=1, max_size=40))
def test_hypot_of_parts_is_python_abs(values):
    # stable_rows takes |r| as hypot of the parts because that is bitwise
    # Python's abs of a complex, which classify_roots uses (past the float
    # range abs raises OverflowError where hypot gives inf)
    z = np.array(values, dtype=complex)
    want = np.array([abs(v) for v in values])
    assert np.hypot(z.real, z.imag).tobytes() == want.tobytes()


@pytest.mark.parametrize("ts", [None, 1e-3])
def test_stable_rows_equal_classify_roots(ts):
    rng = np.random.Generator(np.random.PCG64(97))
    # roots scattered around the boundary band, some rows within ulps of it
    edge = 1.0 - BOUNDARY_TOL if ts is not None else -BOUNDARY_TOL
    roots = 0.3 * (rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4)))
    if ts is None:
        roots -= 0.5
    roots[::3, 0] = edge + rng.integers(-8, 9, size=len(roots[::3])) * math.ulp(1.0)
    want = [classify_roots(tuple(row), ts).is_stable for row in roots.tolist()]
    assert stable_rows(roots, ts).tolist() == want
    assert 0 < sum(want[::3]) < len(want[::3]) and 0 < sum(want) < len(want)


# ---------------------------------------------------------------------------
# frequency response: LoopSet.st_response, the array evaluator


def _inner_loop(x, ts=1e-3):
    """Sampled inner loop x/(z - 1) = x/u: its S is s_i(x) and its T is t_i(x)."""
    L = RationalTransferFunction(Polynomial((x,)), Polynomial((1.0, 0.0)), ts=ts)
    return LoopSet.from_open_loop(L)


def test_freq_response_low_frequency_sensitivity_vanishes():
    _, values, _ = _inner_loop(0.5).st_response([1e-6, 1e-3, 1.0])
    assert abs(values[0]) < 1e-8


def test_freq_response_nyquist_values():
    ts = 1e-3
    nyq = math.pi / ts
    _, (v1,), _ = _inner_loop(1.0, ts).st_response([nyq])
    assert abs(v1) == pytest.approx(2.0, rel=1e-12)
    _, _, (v2,) = _inner_loop(0.5, ts).st_response([nyq])
    assert abs(v2) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_freq_response_grid_validation():
    ls = _inner_loop(0.5)
    bad = [
        ("increasing", [2.0, 1.0]),
        ("nonnegative", [-1.0, 1.0]),
        ("Nyquist", [0.0, 2.0 * math.pi / 1e-3]),
        ("nonempty", []),
        ("finite", [0.0, math.nan]),
        ("finite", [0.0, math.inf]),
    ]
    for why, omega in bad:
        with pytest.raises(ValueError, match=why):
            ls.st_response(omega)


def test_freq_response_pole_on_grid_names_omega():
    # L = -1/(s + 1) has no pole on the axis, but 1 + L = s/(s + 1)
    # vanishes at s = 0, so S is undefined on the omega = 0 grid point
    L = RationalTransferFunction(Polynomial((-1.0,)), Polynomial((1.0, 1.0)))
    with pytest.raises(ValueError, match=r"omega=0\.0 rad/s"):
        LoopSet.from_open_loop(L).st_response([0.0, 1.0])
    # an open-loop pole on the grid is not a closed-loop one: the integrator
    # 1/s gives S = 0 and T = 1 at omega = 0
    L = RationalTransferFunction(Polynomial((1.0,)), Polynomial((1.0, 0.0)))
    _, s_vals, t_vals = LoopSet.from_open_loop(L).st_response([0.0, 1.0])
    assert s_vals[0] == 0.0 and t_vals[0] == 1.0


def test_freq_response_phase_and_magnitude_consistency():
    # the magnitude and phase the freq subcommand prints, point by point,
    # against Horner on the stored coefficients
    ls = _inner_loop(0.5)
    omega = np.linspace(10.0, 3000.0, 64)
    _, _, values = ls.st_response(omega)
    for w, v in zip(omega, values):
        p = contour_points(float(w) / ls.T.nyquist * math.pi, True)
        ref = ls.T.num(p) / ls.T.den(p)
        assert abs(v) == pytest.approx(abs(ref), rel=1e-13)
        assert cmath.phase(v) == pytest.approx(cmath.phase(ref), rel=1e-13, abs=1e-15)
