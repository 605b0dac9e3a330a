"""Peaks, waterbed integrals, design constraints, and parameter sweeps."""

import math

import numpy as np
import pytest

from doblab.analysis import (
    OuterGainAudit,
    PeakSpec,
    audit_outer_gain_condition,
    bode_integral,
    check_constraints,
    critical_parameter,
    max_bandwidth,
    nyquist_s_magnitude,
    nyquist_t_magnitude,
    root_locus,
    sensitivity_peak,
)
from doblab.loops import LoopSet, inner_loop_ct, inner_loop_dt, outer_loop_ct, outer_loop_dt
from doblab.lti import Polynomial, RationalTransferFunction, classify_roots, poly_roots
from doblab.params import DObParams, OuterGains

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
    # golden-section refinement can round a point just off DC to a value an
    # ulp above 1, and the tie rule must still report DC itself
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
    # L = 1.5/(z - 1.5): open-loop pole outside the circle, closed loop
    # stable; quadrature must reproduce the 2*pi*ln of the pole radius
    L = RationalTransferFunction(
        Polynomial((1.5,)), Polynomial((1.0, -1.5)), ts=TS
    )
    r = bode_integral(L)
    assert r.rhp_pole_sum == pytest.approx(math.log(1.5), rel=1e-12)
    assert r.predicted == pytest.approx(2.0 * math.pi * math.log(1.5), rel=1e-12)
    assert r.value == pytest.approx(r.predicted, abs=1e-6)


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
    with pytest.raises(ValueError, match="alpha"):
        max_bandwidth(0.0, 1e-3, spec)
    with pytest.raises(ValueError, match="ts"):
        max_bandwidth(1.0, 0.0, spec)


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
    for alpha in (1e-5, 1e-3, 0.1, 1.0):
        audit = audit_outer_gain_condition(
            DObParams(alpha=alpha, g_dob=750.0), SWEEP_GAINS
        )
        assert audit.predicate_ok == (audit.margin > 0.0)


# -------------------------------------------------------------- root locus


def _dt_alpha_build(alpha: float) -> LoopSet:
    return outer_loop_dt(DObParams(alpha=alpha, g_dob=750.0, ts=1e-3), SWEEP_GAINS)


def test_root_locus_residual_invariant():
    values = np.linspace(1.0, 5.0, 41)
    table = root_locus(_dt_alpha_build, values)
    assert len(table) == 41
    for row in table:
        chi = _dt_alpha_build(row.param).S.den
        bound = 1e-8 * chi.max_abs
        for r in row.roots:
            assert abs(chi(r)) <= bound * max(1.0, abs(r)) ** chi.degree


def test_root_locus_single_flip_over_alpha():
    table = root_locus(_dt_alpha_build, np.linspace(1.0, 5.0, 41))
    assert table.rows[0].stable
    assert not table.rows[-1].stable
    assert table.flip_count() == 1


def _dt_gdob_build(g_dob: float) -> LoopSet:
    return outer_loop_dt(DObParams(alpha=0.01, g_dob=g_dob, ts=1e-3), SWEEP_GAINS)


@pytest.mark.parametrize(
    "build, values",
    [
        (_dt_alpha_build, np.linspace(1.0, 5.0, 2000)),
        (_dt_gdob_build, np.logspace(2.0, 6.0, 2000)),
    ],
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

    table = root_locus(build, values)
    assert [row.param for row in table] == [float(v) for v in values]
    for row in table:
        loops = build(row.param)
        roots = poly_roots(loops.S.den)
        # same values, same order, same signs of zero
        got = np.array(row.roots).tobytes()
        assert got == np.array(roots).tobytes()
        assert got == companion_roots(loops.S.den).tobytes()
        assert row.stable == classify_roots(roots, loops.L.ts).is_stable
    # both sweeps cross the stability boundary
    assert table.flip_count() >= 1


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

    with pytest.raises(ValueError, match=r"failed at parameter 5\.0: undefined roots"):
        root_locus(static_build, [1.0, 2.0, 5.0, 6.0])


def test_root_locus_requires_values():
    with pytest.raises(ValueError, match="at least one"):
        root_locus(_dt_alpha_build, [])


# ------------------------------------------------------ critical parameter


def test_critical_parameter_inner_loop():
    g, ts = 1000.0, 1e-3

    def build(alpha: float) -> LoopSet:
        return inner_loop_dt(DObParams(alpha=alpha, g_dob=g, ts=ts))

    # boundary at alpha*g*ts = 2
    crit = critical_parameter(build, 1.5, 3.0)
    assert crit == pytest.approx(2.0, rel=1e-5)


def test_critical_parameter_outer_ct_matches_routh_bound():
    g = 750.0
    kp, kd = SWEEP_GAINS.kp, SWEEP_GAINS.kd

    def build(alpha: float) -> LoopSet:
        return outer_loop_ct(DObParams(alpha=alpha, g_dob=g), SWEEP_GAINS)

    crit = critical_parameter(build, 1e-4, 1e-2)
    # Routh condition on s^3 + a*(g+kd) s^2 + a*(kp+g*kd) s + a*g*kp
    alpha_low = (g * kp) / ((g + kd) * (kp + g * kd))
    assert crit == pytest.approx(alpha_low, rel=1e-4)


def test_critical_parameter_bracket_validation():
    def build(alpha: float) -> LoopSet:
        return inner_loop_dt(DObParams(alpha=alpha, g_dob=1000.0, ts=1e-3))

    with pytest.raises(ValueError, match="same stability verdict"):
        critical_parameter(build, 0.5, 1.5)
    with pytest.raises(ValueError, match="lo < hi"):
        critical_parameter(build, 3.0, 1.5)
