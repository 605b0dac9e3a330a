"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Every test prints exactly one line, ACCEPTANCE n: PASS/FAIL, visible in plain
pytest output, then asserts on the collected sub-case failures so the suite
records the same verdict.  Criterion 1 pins the sampled inner loop's peaks
against closed forms: |S| peaks at the Nyquist point for every per-sample gain
x in (0, 2), while |T| peaks at DC with value 1 for 0 < x < 1 and at the
Nyquist point with value x/(2-x) for 1 <= x < 2.
"""

import math
import time

import numpy as np
import pytest

from doblab.analysis import (
    audit_outer_gain_condition,
    bode_integral,
    critical_parameter,
    root_locus,
    sensitivity_peak,
)
from doblab.discretize import (
    DiscretizationRule,
    substitute,
    zoh_double_integrator,
)
from doblab.loops import inner_loop_ct, inner_loop_dt, outer_loop_ct, outer_loop_dt
from doblab.lti import Stability, is_stable
from doblab.params import DObParams, OuterGains
from doblab.sim import (
    PlantParams,
    Scenario,
    Step,
    Trajectory,
    simulate,
)
from oracles import inner_loop_disturbance_oracle, noise_channel_oracle, nyquist_t_magnitude

TS = 1e-3
SWEEP_GAINS = OuterGains(kp=1000.0, kd=250.0)
SWEEP_G = 750.0
SERVO_PLANT = PlantParams(jm=0.003, kt=0.25)
SERVO_GAINS = OuterGains(kp=1000.0, kd=25.0)
SERVO_TS = 1e-4


def _inner(x: float, ts: float = TS):
    return inner_loop_dt(DObParams(alpha=1.0, g_dob=x / ts, ts=ts))


def _verdict(n: int, label: str, failures: list[str], capsys) -> None:
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {status} - {label}")
    assert not failures, "\n".join(failures)


def test_criterion_1_peak_formulas(capsys):
    # L = x/(z-1) gives T = x/(z-(1-x)), so |T(e^jw)| = x/|e^jw - (1-x)|.
    # For 0 < x < 1 the pole 1-x is positive and |T| falls monotonically
    # from 1 at DC to x/(2-x) at Nyquist; for 1 < x < 2 it rises to x/(2-x)
    # at Nyquist; at x = 1 it is flat and the tie rule reports Nyquist.
    t0 = time.perf_counter()
    failures: list[str] = []
    nyq = math.pi / TS
    for x in (0.1, 0.5, 1.0, 1.5, 1.9):
        ls = _inner(x)
        s_expect = 2.0 / abs(x - 2.0)
        t_nyq_expect = x / abs(x - 2.0)
        t_peak_expect = max(1.0, x / (2.0 - x))
        t_at_expect = 0.0 if x < 1.0 else nyq

        w_s, p_s = sensitivity_peak(ls.S)
        if abs(p_s - s_expect) > 1e-9 * s_expect or abs(w_s - nyq) > 1e-9 * nyq:
            failures.append(
                f"S peak at x={x}: got ({w_s}, {p_s}), want ({nyq}, {s_expect})"
            )

        for name, got in (
            ("|T(Nyquist)|", abs(ls.st_response([nyq])[2][0])),
            ("nyquist_t_magnitude", nyquist_t_magnitude(x)),
        ):
            if abs(got - t_nyq_expect) > 1e-9 * t_nyq_expect:
                failures.append(f"{name} at x={x}: got {got}, want {t_nyq_expect}")

        w_t, p_t = sensitivity_peak(ls.T)
        if (
            abs(p_t - t_peak_expect) > 1e-9 * t_peak_expect
            or abs(w_t - t_at_expect) > 1e-9 * nyq
        ):
            failures.append(
                f"T peak at x={x}: got ({w_t}, {p_t}), "
                f"want ({t_at_expect}, {t_peak_expect})"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _verdict(
        1,
        "sampled-loop peaks: |S| at Nyquist; |T| at DC for x < 1, "
        "at Nyquist for x >= 1",
        failures,
        capsys,
    )


def test_criterion_2_discrete_integral(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    for x in (0.5, 1.5):
        rep = bode_integral(_inner(x).L)
        if abs(rep.value) > 1e-3:
            failures.append(f"x={x}: full-circle integral {rep.value} not 0 within 1e-3")
        if rep.predicted != 0.0:
            failures.append(f"x={x}: predicted {rep.predicted} should be exactly 0")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _verdict(2, "discrete sensitivity integral balances to zero", failures, capsys)


def test_criterion_3_continuous_waterbed(capsys):
    failures: list[str] = []
    # ideal velocity measurement: no peak at all
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        for g in (100.0, 250.0, 500.0, 750.0, 1000.0):
            _, peak = sensitivity_peak(inner_loop_ct(DObParams(alpha=alpha, g_dob=g)).S)
            if peak > 1.0 + 1e-12:
                failures.append(f"gv=inf alpha={alpha} g={g}: sup|S| = {peak} > 1")
    # finite velocity bandwidth: peak above 1, growing with g_dob
    peaks = []
    for g in (250.0, 500.0, 750.0, 1000.0):
        _, peak = sensitivity_peak(
            inner_loop_ct(DObParams(alpha=1.0, g_dob=g, g_v=1000.0)).S
        )
        peaks.append(peak)
        if peak <= 1.0:
            failures.append(f"gv=1000 g={g}: sup|S| = {peak} not above 1")
    if not all(a < b for a, b in zip(peaks[:-1], peaks[1:])):
        failures.append(f"gv=1000 peaks not strictly increasing: {peaks}")
    # integral values on both sides of the dichotomy
    rep = bode_integral(inner_loop_ct(DObParams(alpha=1.0, g_dob=500.0, g_v=1000.0)).L)
    if abs(rep.value) > 1e-2:
        failures.append(f"finite-gv integral {rep.value} not 0 within 1e-2")
    for alpha, g in ((1.0, 100.0), (2.0, 500.0)):
        rep = bode_integral(inner_loop_ct(DObParams(alpha=alpha, g_dob=g)).L)
        want = -0.5 * math.pi * alpha * g
        if abs(rep.value - want) > 1e-3 * abs(want):
            failures.append(
                f"gv=inf alpha={alpha} g={g}: integral {rep.value}, want {want} within 0.1%"
            )
    _verdict(
        3,
        "continuous waterbed dichotomy: flat for ideal velocity, "
        "peaked and deficit -pi*alpha*g/2 otherwise",
        failures,
        capsys,
    )


def test_criterion_4_stability_boundaries(capsys):
    failures: list[str] = []
    eps = 1e-9
    cases = [
        (2.0 - 1e-4, Stability.STABLE),
        (2.0, Stability.MARGINAL),
        (2.0 + 1e-4, Stability.UNSTABLE),
    ]
    for x, want in cases:
        got = is_stable(_inner(x).S).stability
        if got is not want:
            failures.append(f"x={x}: verdict {got.value}, want {want.value}")

    def build(alpha):
        return inner_loop_dt(DObParams(alpha=alpha, g_dob=1000.0, ts=TS))

    crit = critical_parameter(build, 1.0, 3.0)
    if abs(crit - 2.0) > 1e-6 * 2.0:
        failures.append(f"critical parameter {crit}, want 2.0 within 1e-6 relative")

    # ringing: the closed-loop pole 1-x crosses zero exactly at x = 1
    for x, negative in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
        pole = is_stable(_inner(x).S).worst_pole
        if (pole.real < 0.0) is not negative:
            failures.append(f"x={x}: pole {pole} sign unexpected")
    _verdict(
        4,
        "verdict flips Stable/Marginal/Unstable at per-sample gain 2; "
        "ringing pole appears beyond 1",
        failures,
        capsys,
    )


def test_criterion_5_design_sweeps(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    def ct_build(alpha):
        return outer_loop_ct(DObParams(alpha=alpha, g_dob=SWEEP_G), SWEEP_GAINS)

    def dt_build(alpha):
        return outer_loop_dt(DObParams(alpha=alpha, g_dob=SWEEP_G, ts=TS), SWEEP_GAINS)

    def g_build(g):
        return outer_loop_dt(DObParams(alpha=0.01, g_dob=g, ts=TS), SWEEP_GAINS)

    # (a) continuous: stability persists for arbitrarily large model mismatch
    ct = root_locus(ct_build, np.logspace(-1, 2, 30))
    big = [row for row in ct if row.param >= 1.0]
    if not big or not all(row.stable for row in big):
        failures.append("continuous sweep lost stability at large alpha")

    # (b) sampled: a finite critical alpha, below the per-sample-gain-2 envelope
    crit = critical_parameter(dt_build, 1.0, 5.0)
    envelope = 2.0 / (SWEEP_G * TS)
    if not (math.isfinite(crit) and crit <= envelope + 1e-6):
        failures.append(f"critical alpha {crit} exceeds envelope {envelope}")
    if not is_stable(dt_build(crit * 0.98).S).is_stable:
        failures.append(f"just below critical alpha {crit}: not stable")
    if is_stable(dt_build(crit * 1.02).S).is_stable:
        failures.append(f"just above critical alpha {crit}: still stable")

    # (c) bandwidth sweep at alpha = 0.01: instability at large g_dob
    table = root_locus(g_build, np.logspace(2, 6, 60))
    if table.rows[-1].stable:
        failures.append("g sweep: largest bandwidth unexpectedly stable")
    if not any(row.stable for row in table):
        failures.append("g sweep: no stable band found")

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 10 s")
    _verdict(
        5,
        f"mismatch sweeps: continuous never destabilizes, sampled critical "
        f"alpha = {crit:.6g}, bandwidth sweep hits instability",
        failures,
        capsys,
    )


def _smoothstep_trajectory(n: int, ts: float, rise: float, amplitude: float):
    t = np.arange(n) * ts
    s = np.clip(t / rise, 0.0, 1.0)
    q = amplitude * (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5)
    return Trajectory(tuple(float(v) for v in q))


def test_criterion_6_servo_properties(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    duration = 1.5
    n = int(round(duration / SERVO_TS))
    loaded = PlantParams(
        jm=SERVO_PLANT.jm, kt=SERVO_PLANT.kt, external_load=((0.5, 0.5),)
    )
    tuned = DObParams(alpha=1.0, g_dob=5000.0, ts=SERVO_TS)

    def run(dob, reference, gains=SERVO_GAINS):
        return simulate(
            Scenario(
                plant=loaded,
                dob=dob,
                gains=gains,
                reference=reference,
                duration=duration,
            )
        )

    step_trace = run(tuned, Step(1.0))
    tail = np.abs((step_trace.q_ref - step_trace.q)[-500:])
    if step_trace.diverged_at is not None or np.max(tail) >= 1e-3:
        failures.append(f"tuned step: steady error {np.max(tail)} not below 1e-3")

    traj = _smoothstep_trajectory(n, SERVO_TS, rise=0.6, amplitude=1.0)
    traj_trace = run(tuned, traj)
    tail = np.abs((traj_trace.q_ref - traj_trace.q)[-500:])
    if traj_trace.diverged_at is not None or np.max(tail) >= 1e-3:
        failures.append(f"tuned trajectory: steady error {np.max(tail)} not below 1e-3")

    # per-sample gain 2.5 must blow up
    hot = DObParams(alpha=1.0, g_dob=25_000.0, ts=SERVO_TS)
    if run(hot, Step(1.0)).diverged_at is None:
        failures.append("per-sample gain 2.5 did not diverge")

    # alpha two decades below the lead threshold: heavy oscillation
    threshold = 1.0 / (1.0 + 5000.0 * SERVO_TS)
    weak = DObParams(alpha=threshold / 100.0, g_dob=5000.0, ts=SERVO_TS)
    weak_trace = run(weak, traj)
    p2p_weak = float(np.ptp(weak_trace.q_ref - weak_trace.q))
    p2p_tuned = float(np.ptp(traj_trace.q_ref - traj_trace.q))
    if weak_trace.diverged_at is not None:
        failures.append("weak-alpha run diverged; expected bounded oscillation")
    elif not p2p_weak > 10.0 * p2p_tuned:
        failures.append(
            f"weak-alpha oscillation {p2p_weak} not 10x tuned {p2p_tuned}"
        )

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 10 s")
    _verdict(
        6,
        "servo properties: tuned tracking under load, divergence at "
        "per-sample gain 2.5, oscillation far below the lead threshold",
        failures,
        capsys,
    )


def test_criterion_7_oracle_equivalence(capsys):
    failures: list[str] = []
    ts = 1e-4
    n = 10_000
    rng = np.random.Generator(np.random.PCG64(101))
    d = rng.uniform(-0.3, 0.3, n)
    plant = PlantParams(
        jm=0.003,
        kt=0.25,
        external_load=tuple((k * ts, float(d[k])) for k in range(n)),
    )
    p = DObParams(alpha=1.0, g_dob=5000.0, ts=ts)
    trace = simulate(
        Scenario(plant=plant, dob=p, gains=None, reference=Step(0.0), duration=n * ts)
    )
    a_sim = np.diff(trace.qdot) / ts
    a_ref = inner_loop_disturbance_oracle(p, plant.jm, d)
    worst = float(np.max(np.abs(a_sim - a_ref[:-1])))
    if worst > 1e-9:
        failures.append(f"simulator vs filter oracle: worst step error {worst} > 1e-9")

    # DC rejection: deadbeat case zeroes after the edge, generic case
    # underflows to exactly zero
    deadbeat = noise_channel_oracle(
        DObParams(alpha=1.0, g_dob=10_000.0, ts=ts), np.full(50, 0.3)
    )
    if deadbeat[0] == 0.0 or np.any(deadbeat[1:] != 0.0):
        failures.append("deadbeat noise channel did not cancel constant input exactly")
    generic = noise_channel_oracle(p, np.full(3000, 0.3))
    if generic[-1] != 0.0:
        failures.append(f"generic noise channel retains DC: tail {generic[-1]!r}")
    _verdict(
        7,
        f"simulator matches the loop-algebra oracle (worst step error "
        f"{worst:.2e}); constant noise is rejected exactly",
        failures,
        capsys,
    )


def test_criterion_8_structural_identities(capsys):
    failures: list[str] = []
    battery = [
        ("inner dt x=0.5", inner_loop_dt(DObParams(alpha=1.0, g_dob=500.0, ts=TS))),
        ("inner dt x=1.9", inner_loop_dt(DObParams(alpha=1.9, g_dob=1000.0, ts=TS))),
        ("inner ct", inner_loop_ct(DObParams(alpha=1.0, g_dob=100.0))),
        ("inner ct gv", inner_loop_ct(DObParams(alpha=2.0, g_dob=300.0, g_v=500.0))),
        ("outer ct", outer_loop_ct(DObParams(alpha=1.0, g_dob=SWEEP_G), SWEEP_GAINS)),
        (
            "outer ct gv",
            outer_loop_ct(DObParams(alpha=1.0, g_dob=SWEEP_G, g_v=1000.0), SWEEP_GAINS),
        ),
        (
            "outer dt",
            outer_loop_dt(DObParams(alpha=1.0, g_dob=SWEEP_G, ts=TS), SWEEP_GAINS),
        ),
        (
            "outer dt low alpha",
            outer_loop_dt(DObParams(alpha=0.01, g_dob=SWEEP_G, ts=TS), SWEEP_GAINS),
        ),
    ]
    for name, ls in battery:
        if ls.L.ts is None:
            om = np.logspace(-2, 6, 1000)
        else:
            om = np.linspace(0.0, math.pi / ls.L.ts, 1000)
        _, s_vals, t_vals = ls.st_response(om)
        worst = float(np.max(np.abs(s_vals + t_vals - 1.0)))
        if worst > 1e-12:
            failures.append(f"{name}: |S+T-1| = {worst} > 1e-12")

    # ZoH step invariance against the continuous double integrator
    ts = 1e-3
    gp = zoh_double_integrator(1.0, ts)
    h = gp.num.coeffs[0]
    y_prev2 = 0.0
    y_prev1 = h  # first step: only u[0] has entered
    worst = abs(y_prev1 - (ts * ts) / 2.0)
    for k in range(2, 1000):
        y = 2.0 * y_prev1 - y_prev2 + 2.0 * h
        t = k * ts
        worst = max(worst, abs(y - 0.5 * t * t))
        y_prev2, y_prev1 = y_prev1, y
    if worst > 1e-12:
        failures.append(f"ZoH step invariance error {worst} > 1e-12")

    # forward-Euler substitution reproduces the native sampled inner loop
    for alpha, g, tss in ((1.0, 500.0, 1e-3), (0.7, 1234.0, 1e-4), (2.5, 600.0, 1e-3)):
        ct = inner_loop_ct(DObParams(alpha=alpha, g_dob=g))
        sub = substitute(ct.L, tss, DiscretizationRule.FORWARD_EULER)
        native = inner_loop_dt(DObParams(alpha=alpha, g_dob=g, ts=tss)).L
        if sub.num.coeffs != native.num.coeffs or sub.den.coeffs != native.den.coeffs:
            failures.append(
                f"forward Euler alpha={alpha} g={g} ts={tss}: "
                f"{sub.num.coeffs}/{sub.den.coeffs} vs "
                f"{native.num.coeffs}/{native.den.coeffs}"
            )
    _verdict(
        8,
        "S+T identity on every loop set, ZoH step invariance, "
        "forward-Euler reproduces the sampled estimator loop",
        failures,
        capsys,
    )


def test_criterion_9_gain_predicate_audit(capsys):
    failures: list[str] = []
    pinned = audit_outer_gain_condition(
        DObParams(alpha=0.01, g_dob=SWEEP_G), SWEEP_GAINS
    )
    if not pinned.agree:
        failures.append(
            f"design point alpha=0.01: predicate {pinned.predicate_ok} vs "
            f"roots {pinned.root_stable}"
        )
    disagreements = []
    for alpha in np.logspace(-6, 1, 50):
        audit = audit_outer_gain_condition(
            DObParams(alpha=float(alpha), g_dob=SWEEP_G), SWEEP_GAINS
        )
        if not audit.agree:
            disagreements.append(float(alpha))
    note = "none"
    if disagreements:
        note = (
            f"{len(disagreements)} points in "
            f"[{min(disagreements):.3g}, {max(disagreements):.3g}]"
        )
    _verdict(
        9,
        f"analytic gain predicate agrees with the root oracle at the design "
        f"point; flagged disagreements elsewhere (non-blocking): {note}",
        failures,
        capsys,
    )
