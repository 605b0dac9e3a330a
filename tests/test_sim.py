"""Servo simulation: oracle equivalence, determinism, divergence, and logging."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from doblab.params import DObParams, OuterGains
from doblab.sim import (
    DIVERGENCE_LIMIT,
    PlantParams,
    Scenario,
    SimTrace,
    Step,
    Trajectory,
    _plant_step,
    _viscous_decay,
    simulate,
)
import oracles
from oracles import (
    inner_loop_disturbance_oracle,
    load_response_oracle,
    noise_channel_oracle,
    step_response_oracle,
)

PLANT = PlantParams(jm=0.003, kt=0.25)
TUNED = DObParams(alpha=1.0, g_dob=5000.0, ts=1e-4)
PD = OuterGains(kp=1000.0, kd=25.0)


def _step_scenario(duration=0.3, **kw):
    defaults = dict(
        plant=PLANT,
        dob=TUNED,
        gains=PD,
        reference=Step(1.0),
        duration=duration,
    )
    defaults.update(kw)
    return Scenario(**defaults)


# -------------------------------------------------------------- validation


def test_plant_params_validation():
    with pytest.raises(ValueError, match="jm"):
        PlantParams(jm=0.0, kt=0.25)
    with pytest.raises(ValueError, match="kt"):
        PlantParams(jm=0.003, kt=-1.0)
    with pytest.raises(ValueError, match="viscous"):
        PlantParams(jm=0.003, kt=0.25, viscous=-0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        PlantParams(jm=0.003, kt=0.25, external_load=((0.5, 1.0), (0.5, 2.0)))
    for entry in ((math.nan, 0.5), (0.002, math.nan), (math.inf, 0.5), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PlantParams(jm=0.003, kt=0.25, external_load=(entry,))


def test_reference_validation():
    with pytest.raises(ValueError, match="finite"):
        Step(math.inf)
    with pytest.raises(ValueError, match="at least one"):
        Trajectory(())
    with pytest.raises(ValueError, match="finite"):
        Trajectory((0.0, math.nan))


def test_scenario_validation():
    with pytest.raises(ValueError, match="duration"):
        _step_scenario(duration=0.0)
    with pytest.raises(ValueError, match="noise_amplitude"):
        _step_scenario(noise_amplitude=-1.0)
    with pytest.raises(ValueError, match="sampling period required"):
        _step_scenario(dob=DObParams(alpha=1.0, g_dob=5000.0))
    with pytest.raises(ValueError, match="shorter than one sampling period"):
        _step_scenario(duration=1e-5)
    with pytest.raises(ValueError, match="trajectory length"):
        _step_scenario(reference=Trajectory((0.0,) * 10), duration=0.3)


def test_duration_rounds_to_nearest_tick():
    ts = TUNED.ts
    for ticks, want in ((10.4, 10), (10.6, 11)):
        sc = _step_scenario(duration=ticks * ts)
        assert sc.n_steps == want
        assert len(simulate(sc)) == want


def test_simulate_rejects_bad_substeps():
    with pytest.raises(ValueError, match="log_substeps"):
        simulate(_step_scenario(duration=0.01), log_substeps=0)


def test_load_at_semantics():
    plant = PlantParams(
        jm=0.003, kt=0.25, external_load=((0.5, 1.0), (0.8, -2.0))
    )
    assert plant.load_at(0.0) == 0.0
    assert plant.load_at(0.49) == 0.0
    assert plant.load_at(0.5) == 1.0  # takes effect at its own time
    assert plant.load_at(0.65) == 1.0
    assert plant.load_at(0.8) == -2.0
    assert plant.load_at(100.0) == -2.0  # last value holds
    # an array of times gives the scalar answer element by element, also
    # with no schedule at all
    times = np.array([-1.0, 0.0, 0.49, 0.5, 0.65, 0.8, 100.0])
    for p in (plant, PlantParams(jm=0.003, kt=0.25)):
        loads = p.load_at(times)
        assert loads.shape == times.shape
        assert loads.tolist() == [p.load_at(float(t)) for t in times]


@pytest.mark.parametrize("ts", [1e-4, 3e-4, 7e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("written", ["decimal", "product"])
def test_loads_start_on_the_tick_they_are_written_for(ts, written):
    # a load at tick k, written as the decimal k*ts (0.003 for k = 10 and
    # ts = 3e-4) or as the float product k*ts, starts on tick k; 1 715 of the
    # decimals at ts = 3e-4 and 210 at 7e-4 lie just above the float product
    n = 3000
    if written == "decimal":
        times = [float(Fraction(k) * Fraction(str(ts))) for k in range(1, n)]
    else:
        times = [k * ts for k in range(1, n)]
    torques = [1e-3 * k for k in range(1, n)]
    sc = Scenario(
        plant=PlantParams(jm=0.003, kt=0.25, external_load=tuple(zip(times, torques))),
        dob=DObParams(alpha=1.0, g_dob=0.5 / ts, ts=ts),
        gains=None,
        reference=Step(0.0),
        duration=n * ts,
    )
    assert simulate(sc).tau_d.tolist() == [0.0] + torques


def test_reference_and_noise_samples():
    sc = _step_scenario(duration=0.01)
    assert np.all(sc.reference_samples() == 1.0)
    assert len(sc.reference_samples()) == 100
    assert np.all(sc.noise_samples() == 0.0)

    noisy = _step_scenario(duration=0.01, noise_amplitude=0.3, noise_seed=7)
    n1, n2 = noisy.noise_samples(), noisy.noise_samples()
    assert np.array_equal(n1, n2)  # seeded: reproducible
    assert np.max(np.abs(n1)) <= 0.3
    other = _step_scenario(duration=0.01, noise_amplitude=0.3, noise_seed=8)
    assert not np.array_equal(n1, other.noise_samples())


# --------------------------------------------------------- oracle equality


def test_disturbance_channel_matches_oracle():
    # open the outer loop and drive with a fresh random load each tick; the
    # realized acceleration must follow the loop-algebra recursion
    ts = 1e-4
    n = 10_000
    rng = np.random.Generator(np.random.PCG64(11))
    d = rng.uniform(-0.3, 0.3, n)
    plant = PlantParams(
        jm=0.003,
        kt=0.25,
        external_load=tuple((k * ts, float(d[k])) for k in range(n)),
    )
    p = DObParams(alpha=1.0, g_dob=5000.0, ts=ts)
    sc = Scenario(
        plant=plant, dob=p, gains=None, reference=Step(0.0), duration=n * ts
    )
    trace = simulate(sc)
    a_sim = np.diff(trace.qdot) / ts
    a_ref = inner_loop_disturbance_oracle(p, plant.jm, d)
    assert np.max(np.abs(a_sim - a_ref[:-1])) <= 1e-9


def test_noise_channel_matches_oracle():
    ts = 1e-4
    n = 10_000
    p = DObParams(alpha=1.0, g_dob=5000.0, ts=ts)
    sc = Scenario(
        plant=PLANT,
        dob=p,
        gains=None,
        reference=Step(0.0),
        duration=n * ts,
        noise_seed=23,
        noise_amplitude=0.05,
    )
    trace = simulate(sc)
    a_sim = np.diff(trace.qdot) / ts
    a_ref = noise_channel_oracle(p, sc.noise_samples())
    assert np.max(np.abs(a_sim - a_ref[:-1])) <= 1e-9


def test_step_response_is_the_sampled_t():
    # ideal velocity, a rigid plant, no load and no noise: the tick positions
    # are the step response of the sampled T = L/(1 + L), tick for tick
    rng = np.random.Generator(np.random.PCG64(41))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    for _ in range(20):
        alpha, ts = log_uniform(0.5, 2.0), log_uniform(1e-4, 1e-2)
        p = DObParams(alpha, log_uniform(0.05, 1.5) / (alpha * ts), ts=ts)
        wn = log_uniform(0.01, 0.3) / ts
        gains = OuterGains(kp=wn * wn, kd=log_uniform(0.5, 2.0) * wn)
        plant = PlantParams(jm=log_uniform(1e-3, 1.0), kt=log_uniform(0.1, 10.0))
        trace = simulate(
            Scenario(plant=plant, dob=p, gains=gains, reference=Step(1.0), duration=300 * ts)
        )
        y = step_response_oracle(p, gains, 300)
        assert trace.diverged_at is None and len(trace) == 300
        assert np.max(np.abs(trace.q - y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))


def test_load_response_is_the_sampled_load_channel():
    # ideal velocity, the reference at 0 and one load step at tick k0: the
    # tick positions are the load channel -(1/jm) G_p S_i S_o, tick for tick.
    # An oracle whose g_dob is off by 1e-6 relative misses the bound
    rng = np.random.Generator(np.random.PCG64(43))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    for _ in range(20):
        alpha, ts = log_uniform(0.5, 2.0), log_uniform(1e-4, 1e-2)
        p = DObParams(alpha, log_uniform(0.05, 1.5) / (alpha * ts), ts=ts)
        wn = log_uniform(0.01, 0.3) / ts
        gains = OuterGains(kp=wn * wn, kd=log_uniform(0.5, 2.0) * wn)
        jm, k0, d = log_uniform(1e-3, 1.0), int(rng.integers(0, 100)), log_uniform(0.01, 10.0)
        plant = PlantParams(jm=jm, kt=log_uniform(0.1, 10.0), external_load=((k0 * ts, d),))
        trace = simulate(
            Scenario(plant=plant, dob=p, gains=gains, reference=Step(0.0), duration=300 * ts)
        )
        load = np.where(np.arange(300) >= k0, d, 0.0)
        assert trace.tau_d.tolist() == load.tolist()
        y = load_response_oracle(p, gains, jm, load)
        assert trace.diverged_at is None and len(trace) == 300
        bound = 1e-9 * np.max(np.abs(y))
        assert np.max(np.abs(trace.q - y)) <= bound
        off = DObParams(p.alpha, p.g_dob * (1.0 + 1e-6), ts=ts)
        assert np.max(np.abs(trace.q - load_response_oracle(off, gains, jm, load))) > bound


def test_oracles_import_only_params():
    # the oracles share no code with what they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert {m for m in imported if m.partition(".")[0] == "doblab"} == {"doblab.params"}


def test_oracles_zero_input():
    p = DObParams(alpha=1.0, g_dob=5000.0, ts=1e-4)
    assert np.all(inner_loop_disturbance_oracle(p, 0.003, np.zeros(100)) == 0.0)
    assert np.all(noise_channel_oracle(p, np.zeros(100)) == 0.0)


def test_disturbance_oracle_step_decay():
    # unit-step load with per-sample gain 0.5: geometric decay toward zero
    p = DObParams(alpha=1.0, g_dob=5000.0, ts=1e-4)  # x = 0.5
    jm = 0.003
    y = inner_loop_disturbance_oracle(p, jm, np.ones(60))
    assert y[0] == pytest.approx(-1.0 / jm, rel=1e-15)
    ratios = y[1:20] / y[:19]
    assert np.allclose(ratios, 0.5, rtol=1e-12)
    assert abs(y[-1]) < abs(y[0]) * 0.5**55


def test_noise_oracle_kills_dc():
    # deadbeat case x = 1: the differencer returns exactly zero after the edge
    p = DObParams(alpha=1.0, g_dob=10_000.0, ts=1e-4)
    y = noise_channel_oracle(p, np.full(50, 0.7))
    assert y[0] != 0.0
    assert np.all(y[1:] == 0.0)
    # generic x: geometric decay of the DC content
    p2 = DObParams(alpha=1.0, g_dob=5000.0, ts=1e-4)
    y2 = noise_channel_oracle(p2, np.full(80, 0.7))
    assert abs(y2[-1]) <= 1e-12


def test_noise_response_grows_with_bandwidth():
    rng = np.random.Generator(np.random.PCG64(31))
    noise = rng.uniform(-0.01, 0.01, 100_000)
    variances = []
    for g in (2500.0, 5000.0, 10_000.0):
        p = DObParams(alpha=1.0, g_dob=g, ts=1e-4)
        y = noise_channel_oracle(p, noise)
        variances.append(float(np.var(y)))
    assert variances[0] < variances[1] < variances[2]


# ------------------------------------------------- plain tick-loop reference


def _reference_trace(sc, m):
    """simulate written as a plain per-tick, per-row loop.

    The load comes from a scan of the schedule and every sub-step row from
    the scalar plant step, so no array code of simulate is reused.
    """
    ts = sc.dob.ts
    plant, dob, gains = sc.plant, sc.dob, sc.gains
    refs, noise = sc.reference_samples(), sc.noise_samples()
    jn = dob.alpha * plant.jm
    nan = math.nan
    rows = []
    q = v = tau_hat = vf_prev = e_prev = 0.0
    diverged_at = None
    for k in range(sc.n_steps):
        ref = float(refs[k])
        load = 0.0
        for when, torque in plant.external_load:
            if when <= (k + 1e-9) * ts:
                load = torque
        if diverged_at is None and abs(q) > DIVERGENCE_LIMIT:
            diverged_at = k * m
        if diverged_at is not None:
            rows += [(ref, nan, nan, nan, load, nan)] * m
            continue
        vm = v + float(noise[k])
        if math.isinf(dob.g_v):
            vf = vm
        else:
            vf = (vf_prev + dob.g_v * ts * vm) / (1.0 + dob.g_v * ts)
        acc_des = 0.0
        if gains is not None:
            e = ref - q
            acc_des = gains.kp * e + gains.kd * (e - e_prev) / ts
            e_prev = e
        tau_hat = tau_hat + dob.g_dob * jn * (ts * acc_des - (vf - vf_prev))
        vf_prev = vf
        u = plant.kt * (jn * acc_des + tau_hat) / plant.kt
        force = u - load
        rows.append((ref, q, v, u, load, tau_hat))
        for j in range(1, m):
            dt = j * (ts / m)
            decay = _viscous_decay(plant.jm, plant.viscous, dt)
            qj, vj = _plant_step(q, v, force, plant.jm, plant.viscous, dt, decay)
            rows.append((ref, qj, vj, u, load, tau_hat))
        decay = _viscous_decay(plant.jm, plant.viscous, ts)
        q, v = _plant_step(q, v, force, plant.jm, plant.viscous, ts, decay)
    t = [i * (ts / m) for i in range(len(rows))]
    return [np.array(t)] + [np.array(col) for col in zip(*rows)], diverged_at


def _draw_scenario(rng):
    ts = float(rng.choice([1e-4, 2.5e-4, 1e-3]))
    n = int(rng.integers(20, 300))
    alpha = float(rng.uniform(0.5, 2.0))
    # per-sample gains above 2.5 diverge well inside the run
    x = float(rng.uniform(0.05, 1.9)) if rng.random() < 0.7 else float(rng.uniform(2.5, 3.5))
    g_v = math.inf if rng.random() < 0.5 else float(rng.uniform(0.5, 5.0)) / ts
    viscous = 0.0 if rng.random() < 0.5 else float(rng.uniform(1e-3, 0.5))
    times = []
    count = int(rng.integers(0, 5))
    if count >= 1:
        times.append(0.0)
    if count >= 2:
        times.append((int(rng.integers(1, n)) + 0.5) * ts)  # between ticks
    times += [float(t) for t in rng.uniform(0.0, n * ts, max(count - 2, 0))]
    times = sorted(set(times))
    load = tuple((t, float(rng.uniform(-1.0, 1.0))) for t in times)
    if rng.random() < 0.4:
        reference = Trajectory(tuple(rng.normal(size=n).cumsum().tolist()))
    else:
        reference = Step(float(rng.uniform(-2.0, 2.0)))
    gains = None
    if rng.random() < 0.8:
        gains = OuterGains(kp=float(10 ** rng.uniform(1, 4)), kd=float(10 ** rng.uniform(-1, 2)))
    return Scenario(
        plant=PlantParams(jm=0.003, kt=0.25, viscous=viscous, external_load=load),
        dob=DObParams(alpha=alpha, g_dob=x / (alpha * ts), g_v=g_v, ts=ts),
        gains=gains,
        reference=reference,
        duration=n * ts,
        noise_seed=int(rng.integers(0, 2**31)),
        noise_amplitude=0.0 if rng.random() < 0.5 else float(rng.uniform(1e-4, 0.05)),
    )


def test_simulate_bitwise_equals_plain_tick_loop():
    rng = np.random.Generator(np.random.PCG64(2024))
    diverged = 0
    for _ in range(60):
        sc = _draw_scenario(rng)
        m = int(rng.integers(1, 13))
        trace = simulate(sc, log_substeps=m)
        want, diverged_at = _reference_trace(sc, m)
        assert trace.diverged_at == diverged_at
        diverged += diverged_at is not None
        for name, col in zip(("t", "q_ref", "q", "qdot", "u", "tau_d", "tau_d_hat"), want):
            got = getattr(trace, name)
            assert got.shape == col.shape
            assert np.array_equal(np.isnan(got), np.isnan(col)), name
            live = ~np.isnan(col)
            assert got[live].tobytes() == col[live].tobytes(), name
    assert diverged >= 5


# ------------------------------------------------------------- linearity


def test_closed_loop_linearity_in_reference():
    base = simulate(_step_scenario(duration=0.2))
    scaled = simulate(_step_scenario(duration=0.2, reference=Step(2.5)))
    scale = np.max(np.abs(base.q)) * 2.5
    assert np.max(np.abs(scaled.q - 2.5 * base.q)) <= 1e-9 * scale
    assert np.max(np.abs(scaled.u - 2.5 * base.u)) <= 1e-9 * np.max(np.abs(base.u)) * 2.5


def test_simulate_deterministic_bitwise():
    sc = _step_scenario(duration=0.1, noise_amplitude=0.02, noise_seed=5)
    t1, t2 = simulate(sc), simulate(sc)
    for name in ("t", "q_ref", "q", "qdot", "u", "tau_d", "tau_d_hat"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name), equal_nan=True)
    assert t1.diverged_at == t2.diverged_at


# ------------------------------------------------------------- first tick


def test_first_tick_hand_computed():
    trace = simulate(_step_scenario(duration=0.01))
    # e = 1: acc_des = kp + kd/ts = 1000 + 250000 = 251000
    # tau_hat = g*jn*ts*acc_des = 5000*0.003*25.1 = 376.5
    # u = (jn*acc_des + tau_hat)*kt/ktn = 753 + 376.5
    assert trace.tau_d_hat[0] == pytest.approx(376.5, rel=1e-12)
    assert trace.u[0] == pytest.approx(1129.5, rel=1e-12)
    assert trace.q[0] == 0.0 and trace.qdot[0] == 0.0
    # the first period integrates the constant command exactly
    a0 = trace.u[0] / PLANT.jm
    assert trace.q[1] == pytest.approx(0.5 * a0 * 1e-4**2, rel=1e-12)
    assert trace.qdot[1] == pytest.approx(a0 * 1e-4, rel=1e-12)


def test_trace_length():
    trace = simulate(_step_scenario(duration=0.05))
    assert len(trace) == 500


def test_step_tracking_settles():
    # dominant closed-loop decay is exp(-kd*t/2): ~4e-6 left after 1 s
    trace = simulate(_step_scenario(duration=1.0))
    tail = (trace.q_ref - trace.q)[-100:]
    assert np.max(np.abs(tail)) < 1e-3


# ------------------------------------------------------------- divergence


def test_divergence_marks_and_nans():
    # per-sample gain 2.5: the estimator loop is unstable and q blows up
    sc = _step_scenario(
        duration=0.05, dob=DObParams(alpha=1.0, g_dob=25_000.0, ts=1e-4)
    )
    trace = simulate(sc)
    k = trace.diverged_at
    assert k is not None and 0 < k < len(trace)
    for name in ("q", "qdot", "u", "tau_d_hat"):
        col = getattr(trace, name)
        assert np.all(np.isnan(col[k:]))
        assert np.all(np.isfinite(col[:k]))
    # inputs and the clock stay filled
    assert np.all(np.isfinite(trace.t))
    assert np.all(np.isfinite(trace.q_ref))
    assert np.all(np.isfinite(trace.tau_d))
    # the last finite sample had not yet crossed; the crossing state is
    # never logged
    assert abs(trace.q[k - 1]) <= DIVERGENCE_LIMIT


def test_tuned_run_does_not_diverge():
    assert simulate(_step_scenario(duration=0.2)).diverged_at is None


# ------------------------------------------------------------ sub-sampling


def test_substeps_do_not_alter_tick_states():
    sc = _step_scenario(duration=0.02)
    coarse = simulate(sc, log_substeps=1)
    fine = simulate(sc, log_substeps=4)
    assert len(fine) == 4 * len(coarse)
    assert np.array_equal(fine.q[::4], coarse.q)
    assert np.array_equal(fine.qdot[::4], coarse.qdot)
    assert np.array_equal(fine.u[::4], coarse.u)
    assert np.array_equal(fine.t[::4], coarse.t)


def test_substep_rows_follow_constant_force_arc():
    sc = _step_scenario(duration=0.02)
    fine = simulate(sc, log_substeps=5)
    ts = 1e-4
    # inside tick k the command and load are constant, so position follows
    # the exact parabola from the tick state
    for k in (0, 37, 150):
        base = 5 * k
        q0, v0, u = fine.q[base], fine.qdot[base], fine.u[base]
        load = fine.tau_d[base]
        a = (u - load) / PLANT.jm
        for j in range(1, 5):
            tau = j * ts / 5
            q_ref = q0 + tau * v0 + 0.5 * tau * tau * a
            assert fine.q[base + j] == pytest.approx(q_ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "viscous, g_v, g_dob, m",
    [
        (0.0, math.inf, 5000.0, 5),
        (0.05, 3000.0, 5000.0, 12),
        (0.0, math.inf, 25_000.0, 7),  # per-sample gain 2.5: diverges
        (0.5, math.inf, 30_000.0, 3),  # diverges
    ],
)
def test_substep_rows_equal_the_scalar_plant_step(viscous, g_v, g_dob, m):
    ts = 1e-4
    plant = PlantParams(jm=0.003, kt=0.25, viscous=viscous, external_load=((0.004, 0.5),))
    sc = _step_scenario(
        duration=0.05,
        plant=plant,
        dob=DObParams(alpha=1.0, g_dob=g_dob, g_v=g_v, ts=ts),
        noise_amplitude=1e-3,
        noise_seed=5,
    )
    trace = simulate(sc, log_substeps=m)
    end = len(trace) if trace.diverged_at is None else trace.diverged_at
    assert (trace.diverged_at is None) == (g_dob == 5000.0)
    for base in range(0, end, m):
        # the force held over tick k, and the per-row scalar closed form
        force = float(trace.u[base]) - float(trace.tau_d[base])
        q0, v0 = float(trace.q[base]), float(trace.qdot[base])
        for j in range(1, m):
            dt = j * (ts / m)
            decay = _viscous_decay(plant.jm, viscous, dt)
            want = _plant_step(q0, v0, force, plant.jm, viscous, dt, decay)
            assert (trace.q[base + j], trace.qdot[base + j]) == want
    assert np.all(np.isnan(trace.q[end:])) and np.all(np.isnan(trace.qdot[end:]))


# ---------------------------------------------------------------- viscous


def test_viscous_plant_matches_matrix_exponential():
    # two ticks replayed by hand against the augmented-state exponential
    jm, kt, b, ts = 0.003, 0.25, 0.05, 1e-4
    load = 1.3
    plant = PlantParams(jm=jm, kt=kt, viscous=b, external_load=((0.0, load),))
    p = DObParams(alpha=1.0, g_dob=5000.0, ts=ts)
    sc = Scenario(
        plant=plant, dob=p, gains=None, reference=Step(0.0), duration=10 * ts
    )
    trace = simulate(sc)

    def advance(q, v, force):
        a_mat = np.array([[0.0, 1.0, 0.0], [0.0, -b / jm, force / jm], [0.0, 0.0, 0.0]])
        q1, v1, _ = expm(a_mat * ts) @ np.array([q, v, 1.0])
        return q1, v1

    # tick 0: estimator state is zero, so the load alone acts
    q1, v1 = advance(0.0, 0.0, -load)
    assert trace.q[1] == pytest.approx(q1, rel=1e-12, abs=1e-18)
    assert trace.qdot[1] == pytest.approx(v1, rel=1e-12, abs=1e-18)
    # tick 1: one controller update (open outer loop) then the plant arc
    g, jn = p.g_dob, p.alpha * jm
    tau_hat1 = g * jn * (0.0 - (v1 - 0.0))
    u1 = kt * tau_hat1 / kt
    assert trace.u[1] == pytest.approx(u1, rel=1e-12)
    q2, v2 = advance(q1, v1, u1 - load)
    assert trace.q[2] == pytest.approx(q2, rel=1e-11, abs=1e-18)
    assert trace.qdot[2] == pytest.approx(v2, rel=1e-11, abs=1e-18)


def test_viscous_decay_without_input():
    # free response: velocity decays exponentially at rate b/jm
    jm, b, ts = 0.003, 0.06, 1e-4
    plant = PlantParams(jm=jm, kt=0.25, viscous=b)
    p = DObParams(alpha=1.0, g_dob=1e-9 + 1.0, ts=ts)  # estimator essentially off
    sc = Scenario(
        plant=plant, dob=p, gains=None, reference=Step(0.0), duration=0.01
    )
    trace = simulate(sc)
    assert np.all(trace.q == 0.0)  # starts and stays at rest
    assert np.all(trace.qdot == 0.0)
