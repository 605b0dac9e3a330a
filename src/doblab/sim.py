"""Fixed-step closed-loop servo simulation with an estimator realization.

The digital controller runs once per sampling period: a backward-Euler PD on
position error produces a desired acceleration, a one-state disturbance
estimator cancels the lumped load, and the summed command is held by ZoH.
Between samples the double-integrator plant (optionally with viscous
friction) is advanced by its exact closed form, so every deviation from the
transfer-function theory is attributable to the controller, never to the
integrator.

The Python tick loop runs only that controller recurrence and the plant
step.  Inputs are sampled as whole arrays before it, and the held columns,
the sub-step rows and the NaN rows after a divergence are filled as whole
arrays after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DObParams, OuterGains

__all__ = [
    "PlantParams",
    "Step",
    "Trajectory",
    "Scenario",
    "SimTrace",
    "simulate",
    "DIVERGENCE_LIMIT",
]

# |q| beyond this declares divergence: far above any test reference, far
# below overflow.
DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class PlantParams:
    """Actual servo constants plus a piecewise-constant opposing load.

    external_load holds (time, torque) pairs with strictly increasing times;
    each torque takes effect at its time and holds until the next entry.
    Positive load torque opposes the control input.
    """

    jm: float
    kt: float
    viscous: float = 0.0
    external_load: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (self.jm > 0.0 and math.isfinite(self.jm)):
            raise ValueError("jm must be positive")
        if not (self.kt > 0.0 and math.isfinite(self.kt)):
            raise ValueError("kt must be positive")
        if not (self.viscous >= 0.0 and math.isfinite(self.viscous)):
            raise ValueError("viscous must be nonnegative")
        if not all(
            math.isfinite(t) and math.isfinite(v) for t, v in self.external_load
        ):
            raise ValueError("external_load times and torques must be finite")
        times = [t for t, _ in self.external_load]
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise ValueError("external_load times must be strictly increasing")

    def load_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Load torque in effect at time t (0 before the first entry).

        t may be a float or an array of times; the result has its shape.
        """
        times = [when for when, _ in self.external_load]
        torques = np.array([0.0] + [torque for _, torque in self.external_load])
        return torques[np.searchsorted(times, t, side="right")]


@dataclass(frozen=True)
class Step:
    """Constant position reference applied from t = 0."""

    amplitude: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude):
            raise ValueError("step amplitude must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Pre-sampled position reference, one value per controller tick."""

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.samples) == 0:
            raise ValueError("trajectory must have at least one sample")
        if not all(math.isfinite(v) for v in self.samples):
            raise ValueError("trajectory samples must be finite")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one deterministic closed-loop run.

    gains=None opens the outer loop (desired acceleration pinned to zero),
    which exposes the bare estimator channels for oracle comparisons.
    The run has round(duration/ts) controller ticks (n_steps), so a duration
    that is not a multiple of ts is rounded to the nearest one (ties to even).
    Velocity noise is uniform on [-noise_amplitude, +noise_amplitude] from a
    seeded generator, added to the measured velocity each tick.
    """

    plant: PlantParams
    dob: DObParams
    gains: OuterGains | None
    reference: Step | Trajectory
    duration: float
    noise_seed: int = 0
    noise_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError("duration must be positive")
        if not (self.noise_amplitude >= 0.0 and math.isfinite(self.noise_amplitude)):
            raise ValueError("noise_amplitude must be nonnegative")
        n = self.n_steps
        if n < 1:
            raise ValueError("duration shorter than one sampling period")
        if isinstance(self.reference, Trajectory):
            if len(self.reference.samples) != n:
                raise ValueError(
                    f"trajectory length {len(self.reference.samples)} does not "
                    f"match duration/ts = {n}"
                )

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dob.require_ts()))

    def reference_samples(self) -> np.ndarray:
        n = self.n_steps
        if isinstance(self.reference, Step):
            return np.full(n, self.reference.amplitude)
        return np.asarray(self.reference.samples, dtype=float)

    def noise_samples(self) -> np.ndarray:
        n = self.n_steps
        if self.noise_amplitude == 0.0:
            return np.zeros(n)
        rng = np.random.Generator(np.random.PCG64(self.noise_seed))
        return rng.uniform(-self.noise_amplitude, self.noise_amplitude, n)


@dataclass(frozen=True)
class SimTrace:
    """Logged run: time grid, reference, state, command, load, estimate.

    Rows are spaced by ts/log_substeps.  Once |q| crosses DIVERGENCE_LIMIT at
    a controller tick, diverged_at records that tick's row index and the
    computed columns (q, qdot, u, tau_d_hat) hold NaN from there on; the time
    grid and the input columns (q_ref, tau_d) stay filled.
    """

    t: np.ndarray
    q_ref: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    u: np.ndarray
    tau_d: np.ndarray
    tau_d_hat: np.ndarray
    diverged_at: int | None

    def __len__(self) -> int:
        return len(self.t)


def _viscous_decay(jm, b, dt):
    """exp(-b*dt/jm) and -expm1(-b*dt/jm), the viscous closed form's factors.

    They depend only on the plant and the step length, so a run computes
    them once per dt.  expm1 keeps the small-dt difference accurate.
    """
    return math.exp(-b * dt / jm), -math.expm1(-b * dt / jm)


def _plant_step(q, v, force, jm, b, dt, factors):
    """Exact state advance under constant force over dt.

    q, v and force may be arrays of one shape; dt and the plant are scalars,
    and factors is _viscous_decay(jm, b, dt).
    """
    if b == 0.0:
        a = force / jm
        return q + dt * v + 0.5 * dt * dt * a, v + dt * a
    # m*vdot = F - b*v  has the closed form below
    vinf = force / b
    decay, grow = factors
    q1 = q + vinf * dt + (v - vinf) * (jm / b) * grow
    v1 = vinf + (v - vinf) * decay
    return q1, v1


def simulate(sc: Scenario, log_substeps: int = 1) -> SimTrace:
    """Run the scenario tick by tick and log the trace.

    Reference, load and noise are sampled for every tick before the loop,
    which carries only the controller recurrence and the exact plant step
    and records the tick state, the command and the estimate.  Tick k holds
    the load in effect at (k + 1e-9)*ts, so a load time within 1e-9*ts after
    a tick, such as 0.003 against the rounded 10*3e-4, starts on that tick.
    The loop stops at the first tick whose |q| exceeds DIVERGENCE_LIMIT; the
    computed columns hold NaN from that tick's row on.  Held columns (q_ref,
    tau_d, u, tau_d_hat) repeat each tick's value over its rows.

    log_substeps > 1 inserts extra rows inside each sampling period by
    evaluating the plant's closed form at fractional times, for all ticks at
    once after the tick loop; the states at controller ticks are bitwise
    independent of the logging rate because the state advance itself always
    uses the full period.
    """
    if log_substeps < 1:
        raise ValueError("log_substeps must be at least 1")
    ts = sc.dob.require_ts()
    n = sc.n_steps
    m = log_substeps
    refs = sc.reference_samples()
    loads = sc.plant.load_at((np.arange(n) + 1e-9) * ts)

    jm, kt, b = sc.plant.jm, sc.plant.kt, sc.plant.viscous
    # the mismatch ratio is realized through the nominal inertia; the nominal
    # torque constant is kept exact so alpha = jn/jm
    jn = sc.dob.alpha * jm
    ktn = kt
    g = sc.dob.g_dob
    g_v = sc.dob.g_v
    gains = sc.gains

    # per-tick records, the tick states as column 0 of the (tick, m) grids of
    # logged rows; ticks after a divergence keep their NaN
    qs, vs = np.full((2, n, m), math.nan)
    q_k, v_k = qs[:, 0], vs[:, 0]
    u_k, hat_k = np.full((2, n), math.nan)

    q = 0.0
    v = 0.0
    tau_hat = 0.0
    vf_prev = 0.0
    e_prev = 0.0
    diverged_at: int | None = None
    tick_decay = _viscous_decay(jm, b, ts)

    for k, (ref, load, w) in enumerate(
        zip(refs.tolist(), loads.tolist(), sc.noise_samples().tolist())
    ):
        if abs(q) > DIVERGENCE_LIMIT:
            diverged_at = k * m
            break

        vm = v + w
        if math.isinf(g_v):
            vf = vm
        else:
            vf = (vf_prev + g_v * ts * vm) / (1.0 + g_v * ts)

        if gains is None:
            acc_des = 0.0
        else:
            e = ref - q
            acc_des = gains.kp * e + gains.kd * (e - e_prev) / ts
            e_prev = e

        tau_hat = tau_hat + g * jn * (ts * acc_des - (vf - vf_prev))
        vf_prev = vf
        u = kt * (jn * acc_des + tau_hat) / ktn

        q_k[k], v_k[k], u_k[k], hat_k[k] = q, v, u, tau_hat
        q, v = _plant_step(q, v, u - load, jm, b, ts, tick_decay)

    # sub-step rows, one column j at a time; the NaN of unrun ticks carries
    # through the closed form
    forces = u_k - loads
    for j in range(1, m):
        dt = j * (ts / m)
        qs[:, j], vs[:, j] = _plant_step(q_k, v_k, forces, jm, b, dt, _viscous_decay(jm, b, dt))

    return SimTrace(
        t=np.arange(n * m) * (ts / m),
        q_ref=np.repeat(refs, m),
        q=qs.ravel(),
        qdot=vs.ravel(),
        u=np.repeat(u_k, m),
        tau_d=np.repeat(loads, m),
        tau_d_hat=np.repeat(hat_k, m),
        diverged_at=diverged_at,
    )

