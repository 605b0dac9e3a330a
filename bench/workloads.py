"""Seeded operation schedules for the benchmark workloads.

Every input comes from ``random.Random`` seeded with the workload name and
the ``--seed`` argument, so one seed always gives the same inputs.  Design
points are drawn from the valid ranges around the acceptance-test constants
below and are never filtered on program output.

A workload is an endless sequence of rounds; a round is a fixed list of
operation kinds with freshly drawn parameters.  The kinds and their order
never depend on the seed, so every seed gives the same mix of work.

An operation is a plain dict, so it can be handed to a child process as JSON:

    kind    label of the operation (one per entry of a round)
    cmd     CLI subcommand (CLI workloads) or "design-point"
    argv    CLI arguments; "{dir}" stands for the operation's input directory
    files   input files to write into that directory before the call
    check   what the output checker needs to know about the inputs
"""

from __future__ import annotations

import random

TS = 1e-3
SERVO_TS = 1e-4
SWEEP_G = 750.0
SWEEP_KP, SWEEP_KD = 1000.0, 250.0
SERVO_KP, SERVO_KD = 1000.0, 25.0
SERVO_JM, SERVO_KT = 0.003, 0.25

WORKLOADS = ("cli-short", "cli-bulk", "library-study")
CLI_WORKLOADS = ("cli-short", "cli-bulk")


def rounds(workload: str, seed: int, smoke: bool = False):
    """Yield the rounds of one workload forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {
        "cli-short": _cli_short_round,
        "cli-bulk": _cli_bulk_round,
        "library-study": _study_round,
    }[workload]
    while True:
        yield make(rng, smoke)


class Budget:
    """The rounds of one run: a first pass, then the same rounds again.

    The first pass takes whole rounds while the next one is expected to fit
    in seconds / passes; callers add the time spent inside operations to
    ``spent`` (output checks between operations do not count).  Each further
    pass repeats the first pass's rounds in order, so every operation runs
    ``passes`` times, about seconds / passes apart.  Whole rounds keep the mix
    of operation kinds the same in every run.  A smoke run is one round, once.
    """

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool = False,
                 passes: int = 1):
        self.gen = rounds(workload, seed, smoke)
        self.seconds = seconds
        self.smoke = smoke
        self.passes = 1 if smoke else passes
        self.spent = 0.0
        self.planned: list[list[dict]] = []

    @property
    def done(self) -> int:
        """Rounds in one pass."""
        return len(self.planned)

    def __iter__(self):
        share = self.seconds / self.passes
        while not self.planned or (
            not self.smoke and self.spent + self.spent / len(self.planned) <= share
        ):
            self.planned.append(next(self.gen))
            yield self.planned[-1]
        for _ in range(1, self.passes):
            yield from self.planned


def best_of_passes(values: list, passes: int) -> list:
    """Per operation, the smallest of its values over the passes.

    values holds one entry per execution in run order: pass 1's operations,
    then pass 2's in the same order, and so on.
    """
    n = len(values) // passes
    return [min(values[i::n]) for i in range(n)]


def warmup_round(workload: str) -> list[dict]:
    """One small call per subcommand the workload uses, never timed.

    It compiles the package's bytecode and pulls the interpreter, numpy,
    scipy and the package into the file cache before anything is timed.
    """
    rng = random.Random(f"warm-up:{workload}")
    if workload == "cli-short":
        ops = _cli_short_round(rng, True)
    elif workload == "cli-bulk":
        ops = _cli_bulk_round(rng, True)
    else:
        return _study_round(rng, True)
    seen, out = set(), []
    for op in ops:
        if op["cmd"] not in seen:
            seen.add(op["cmd"])
            out.append(op)
    return out


def _num(v) -> str:
    # repr round-trips, so the checker sees exactly the float the CLI parsed
    return repr(float(v)) if isinstance(v, float) else str(v)


def _op(kind, argv, check, files=None):
    return {
        "kind": kind,
        "cmd": argv[0],
        "argv": [_num(a) for a in argv],
        "files": files or {},
        "check": dict(check, type=argv[0]),
    }


def _loop_args(domain, loop, alpha, gdob, ts=None, gv=None, kp=None, kd=None):
    argv = ["--domain", domain, "--loop", loop, "--alpha", alpha, "--gdob", gdob]
    for flag, v in (("--ts", ts), ("--gv", gv), ("--kp", kp), ("--kd", kd)):
        if v is not None:
            argv += [flag, v]
    check = dict(domain=domain, loop=loop, alpha=alpha, gdob=gdob, ts=ts, gv=gv, kp=kp, kd=kd)
    return argv, check


def _scenario(
    *, alpha, gdob, ts, duration_ticks, kp=None, kd=None, gv=None, viscous=0.0,
    amplitude=None, trajectory=None, load=(), noise_seed=0, noise_amplitude=0.0,
):
    """Scenario file text (the CLI's real syntax) plus the checker's view of it."""
    lines = [f"jm = {SERVO_JM!r}", f"kt = {SERVO_KT!r}", f"alpha = {alpha!r}",
             f"gdob = {gdob!r}", f"ts = {ts!r}", f"duration = {duration_ticks * ts!r}"]
    if viscous:
        lines.append(f"viscous = {viscous!r}")
    if gv is not None:
        lines.append(f"gv = {gv!r}")
    if kp is not None:
        lines += [f"kp = {kp!r}", f"kd = {kd!r}"]
    files = {}
    if trajectory is None:
        lines += ["reference = step", f"step_amplitude = {amplitude!r}"]
    else:
        lines += ["reference = trajectory", "trajectory_csv = trajectory.csv"]
        rows = [f"{k * ts!r},{q!r}" for k, q in enumerate(trajectory)]
        files["trajectory.csv"] = "t,q_ref\n" + "\n".join(rows) + "\n"
    if load:
        # load times sit exactly on controller ticks: time = tick * ts
        lines.append("load = " + ", ".join(f"{k * ts!r}:{v!r}" for k, v in load))
    if noise_amplitude:
        lines += [f"noise_seed = {noise_seed}", f"noise_amplitude = {noise_amplitude!r}"]
    files["scenario.cfg"] = "\n".join(lines) + "\n"
    check = dict(
        jm=SERVO_JM, alpha=alpha, gdob=gdob, ts=ts, n=duration_ticks, kp=kp, kd=kd, gv=gv,
        viscous=viscous, amplitude=amplitude, trajectory=trajectory,
        load=[[k, v] for k, v in load], noisy=bool(noise_amplitude),
    )
    return files, check


def _simulate_op(kind, substeps, mode, files, check, tail_ticks=0):
    return _op(
        kind,
        ["simulate", "--scenario", "{dir}/scenario.cfg", "--substeps", substeps],
        dict(check, m=substeps, mode=mode, tail_ticks=tail_ticks),
        files,
    )


def smoothstep(n: int, ts: float, rise: float, amplitude: float) -> list[float]:
    out = []
    for k in range(n):
        s = min(max(k * ts / rise, 0.0), 1.0)
        out.append(amplitude * (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5))
    return out


# --------------------------------------------------------------- cli-short


def _cli_short_round(rng: random.Random, smoke: bool) -> list[dict]:
    u = rng.uniform
    ops = []

    alpha, ts, gs, gt = u(0.5, 2.0), rng.choice((TS, SERVO_TS)), u(0.1, 0.9), u(0.1, 0.9)
    ops.append(_op(
        "tune",
        ["tune", "--alpha", alpha, "--ts", ts, "--gammaS", gs, "--gammaT", gt],
        dict(alpha=alpha, ts=ts, gs=gs, gt=gt),
    ))

    # per-sample gains up to 2.5, so some constraints fail (a valid answer)
    for kind, gains in (("constraints", False), ("constraints-pd", True)):
        alpha, gdob, gs, gt = u(0.5, 2.0), u(100.0, 1250.0), u(0.1, 0.9), u(0.1, 0.9)
        argv = ["constraints", "--alpha", alpha, "--gdob", gdob, "--ts", TS,
                "--gammaS", gs, "--gammaT", gt]
        kp = kd = None
        if gains:
            kp, kd = SWEEP_KP * u(0.5, 1.5), SWEEP_KD * u(0.5, 1.5)
            argv += ["--kp", kp, "--kd", kd]
        ops.append(_op(kind, argv, dict(alpha=alpha, gdob=gdob, ts=TS, gs=gs, gt=gt, kp=kp, kd=kd)))

    alpha = u(0.5, 1.5)
    argv, check = _loop_args("z", "inner", alpha, u(0.1, 1.9) / (alpha * TS), ts=TS)
    ops.append(_op("bode-inner-z", ["bode-integral"] + argv, check))
    argv, check = _loop_args("s", "inner", u(0.5, 2.0), u(100.0, 1000.0), gv=u(500.0, 5000.0))
    ops.append(_op("bode-inner-s-gv", ["bode-integral"] + argv, check))
    argv, check = _loop_args(
        "s", "outer", u(1.0, 4.0), u(500.0, 1000.0),
        kp=SWEEP_KP * u(0.8, 1.2), kd=SWEEP_KD * u(0.8, 1.2),
    )
    ops.append(_op("bode-outer-s", ["bode-integral"] + argv, check))

    alpha = u(0.5, 1.5)
    points = rng.randint(64, 512)
    argv, check = _loop_args("z", "inner", alpha, u(0.1, 1.9) / (alpha * TS), ts=TS)
    ops.append(_op("freq-inner-z", ["freq"] + argv + ["--points", points], dict(check, points=points)))

    # an alpha sweep across the sampled boundary x = 2
    gdob = u(500.0, 1500.0)
    a_crit = 2.0 / (gdob * TS)
    start, stop, count = a_crit * u(0.4, 0.9), a_crit * u(1.1, 1.6), rng.randint(9, 41)
    argv, check = _loop_args("z", "inner", 1.0, gdob, ts=TS)
    argv += ["--sweep", "alpha", "--start", start, "--stop", stop, "--count", count]
    ops.append(_op(
        "rootlocus-inner-z", ["rootlocus"] + argv,
        dict(check, sweep="alpha", start=start, stop=stop, count=count, log=False, cross=True),
    ))

    # short servo runs: a tuned loop, the per-sample-gain-2.5 loop that
    # diverges, and the open estimator loop against its filter oracle
    n = rng.randint(200, 500)
    files, check = _scenario(
        alpha=u(0.8, 1.2), gdob=u(3000.0, 7000.0), ts=SERVO_TS, duration_ticks=n,
        kp=SERVO_KP * u(0.8, 1.2), kd=SERVO_KD * u(0.8, 1.2), amplitude=u(0.5, 2.0),
        load=[(rng.randint(1, n - 1), u(0.1, 1.0))],
    )
    ops.append(_simulate_op("simulate-short", 1, "run", files, check))
    files, check = _scenario(
        alpha=1.0, gdob=25_000.0, ts=SERVO_TS, duration_ticks=500,
        kp=SERVO_KP, kd=SERVO_KD, amplitude=u(0.5, 2.0),
    )
    ops.append(_simulate_op("simulate-diverge", 1, "diverge", files, check))
    n = rng.randint(200, 500)
    ticks = sorted(rng.sample(range(1, n), 3))
    files, check = _scenario(
        alpha=u(0.8, 1.2), gdob=u(2000.0, 8000.0), ts=SERVO_TS, duration_ticks=n,
        amplitude=0.0, load=[(k, u(-0.5, 0.5)) for k in ticks],
    )
    ops.append(_simulate_op("simulate-open", 1, "oracle", files, check))
    return ops


# ---------------------------------------------------------------- cli-bulk


def _cli_bulk_round(rng: random.Random, smoke: bool) -> list[dict]:
    u = rng.uniform
    points = 2000 if smoke else 20_000
    count = 50 if smoke else 2000
    ops = []

    argv, check = _loop_args("z", "outer", u(0.5, 1.5), SWEEP_G, ts=TS, kp=SWEEP_KP, kd=SWEEP_KD)
    ops.append(_op("freq-outer-z", ["freq"] + argv + ["--points", points], dict(check, points=points)))
    argv, check = _loop_args(
        "s", "outer", u(0.5, 2.0), SWEEP_G, gv=u(1000.0, 5000.0), kp=SWEEP_KP, kd=SWEEP_KD
    )
    argv += ["--points", points, "--wmin", 0.1, "--wmax", 1e6]
    ops.append(_op("freq-outer-s-gv", ["freq"] + argv, dict(check, points=points, wmin=0.1, wmax=1e6)))

    # both sweeps cross the sampled stability boundary (criterion 5)
    start, stop = u(1.0, 1.2), u(4.8, 5.0)
    argv, check = _loop_args("z", "outer", 1.0, SWEEP_G, ts=TS, kp=SWEEP_KP, kd=SWEEP_KD)
    argv += ["--sweep", "alpha", "--start", start, "--stop", stop, "--count", count]
    ops.append(_op(
        "rootlocus-alpha", ["rootlocus"] + argv,
        dict(check, sweep="alpha", start=start, stop=stop, count=count, log=False, cross=True),
    ))
    start, stop = 10.0 ** u(2.0, 2.3), 10.0 ** u(5.7, 6.0)
    argv, check = _loop_args("z", "outer", 0.01, 1.0, ts=TS, kp=SWEEP_KP, kd=SWEEP_KD)
    argv += ["--sweep", "gdob", "--start", start, "--stop", stop, "--count", count, "--log"]
    ops.append(_op(
        "rootlocus-gdob", ["rootlocus"] + argv,
        dict(check, sweep="gdob", start=start, stop=stop, count=count, log=True, cross=True),
    ))

    # the tuned loaded servo of criterion 6, logged at 1 and 10 rows per tick
    ticks = int(round(1.5 / SERVO_TS))
    files, check = _scenario(
        alpha=1.0, gdob=5000.0, ts=SERVO_TS, duration_ticks=ticks, kp=SERVO_KP,
        kd=SERVO_KD, amplitude=1.0, load=[(int(round(0.5 / SERVO_TS)), 0.5)],
    )
    for m in (1, 2 if smoke else 10):
        ops.append(_simulate_op(f"simulate-sub{m}", m, "run", files, check, tail_ticks=500))

    traj = smoothstep(ticks, SERVO_TS, u(0.3, 0.8), u(0.5, 1.5))
    files, check = _scenario(
        alpha=u(0.9, 1.1), gdob=u(4000.0, 6000.0), ts=SERVO_TS, duration_ticks=ticks,
        kp=SERVO_KP, kd=SERVO_KD, gv=u(2000.0, 10_000.0), viscous=u(1e-3, 1e-2),
        trajectory=traj, load=[(rng.randint(5000, 10_000), u(0.1, 0.5))],
        noise_seed=rng.randint(0, 2**31), noise_amplitude=u(1e-4, 1e-3),
    )
    ops.append(_simulate_op("simulate-combined", 1, "run", files, check, tail_ticks=500))
    return ops


# ----------------------------------------------------------- library-study


def _study_round(rng: random.Random, smoke: bool) -> list[dict]:
    """One design point, evaluated in process by inproc.evaluate."""
    u = rng.uniform
    alpha = u(0.5, 1.5)
    point = {
        "inner_z": dict(alpha=alpha, gdob=u(0.1, 1.9) / (alpha * TS), ts=TS),
        "inner_s_gv": dict(alpha=u(0.5, 2.0), gdob=u(100.0, 1000.0), gv=u(500.0, 5000.0)),
        "outer_z": dict(alpha=u(0.5, 1.5), gdob=SWEEP_G, ts=TS),
        "outer_s_gv": dict(alpha=u(0.5, 2.0), gdob=SWEEP_G, gv=u(1000.0, 5000.0)),
        "gains": dict(kp=SWEEP_KP * u(0.8, 1.2), kd=SWEEP_KD * u(0.8, 1.2)),
        "constraints": dict(alpha=u(0.5, 2.0), gdob=u(100.0, 1250.0), ts=TS,
                            gs=u(0.1, 0.9), gt=u(0.1, 0.9)),
        "tustin": dict(alpha=u(0.5, 2.0), gdob=u(100.0, 5000.0),
                       gv=rng.choice((None, u(500.0, 5000.0))), ts=rng.choice((TS, SERVO_TS))),
        # alpha sweep of the sampled outer loop across its critical value
        "locus": dict(start=u(1.0, 1.2), stop=u(4.8, 5.0), count=20 if smoke else 200),
    }
    return [{"kind": "design-point", "cmd": "design-point", "point": point}]
