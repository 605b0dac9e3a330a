"""Command-line front end emitting machine-readable plot data.

Every subcommand writes its data (CSV or key-value lines) to standard
output and nothing else there; diagnostics go to the error stream.  Numbers
are printed with 17 significant digits so identical invocations are
byte-identical and golden-file comparisons are exact.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    PeakSpec,
    bode_integral,
    check_constraints,
    max_bandwidth,
    root_locus,
)
from .loops import LoopSet, inner_loop_ct, inner_loop_dt, outer_loop_ct, outer_loop_dt
from .params import DObParams, OuterGains
from .sim import PlantParams, Scenario, Step, Trajectory, simulate

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _outer_gains(args) -> OuterGains:
    if args.kp is None or args.kd is None:
        raise ValueError("outer loop needs both --kp and --kd")
    return OuterGains(kp=args.kp, kd=args.kd)


def _is_discrete(args) -> bool:
    if args.domain == "z" and args.ts is None:
        raise ValueError("--domain z needs --ts")
    if args.domain == "z" and math.isfinite(args.gv):
        raise ValueError("--domain z takes no finite --gv: the sampled loops assume ideal"
                         " velocity; finite g_v is not modelled")
    return args.domain == "z"


def _build_loops(args, **swept: float) -> LoopSet:
    """The loop the flags describe, with swept flags ("alpha", "gdob") replaced."""
    discrete = _is_discrete(args)
    flags = {**vars(args), **swept}
    p = DObParams(alpha=flags["alpha"], g_dob=flags["gdob"], g_v=args.gv, ts=args.ts)
    if args.loop == "inner":
        return inner_loop_dt(p) if discrete else inner_loop_ct(p)
    gains = _outer_gains(args)
    return outer_loop_dt(p, gains) if discrete else outer_loop_ct(p, gains)


def _add_loop_flags(sub, *, domains=("s", "z")) -> None:
    sub.add_argument("--domain", choices=domains, required=True)
    sub.add_argument("--loop", choices=("inner", "outer"), required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--gdob", type=float, required=True)
    sub.add_argument("--gv", type=float, default=math.inf)
    sub.add_argument("--ts", type=float, default=None)
    sub.add_argument("--kp", type=float, default=None)
    sub.add_argument("--kd", type=float, default=None)


# Rows formatted per write: enough to amortize the call, few enough that the
# text and the Python numbers of one block stay small next to the arrays.
CSV_BLOCK_ROWS = 4096


def _write_csv(header: list[str], cols: list, fmts: list[str] | None = None) -> None:
    """Write header and the rows of equal-length columns to stdout.

    Every cell is printed with its %-format from fmts, by default %.17g
    (the same text as f"{x:.17g}").
    """
    cols = [np.asarray(c) for c in cols]
    fmt = ",".join(fmts or ["%.17g"] * len(cols)) + "\n"
    out = sys.stdout
    out.write(",".join(header) + "\n")
    for i in range(0, len(cols[0]), CSV_BLOCK_ROWS):
        block = [c[i : i + CSV_BLOCK_ROWS].tolist() for c in cols]
        out.write("".join(fmt % row for row in zip(*block)))


def _cmd_freq(args) -> int:
    loops = _build_loops(args)
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if args.domain == "z":
        omega = np.linspace(0.0, math.pi / args.ts, args.points)
    else:
        if not (args.wmin > 0.0 and args.wmax > args.wmin):
            raise ValueError("frequency range needs 0 < --wmin < --wmax")
        omega = np.logspace(math.log10(args.wmin), math.log10(args.wmax), args.points)
    om, s_vals, t_vals = loops.st_response(omega)
    _write_csv(
        ["omega_rad_s", "mag_S", "phase_S_rad", "mag_T", "phase_T_rad"],
        # + 0.0 turns np.angle's -0 (from an imaginary part of -0) into 0
        [om, np.abs(s_vals), np.angle(s_vals) + 0.0, np.abs(t_vals), np.angle(t_vals) + 0.0],
    )
    return 0


def _cmd_rootlocus(args) -> int:
    if args.count < 2:
        raise ValueError("--count must be at least 2")
    if not (args.start > 0.0 and args.stop > args.start):
        raise ValueError("sweep range needs 0 < --start < --stop")
    if args.log:
        values = np.logspace(math.log10(args.start), math.log10(args.stop), args.count)
    else:
        values = np.linspace(args.start, args.stop, args.count)

    # --domain z without --ts or with a finite --gv is a usage error, not a sweep failure
    _is_discrete(args)
    table = root_locus(lambda v: _build_loops(args, **{args.sweep: v}), values)
    n_roots = len(table.rows[0].roots)
    header = ["param"]
    for i in range(1, n_roots + 1):
        header += [f"re_pole_{i}", f"im_pole_{i}"]
    header.append("stable")
    roots = np.array([row.roots for row in table.rows])
    cols = [[row.param for row in table.rows]]
    for i in range(n_roots):
        cols += [roots[:, i].real, roots[:, i].imag]
    cols.append([row.stable for row in table.rows])
    _write_csv(header, cols, ["%.17g"] * (len(cols) - 1) + ["%d"])
    return 0


def _cmd_constraints(args) -> int:
    p = DObParams(alpha=args.alpha, g_dob=args.gdob, ts=args.ts)
    gains = None
    if args.kp is not None or args.kd is not None:
        gains = _outer_gains(args)
    spec = PeakSpec(gamma_s=args.gammaS, gamma_t=args.gammaT)
    report = check_constraints(p, gains, spec)
    rows = [
        ("inner", report.inner_stable),
        ("ringing", report.no_ringing),
        ("s_peak", report.s_peak_ok),
        ("t_peak", report.t_peak_ok),
    ]
    if report.outer_gain_ok is not None:
        rows.append(("outer_gain", report.outer_gain_ok))
    _write_csv(
        ["constraint", "result", "margin"],
        [
            [name for name, _ in rows],
            ["pass" if ok else "fail" for _, ok in rows],
            [report.margins[name] for name, _ in rows],
        ],
        ["%s", "%s", "%.17g"],
    )
    return 0


def _cmd_bode_integral(args) -> int:
    loops = _build_loops(args)
    rep = bode_integral(loops.L)
    for name in ("value", "rhp_pole_sum", "limit_term", "predicted", "quadrature_error"):
        print(f"{name}: {_fmt(getattr(rep, name))}")
    return 0


def _cmd_tune(args) -> int:
    spec = PeakSpec(gamma_s=args.gammaS, gamma_t=args.gammaT)
    print(_fmt(max_bandwidth(args.alpha, args.ts, spec)))
    return 0


_SCENARIO_KEYS = {
    "jm",
    "kt",
    "viscous",
    "alpha",
    "gdob",
    "gv",
    "ts",
    "kp",
    "kd",
    "reference",
    "step_amplitude",
    "trajectory_csv",
    "noise_seed",
    "noise_amplitude",
    "duration",
    "load",
}


def _parse_scenario_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ValueError(f"scenario file not found: {path}")
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown scenario key: {key}")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate scenario key: {key}")
        entries[key] = value
    return entries


def _parse_load(text: str) -> tuple[tuple[float, float], ...]:
    steps = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"load entry must look like t:torque, got {part!r}")
        t_txt, _, v_txt = part.partition(":")
        steps.append((float(t_txt), float(v_txt)))
    return tuple(steps)


def _read_trajectory_csv(path: Path) -> tuple[float, ...]:
    if not path.is_file():
        raise ValueError(f"trajectory file not found: {path}")
    samples = []
    with path.open(newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if i == 0 and not _is_number(row[0]):
                if [cell.strip() for cell in row[:2]] != ["t", "q_ref"]:
                    raise ValueError(
                        f"{path}: header must be t,q_ref, got {','.join(row)}"
                    )
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: each row needs t and q_ref")
            samples.append(float(row[1]))
    return tuple(samples)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _scenario_from_entries(entries: dict[str, str], base_dir: Path) -> Scenario:
    def need(key: str) -> str:
        if key not in entries:
            raise ValueError(f"scenario is missing required key: {key}")
        return entries[key]

    plant = PlantParams(
        jm=float(need("jm")),
        kt=float(need("kt")),
        viscous=float(entries.get("viscous", "0")),
        external_load=_parse_load(entries.get("load", "")),
    )
    dob = DObParams(
        alpha=float(need("alpha")),
        g_dob=float(need("gdob")),
        g_v=float(entries.get("gv", "inf")),
        ts=float(need("ts")),
    )
    has_kp = "kp" in entries
    has_kd = "kd" in entries
    if has_kp != has_kd:
        raise ValueError("scenario must set both kp and kd or neither")
    gains = OuterGains(kp=float(entries["kp"]), kd=float(entries["kd"])) if has_kp else None

    kind = need("reference")
    if kind == "step":
        reference: Step | Trajectory = Step(float(need("step_amplitude")))
    elif kind == "trajectory":
        reference = Trajectory(_read_trajectory_csv(base_dir / need("trajectory_csv")))
    else:
        raise ValueError(f"reference must be step or trajectory, got {kind!r}")

    return Scenario(
        plant=plant,
        dob=dob,
        gains=gains,
        reference=reference,
        duration=float(need("duration")),
        noise_seed=int(entries.get("noise_seed", "0")),
        noise_amplitude=float(entries.get("noise_amplitude", "0")),
    )


def _cmd_simulate(args) -> int:
    path = Path(args.scenario)
    entries = _parse_scenario_file(path)
    sc = _scenario_from_entries(entries, path.parent)
    trace = simulate(sc, log_substeps=args.substeps)
    names = ["t", "q_ref", "q", "qdot", "u", "tau_d", "tau_d_hat"]
    _write_csv(names, [getattr(trace, name) for name in names])
    if trace.diverged_at is not None:
        print(
            f"diverged at row {trace.diverged_at} (t = {_fmt(trace.t[trace.diverged_at])})",
            file=sys.stderr,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doblab",
        description="Observer-based servo loop analysis and simulation data emitter.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    freq = subs.add_parser("freq", help="sensitivity/complementary frequency response CSV")
    _add_loop_flags(freq)
    freq.add_argument("--points", type=int, default=512)
    freq.add_argument("--wmin", type=float, default=1e-1)
    freq.add_argument("--wmax", type=float, default=1e6)
    freq.set_defaults(func=_cmd_freq)

    locus = subs.add_parser("rootlocus", help="closed-loop root sweep CSV")
    _add_loop_flags(locus)
    locus.add_argument("--sweep", choices=("alpha", "gdob"), required=True)
    locus.add_argument("--start", type=float, required=True)
    locus.add_argument("--stop", type=float, required=True)
    locus.add_argument("--count", type=int, required=True)
    locus.add_argument("--log", action="store_true", help="logarithmic sweep spacing")
    locus.set_defaults(func=_cmd_rootlocus)

    ideal = "assumes ideal velocity: reads only the per-sample gain x = alpha*gdob*ts"
    cons_help = f"design-constraint report; {ideal}"
    cons = subs.add_parser("constraints", help=cons_help, description=cons_help)
    cons.add_argument("--alpha", type=float, required=True)
    cons.add_argument("--gdob", type=float, required=True)
    cons.add_argument("--ts", type=float, required=True)
    cons.add_argument("--gammaS", type=float, required=True)
    cons.add_argument("--gammaT", type=float, required=True)
    cons.add_argument("--kp", type=float, default=None)
    cons.add_argument("--kd", type=float, default=None)
    cons.set_defaults(func=_cmd_constraints)

    bode = subs.add_parser("bode-integral", help="sensitivity integral report")
    _add_loop_flags(bode)
    bode.set_defaults(func=_cmd_bode_integral)

    tune_help = f"largest bandwidth meeting the peak budgets; {ideal}"
    tune = subs.add_parser("tune", help=tune_help, description=tune_help)
    tune.add_argument("--alpha", type=float, required=True)
    tune.add_argument("--ts", type=float, required=True)
    tune.add_argument("--gammaS", type=float, required=True)
    tune.add_argument("--gammaT", type=float, required=True)
    tune.set_defaults(func=_cmd_tune)

    sim = subs.add_parser("simulate", help="closed-loop trace CSV from a scenario file")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--substeps", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); not a data error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
