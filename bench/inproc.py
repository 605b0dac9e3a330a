"""In-process half of the benchmark, run by run.py as a child process.

    python inproc.py REQUEST.json RESULT.json

REQUEST names the checkout, a mode and the operations:

    study   time library-study design points, untraced (end-to-end numbers)
    trace   run every operation untraced and traced in turn and report the
            per-layer self times, counts and the tracing overhead
    selftest  run one small round of each workload, check that the real
            outputs pass and that corrupted copies of them are flagged

The package is imported once, from the checkout's src directory.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import ROOT, Tracer


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import doblab  # noqa: F401  (the import being timed)
    import doblab.cli

    seconds = time.perf_counter() - t0
    where = Path(doblab.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"imported doblab from {where}, not from {root / 'src'}")
    return seconds


# ------------------------------------------------------------------ design points


def evaluate(point: dict) -> dict:
    """The library calls of one design point; this is what gets timed.

    Functions are looked up on their modules at call time, so installed
    tracing wrappers see every call.
    """
    from doblab import analysis as A
    from doblab import discretize as D
    from doblab import loops as L
    from doblab import lti as T
    from doblab.params import DObParams, OuterGains

    g = OuterGains(**point["gains"])
    iz, isg, oz, osg = (point[k] for k in ("inner_z", "inner_s_gv", "outer_z", "outer_s_gv"))
    inner_z = L.inner_loop_dt(DObParams(alpha=iz["alpha"], g_dob=iz["gdob"], ts=iz["ts"]))
    outer_z = L.outer_loop_dt(DObParams(alpha=oz["alpha"], g_dob=oz["gdob"], ts=oz["ts"]), g)
    outer_s = L.outer_loop_ct(DObParams(alpha=osg["alpha"], g_dob=osg["gdob"], g_v=osg["gv"]), g)
    inner_s = L.inner_loop_ct(DObParams(alpha=isg["alpha"], g_dob=isg["gdob"], g_v=isg["gv"]))
    out = {
        "inner_z_s_peak": A.sensitivity_peak(inner_z.S),
        "inner_z_t_peak": A.sensitivity_peak(inner_z.T),
        "outer_z_s_peak": A.sensitivity_peak(outer_z.S),
        "outer_s_gv_s_peak": A.sensitivity_peak(outer_s.S),
        "bode_inner_z": A.bode_integral(inner_z.L),
        "bode_inner_s_gv": A.bode_integral(inner_s.L),
        "bode_outer_z": A.bode_integral(outer_z.L),
    }
    cp = point["constraints"]
    spec = A.PeakSpec(gamma_s=cp["gs"], gamma_t=cp["gt"])
    out["constraints"] = A.check_constraints(
        DObParams(alpha=cp["alpha"], g_dob=cp["gdob"], ts=cp["ts"]), g, spec
    )
    out["audit"] = A.audit_outer_gain_condition(DObParams(alpha=cp["alpha"], g_dob=cp["gdob"]), g)

    tu = point["tustin"]
    gv = math.inf if tu["gv"] is None else tu["gv"]
    ct = L.inner_loop_ct(DObParams(alpha=tu["alpha"], g_dob=tu["gdob"], g_v=gv))
    out["tustin"] = D.substitute(ct.L, tu["ts"], D.DiscretizationRule.TUSTIN)
    out["tustin_verdict"] = T.is_stable(L.LoopSet.from_open_loop(out["tustin"]).S)

    lc = point["locus"]

    def build(alpha):
        return L.outer_loop_dt(DObParams(alpha=alpha, g_dob=workloads.SWEEP_G, ts=workloads.TS), g)

    n = lc["count"]
    values = [lc["start"] + (lc["stop"] - lc["start"]) * i / (n - 1) for i in range(n)]
    table = A.root_locus(build, values)
    flags = [row.stable for row in table.rows]
    flip = next((i for i in range(n - 1) if flags[i] != flags[i + 1]), None)
    out["locus"], out["build"] = table, build
    out["bracket"] = (values[flip], values[flip + 1]) if flip is not None else (math.nan, math.nan)
    out["critical"] = A.critical_parameter(build, *out["bracket"]) if flip is not None else math.nan
    return out


def summarize(raw: dict) -> dict:
    """Plain values the checker needs, computed outside the timed region."""
    from doblab.lti import is_stable

    res = {k: tuple(raw[k]) for k in raw if k.endswith("_peak")}
    for k in ("bode_inner_z", "bode_inner_s_gv", "bode_outer_z"):
        res[k] = {"value": raw[k].value, "predicted": raw[k].predicted}
    res["margins"] = dict(raw["constraints"].margins)
    a = raw["audit"]
    res["audit"] = {"predicate_ok": a.predicate_ok, "root_stable": a.root_stable, "agree": a.agree}
    res["tustin_samples"] = [
        (z, raw["tustin"](z)) for z in (cmath.exp(1j * th) for th in (0.3, 1.1, 2.5))
    ]
    res["tustin_stable"] = raw["tustin_verdict"].stability.value
    res["locus_flags"] = [row.stable for row in raw["locus"].rows]
    res["locus_bracket"] = raw["bracket"]
    crit = raw["critical"]
    res["critical"] = crit
    res["critical_sides"] = [
        is_stable(raw["build"](crit * f).S).is_stable for f in (1.0 - 1e-4, 1.0 + 1e-4)
    ] if math.isfinite(crit) else []
    return res


# ---------------------------------------------------------------- CLI in process


def prepare(op: dict, op_dir: Path) -> list[str]:
    """Write the operation's input files; return its argv."""
    op_dir.mkdir(parents=True, exist_ok=True)
    for name, text in op["files"].items():
        (op_dir / name).write_text(text)
    return [a.replace("{dir}", str(op_dir)) for a in op["argv"]]


def call_cli(argv: list[str], out_path: Path, err_path: Path) -> int:
    from doblab import cli

    with open(out_path, "w") as out, open(err_path, "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1


class Runner:
    """Runs one operation, untraced or traced, and checks its output."""

    def __init__(self, work: Path, tracer: Tracer):
        self.work = work
        self.tracer = tracer
        self.rows = self.bytes = self.errors = 0

    def run(self, i: int, op: dict, traced: bool):
        """(seconds, problems) for operation i."""
        if op["cmd"] == "design-point":
            fn, args = evaluate, (op["point"],)
        else:
            op_dir = self.work / "op"
            out_path, err_path = op_dir / "stdout", op_dir / "stderr"
            fn, args = call_cli, (prepare(op, op_dir), out_path, err_path)
        if traced:
            self.tracer.install()
            try:
                result, seconds = self.tracer.run_op(i, fn, *args)
            finally:
                self.tracer.uninstall()
        else:
            t0 = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - t0
        if op["cmd"] == "design-point":
            return seconds, checks.check_design_point(op["point"], summarize(result))
        out, err = out_path.read_text(), err_path.read_text()
        if traced:
            self.rows += checks.data_rows(op["cmd"], out)
            self.bytes += len(out.encode())
            self.errors += result != 0
        return seconds, checks.check_cli(op["check"], result, out, err)


def run_study(req: dict, work: Path) -> dict:
    runner = Runner(work, Tracer())
    for i, op in enumerate(workloads.warmup_round(req["workload"])):
        runner.run(-1 - i, op, False)
    times, failures, n = [], [], 0
    budget = workloads.Budget(req["workload"], req["seed"], req["seconds"], req["smoke"],
                              req["passes"])
    for ops in budget:
        for op in ops:
            seconds, problems = runner.run(n, op, False)
            budget.spent += seconds
            times.append(seconds)
            failures += [f"{op['kind']}: {p}" for p in problems[:1]]
            n += 1
    return {"times": times, "failures": failures, "rounds": budget.done,
            "passes": budget.passes}


def run_trace(req: dict, work: Path) -> dict:
    tracer = Tracer()
    runner = Runner(work, tracer)
    for i, op in enumerate(workloads.warmup_round(req["workload"])):
        runner.run(-1 - i, op, False)
    plain = traced = 0.0
    failures, n = [], 0
    budget = workloads.Budget(req["workload"], req["seed"], req["seconds"], req["smoke"])
    for ops in budget:
        for op in ops:
            # alternate which run goes first so drift does not favour one side
            for is_traced in ((False, True) if n % 2 == 0 else (True, False)):
                seconds, problems = runner.run(n, op, is_traced)
                budget.spent += seconds
                if is_traced:
                    traced += seconds
                else:
                    plain += seconds
                failures += [f"{op['kind']}: {p}" for p in problems[:1]]
            n += 1
    tracer.write(work / "spans.json")
    per_round = 1.0 / budget.done
    metrics = {f"{name}_s": t * per_round for name, t in tracer.self_time.items()}
    metrics.update({k: v * per_round for k, v in tracer.counts.items()})
    metrics["cli.rows_out"] = runner.rows * per_round
    metrics["cli.bytes_out"] = runner.bytes * per_round
    metrics["cli.errors"] = runner.errors * per_round
    metrics["trace.op_s"] = traced * per_round
    metrics["trace.overhead_share"] = (traced - plain) / plain
    # the root span's self time is work inside an operation that no layer
    # wrapper covers: parameter records, argv handling, stream redirection
    metrics["trace.unattributed_share"] = metrics.pop(f"{ROOT}_s") / metrics["trace.op_s"]
    return {"metrics": metrics, "failures": failures, "ops": n, "rounds": budget.done}


# ------------------------------------------------------------------ self-test

_SELFTEST = {
    # cmd or simulate mode -> (line index or None for the middle row, column, change)
    "tune": (0, 0, lambda v: v * (1.0 + 1e-9)),
    "constraints": (1, 2, lambda v: v + 1e-6),
    "bode-integral": (0, 1, lambda v: v + 2e-3),
    "freq": (None, 1, lambda v: v * (1.0 + 1e-6)),
    "rootlocus": (None, 1, lambda v: v + 1e-6),
    "run": (1, 4, lambda v: v * (1.0 + 1e-9)),
    "run-tail": (-1, 2, lambda v: v + 1e-2),
    "oracle": (None, 3, lambda v: v + 1e-6),
    "diverge": (-1, 2, lambda v: 0.0),
}


def corruptions(op: dict, out: str) -> list[tuple[str, str]]:
    """(label, corrupted stdout): a dropped last line and one wrong value."""
    lines = out.splitlines(keepends=True)
    bad = [("last line dropped", "".join(lines[:-1]))]
    key = op["check"].get("mode", op["cmd"])
    if op["check"].get("tail_ticks"):
        key = "run-tail"
    row, col, change = _SELFTEST[key]
    row = len(lines) // 2 if row is None else row % len(lines)
    sep = ": " if op["cmd"] == "bode-integral" else ","
    cells = lines[row].rstrip("\n").split(sep)
    cells[col] = repr(change(float(cells[col])))
    lines[row] = sep.join(cells) + "\n"
    bad.append((f"line {row} column {col} changed", "".join(lines)))
    return bad


def run_selftest(req: dict, work: Path) -> dict:
    """Real outputs must pass; each corrupted copy must be flagged."""
    runner = Runner(work, Tracer())
    failures, n = [], 0
    for workload in workloads.WORKLOADS:
        for op in next(workloads.rounds(workload, req["seed"], smoke=True)):
            _, problems = runner.run(n, op, False)
            n += 1
            if problems:
                failures.append(f"{op['kind']}: real output flagged: {problems[0]}")
            if op["cmd"] == "design-point":
                res = summarize(evaluate(op["point"]))
                w, peak = res["inner_z_s_peak"]
                bad = [
                    ("S peak changed", dict(res, inner_z_s_peak=(w, peak * (1.0 + 1e-6)))),
                    ("critical alpha outside its bracket",
                     dict(res, critical=res["locus_bracket"][1] * 1.01)),
                ]
                for label, corrupt in bad:
                    if not checks.check_design_point(op["point"], corrupt):
                        failures.append(f"{op['kind']}: {label} not flagged")
                continue
            out = (work / "op" / "stdout").read_text()
            err = (work / "op" / "stderr").read_text()
            for label, corrupt in corruptions(op, out):
                if not checks.check_cli(op["check"], 0, corrupt, err):
                    failures.append(f"{op['kind']}: {label} not flagged")
    return {"failures": failures, "ops": n}


def main(argv: list[str]) -> int:
    req_path, res_path = argv
    req = json.loads(Path(req_path).read_text())
    root, work = Path(req["root"]), Path(req["work"])
    import_s = _import_package(root)
    mode = {"study": run_study, "trace": run_trace, "selftest": run_selftest}[req["mode"]]
    result = mode(req, work)
    result["import_s"] = import_s
    Path(res_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
