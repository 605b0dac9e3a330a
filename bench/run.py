"""doblab benchmark: CLI wall time per subcommand, design-study throughput and
a traced per-module breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload in turn
    python3 bench/run.py --smoke              # every workload and check, tiny sizes
    python3 bench/run.py --self-test          # corrupted outputs must be flagged

Run it from anywhere; it works on the checkout that contains it and writes
only under ``.bench_work/`` there.  Workloads (see workloads.py):

    cli-short      small interactive queries, one ``python -m doblab`` each
    cli-bulk       plot-data generation at the acceptance-test sizes
    library-study  design points evaluated in one long-lived process

All are closed loops with one client: the next operation starts when the
previous one has finished.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it runs the same operations in
process, untraced and traced in turn, and reports the per-layer metrics.
Every output is checked (checks.py); the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# fresh imports per run, split before and after the measured operations
SETUP_REPEATS = (2, 2)
# every operation runs this many times, a third of a run apart, and counts
# at its fastest: the machine's speed swings for seconds at a time
PASSES = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# modules whose cumulative -X importtime figure feeds a per-layer metric
IMPORT_METRICS = {
    "doblab": "init.import_s",
    "scipy.integrate": "analysis.scipy_import_s",
    "numpy": "lti.numpy_import_s",
}
SUBCOMMANDS = ("tune", "constraints", "bode-integral", "freq", "rootlocus", "simulate")


class Child:
    """Runs one child process to completion, with its resource usage."""

    def __init__(self, work: Path):
        self.env = dict(os.environ)
        self.env.pop("DOBLAB_THREADS", None)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.work = work

    def run(self, argv: list[str], out: Path, err: Path, timeout: float = CHILD_TIMEOUT_S):
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=self.env, cwd=ROOT
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def inproc(self, request: dict) -> tuple[dict, float]:
        """Run inproc.py on a request; (its result, its peak RSS in MB)."""
        req_path, res_path = self.work / "request.json", self.work / "result.json"
        req_path.write_text(json.dumps(dict(request, root=str(ROOT), work=str(self.work))))
        err = self.work / "inproc.stderr"
        _, rc, rss = self.run(
            [sys.executable, str(BENCH / "inproc.py"), str(req_path), str(res_path)],
            self.work / "inproc.stdout", err,
        )
        if rc != 0:
            raise RuntimeError(f"in-process child failed ({rc}): {err.read_text()[-2000:]}")
        return json.loads(res_path.read_text()), rss


def environment() -> dict:
    """Versions, cores, CPU model and the checkout's git commit, if any."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 100 samples that percentile falls under the 90th, and runs with a
    few slow kinds of operation would report a value that jumps between
    kinds as the sample count changes; the 90th percentile is reported
    instead, with fewer than ten samples beyond it.  Nearest rank.
    """
    s = sorted(values)
    n = len(s)
    rank = n - 10 if n >= 100 else (9 * n + 9) // 10
    return s[rank - 1], 100.0 * rank / n


def setup_times(child: Child, work: Path, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        wall, rc, _ = child.run([sys.executable, "-c", "import doblab"],
                                work / "setup.stdout", work / "setup.stderr")
        if rc != 0:
            raise RuntimeError(f"import doblab failed: {(work / 'setup.stderr').read_text()}")
        times.append(wall)
    return times


def import_breakdown(child: Child, work: Path, repeats: int) -> dict:
    """Median cumulative import time of each module in IMPORT_METRICS."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_METRICS.values()}
    err = work / "importtime.stderr"
    for _ in range(repeats):
        _, rc, _ = child.run([sys.executable, "-X", "importtime", "-c", "import doblab"],
                             work / "importtime.stdout", err)
        if rc != 0:
            raise RuntimeError(f"import doblab failed: {err.read_text()[-2000:]}")
        seen = {}
        for line in err.read_text().splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_METRICS:
                seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for module, metric in IMPORT_METRICS.items():
            samples[metric].append(seen[module])
    return {metric: statistics.median(v) for metric, v in samples.items()}


def run_cli_ops(child: Child, work: Path, ops, record: list):
    """Run CLI operations as subprocesses, check each, and yield each wall time."""
    op_dir = work / "op"
    for op in ops:
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir()
        for name, text in op["files"].items():
            (op_dir / name).write_text(text)
        argv = [a.replace("{dir}", str(op_dir)) for a in op["argv"]]
        out, err = op_dir / "stdout", op_dir / "stderr"
        wall, rc, rss = child.run([sys.executable, "-m", "doblab", *argv], out, err)
        text = out.read_text()
        problems = checks.check_cli(op["check"], rc, text, err.read_text())
        record.append({"kind": op["kind"], "cmd": op["cmd"], "wall": wall, "rss": rss,
                       "rows": checks.data_rows(op["cmd"], text), "problems": problems[:3]})
        yield wall


def end_to_end(args, child: Child, work: Path) -> dict:
    """Metrics, informational figures and failures of one untraced run."""
    before, after = (1, 0) if args.smoke else SETUP_REPEATS
    cli = args.workload in workloads.CLI_WORKLOADS
    if cli:
        for _ in run_cli_ops(child, work, workloads.warmup_round(args.workload), []):
            pass
    setup = setup_times(child, work, before)
    info: dict = {}
    if cli:
        record: list = []
        budget = workloads.Budget(args.workload, args.seed, args.seconds, args.smoke, PASSES)
        for ops in budget:
            for wall in run_cli_ops(child, work, ops, record):
                budget.spent += wall
        failures = [f"{r['kind']}: {r['problems'][0]}" for r in record if r["problems"]]
        rss = max(r["rss"] for r in record)
        rounds, passes = budget.done, budget.passes
    else:
        res, rss = child.inproc(dict(mode="study", workload=args.workload, seed=args.seed,
                                     seconds=args.seconds, smoke=args.smoke, passes=PASSES))
        record = [{"kind": "design-point", "cmd": None, "wall": t} for t in res["times"]]
        failures, rounds, passes = res["failures"], res["rounds"], res["passes"]
        info["study_import_s"] = (res["import_s"], "s")
    setup += setup_times(child, work, after)
    # one entry per distinct operation, timed by its fastest pass
    best = workloads.best_of_passes([r["wall"] for r in record], passes)
    ops = [dict(r, wall=w) for r, w in zip(record, best)]
    times = [r["wall"] for r in ops]
    busy = sum(times)
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / busy,
        "peak_rss_mb": rss,
    }
    info.update({
        "op_tail_s": (tail_value, "s"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_samples": (len(times), "count"),
        "passes": (passes, "count"),
        "rounds": (rounds, "count"),
        "setup_samples": (len(setup), "count"),
        "failed_share": (len(failures) / len(record), "ratio"),
        "rows_per_s": (sum(r["rows"] for r in ops) / busy, "rows/s") if cli else None,
    })
    for cmd in SUBCOMMANDS:
        walls = [r["wall"] for r in ops if r["cmd"] == cmd]
        info[f"cmd.{cmd}_s"] = (statistics.median(walls), "s") if walls else None
    samples = [[r["kind"], r["wall"]] for r in record]
    return dict(metrics=metrics, info=info, failures=failures, attempted=len(record),
                samples=samples)


def per_layer(args, child: Child, work: Path, names: list[str]) -> dict:
    """Per-layer metrics of one traced run, in the order of BENCHMARK.json."""
    imports = import_breakdown(child, work, 1 if args.smoke else IMPORTTIME_REPEATS)
    res, _ = child.inproc(dict(mode="trace", workload=args.workload, seed=args.seed,
                               seconds=args.seconds, smoke=args.smoke))
    found = dict(res["metrics"], **imports)
    unknown = sorted(set(found) - set(names))
    if unknown:
        raise RuntimeError(f"traced metrics missing from BENCHMARK.json: {unknown}")
    # a layer the workload never calls did no work: zero, not absent
    metrics = {name: found.get(name, 0.0) for name in names}
    info = {"traced_ops": (res["ops"], "count"), "rounds": (res["rounds"], "count")}
    return dict(metrics=metrics, info=info, failures=res["failures"], attempted=2 * res["ops"],
                samples=[])


def run_one(args, spec: dict) -> dict:
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = Child(work)
    env = environment()
    print(f"# env {json.dumps(env)}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        run = per_layer(args, child, work, list(units))
    else:
        run = end_to_end(args, child, work)
    for name, value in run["metrics"].items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    for name, item in run["info"].items():
        print(f"# {args.workload} {name} = " + ("absent" if item is None else f"{item[0]:.6g} {item[1]}"))
    for line in run["failures"][:20]:
        print(f"# FAILED {line}")
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in run["metrics"].items()},
    }
    (work / "run.json").write_text(json.dumps(dict(run, env=env, args=vars(args))))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small round of every workload, untraced and traced")
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs are flagged")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "doblab" / "__init__.py").is_file():
        print(f"error: no doblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.self_test:
        work = ROOT / ".bench_work" / "self-test"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        res, _ = Child(work).inproc(dict(mode="selftest", seed=args.seed))
        for line in res["failures"]:
            print(f"# FAILED {line}")
        print(json.dumps({"correct": not res["failures"], "attempted": res["ops"],
                          "failed": len(res["failures"]), "metrics": {}}))
        return 1 if res["failures"] else 0

    names = workloads.WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    traces = (0, 1) if args.smoke else (args.trace,)
    ok = True
    for name in names:
        for trace in traces:
            one = argparse.Namespace(**dict(vars(args), workload=name, trace=trace))
            result = run_one(one, spec)
            ok &= result["correct"]
            print(json.dumps(result))
    return 0 if ok or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
