"""Span tracing installed from outside the package.

The tracer swaps module-level names for timing wrappers: the names each
layer imports from the layer below (cli -> analysis/loops/sim,
analysis -> lti/loops/quad, loops -> lti/discretize) and the public entry
points the benchmark itself calls.  The package's source is not changed;
``uninstall`` puts every original back.

Spans stay in memory as (id, parent id, operation id, name, start, end) and
are written once, at the end of a run.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
of an operation add up to the operation's root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

ROOT = "op"


def _locus_points(tr, args, kwargs, result):
    tr.counts["analysis.locus_points"] += len(args[1])


def _response_points(tr, args, kwargs, result):
    tr.counts["lti.response_points"] += len(result[0])


def _sim_counts(tr, args, kwargs, result):
    tr.counts["sim.ticks"] += args[0].n_steps
    tr.counts["sim.rows"] += len(result)
    tr.counts["sim.diverged_runs"] += result.diverged_at is not None


def _quad_counts(tr, args, kwargs, result):
    tr.counts["analysis.quad_calls"] += 1
    if len(result) > 2 and isinstance(result[2], dict):
        tr.counts["analysis.quad_evals"] += result[2]["neval"]


def _count_critical_evals(tr, args, kwargs):
    build = args[0]

    def counted(value):
        tr.counts["analysis.critical_evals"] += 1
        return build(value)

    return (counted,) + tuple(args[1:]), kwargs


# (module, attribute, span name or None for a counter only, calls counter,
#  hooks).  A class attribute is written "Class.method".
_BUILDERS = ("inner_loop_ct", "inner_loop_dt", "outer_loop_ct", "outer_loop_dt")
PATCHES = [
    # entry points the benchmark calls
    ("doblab.cli", "main", "cli.self", None, {}),
    ("doblab.analysis", "sensitivity_peak", "analysis.peak", "analysis.peak_calls", {}),
    ("doblab.analysis", "bode_integral", "analysis.bode", "analysis.bode_calls", {}),
    ("doblab.analysis", "check_constraints", "analysis.constraints", None, {}),
    ("doblab.analysis", "audit_outer_gain_condition", "analysis.audit", None, {}),
    ("doblab.analysis", "root_locus", "analysis.locus", None, {"after": _locus_points}),
    ("doblab.analysis", "critical_parameter", "analysis.critical", None,
     {"before": _count_critical_evals}),
    ("doblab.discretize", "substitute", "discretize.substitute", "discretize.substitute_calls", {}),
    ("doblab.lti", "is_stable", "lti.stability", "lti.stability_calls", {}),
    *[("doblab.loops", b, "loops.build", "loops.builds", {}) for b in _BUILDERS],
    # cli -> analysis / loops / sim
    ("doblab.cli", "bode_integral", "analysis.bode", "analysis.bode_calls", {}),
    ("doblab.cli", "check_constraints", "analysis.constraints", None, {}),
    ("doblab.cli", "max_bandwidth", "analysis.tune", None, {}),
    ("doblab.cli", "root_locus", "analysis.locus", None, {"after": _locus_points}),
    *[("doblab.cli", b, "loops.build", "loops.builds", {}) for b in _BUILDERS],
    ("doblab.cli", "simulate", "sim.simulate", None, {"after": _sim_counts}),
    ("doblab.loops", "LoopSet.st_response", "lti.response", None,
     {"after": _response_points, "refusals": "lti.eval_refusals"}),
    # analysis -> lti / loops / quad
    ("doblab.analysis", "quad", None, None, {"after": _quad_counts}),
    ("doblab.analysis", "is_stable", "lti.stability", "lti.stability_calls", {}),
    ("doblab.analysis", "classify_roots", "lti.stability", "lti.stability_calls", {}),
    ("doblab.analysis", "poly_roots", "lti.roots", "lti.roots_calls", {}),
    ("doblab.analysis", "outer_loop_ct", "loops.build", "loops.builds", {}),
    # loops -> lti / discretize
    ("doblab.loops", "tf_connect", "lti.connect", "lti.connect_calls", {}),
    ("doblab.loops", "backward_euler_pd", "discretize.block", "discretize.block_calls", {}),
    ("doblab.loops", "zoh_double_integrator", "discretize.block", "discretize.block_calls", {}),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._saved: list = []

    def wrap(self, fn, name, calls=None, before=None, after=None, refusals=None):
        """fn timed as a span called name (None: no span, only the hooks)."""
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tr, args, kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = tr._stack
                parent = stack[-1][0] if stack else None
                frame = [len(tr.spans), 0.0]
                tr.spans.append(None)
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except ValueError:
                    if refusals is not None:
                        tr.counts[refusals] += 1
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    tr.self_time[name] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    tr.spans[frame[0]] = (frame[0], parent, tr.op_id, name, t0, t1)
            if calls is not None:
                tr.counts[calls] += 1
            if after is not None:
                after(tr, args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of operation op_id; return (result, seconds)."""
        self.op_id = op_id
        start = len(self.spans)
        result = self.wrap(fn, ROOT)(*args)
        _, _, _, _, t0, t1 = self.spans[start]
        return result, t1 - t0

    def install(self) -> None:
        for module, attr, name, calls, hooks in PATCHES:
            owner = importlib.import_module(module)
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr_name)
            self._saved.append((owner, attr_name, original))
            setattr(owner, attr_name, self.wrap(original, name, calls, **hooks))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr_name, original = self._saved.pop()
            setattr(owner, attr_name, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)
