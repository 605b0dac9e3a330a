"""Output checks against closed forms and independent oracles.

Nothing here compares bytes with an earlier run: every expected value comes
from the operation's inputs, so a change that moves the last digit of a
result still passes while a wrong result does not.  Each check returns a
list of problems; an empty list means the output is correct.  The module
uses only the standard library, so the benchmark's parent process never
imports numpy, scipy or the package under test.
"""

from __future__ import annotations

import bisect
import cmath
import math
import re

BOUNDARY_TOL = 1e-9  # the package's documented stability band
_DIVERGED = re.compile(r"diverged at row (\d+) \(t = ")


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def _table(text: str, header: list[str] | None = None):
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    head = lines[0].split(",")
    if header is not None and head != header:
        raise ValueError(f"header {head} != {header}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(head) for r in rows):
        raise ValueError("ragged CSV rows")
    return head, rows


def data_rows(cmd: str, text: str) -> int:
    """Data rows in one CLI output: CSV lines after the header, or key lines."""
    n = text.count("\n")
    return n - 1 if cmd in ("freq", "rootlocus", "constraints", "simulate") and n else n


def check_cli(check: dict, rc: int, out: str, err: str) -> list[str]:
    """Problems with one CLI call's exit code and output."""
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[:200]}"]
    try:
        return _CHECKS[check["type"]](check, out, err)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unparseable output: {exc}"]


# ------------------------------------------------------------ tune / constraints


def _bounds(gs: float, gt: float) -> tuple[float, float]:
    return 2.0 * (1.0 - gs), 2.0 / (1.0 + gt)


def _check_tune(c, out, err):
    b_s, b_t = _bounds(c["gs"], c["gt"])
    want = min(b_s, b_t) / (c["alpha"] * c["ts"])
    got = float(out.strip())
    return [] if _close(got, want, 1e-12) else [f"tune {got} != {want}"]


def margins(alpha, gdob, ts, gs, gt, kp=None, kd=None) -> dict[str, float]:
    """Design-constraint margins (boundary minus value) in closed form.

    The outer-gain margin is that of the printed continuous inequality
    1/alpha < 1 + g*(kd/kp + kd/g + kd^2/kp); it needs both gains.
    """
    x = alpha * gdob * ts
    b_s, b_t = _bounds(gs, gt)
    out = {"inner": 2.0 - x, "ringing": 1.0 - x, "s_peak": b_s - x, "t_peak": b_t - x}
    if kp is not None:
        out["outer_gain"] = 1.0 + gdob * (kd / kp + kd / gdob + kd * kd / kp) - 1.0 / alpha
    return out


def _margin_problems(got: dict, want: dict, x: float) -> list[str]:
    problems = []
    for name, value in want.items():
        if not _close(got[name], value, 0.0, 1e-12 * max(1.0, x, abs(value))):
            problems.append(f"margin {name} {got[name]} != {value}")
    return problems


def _check_constraints(c, out, err):
    x = c["alpha"] * c["gdob"] * c["ts"]
    want = margins(c["alpha"], c["gdob"], c["ts"], c["gs"], c["gt"], c["kp"], c["kd"])
    _, rows = _table(out, ["constraint", "result", "margin"])
    if [r[0] for r in rows] != list(want):
        return [f"constraint rows {[r[0] for r in rows]} != {list(want)}"]
    problems = _margin_problems({r[0]: float(r[2]) for r in rows}, want, x)
    for name, result, _ in rows:
        # strict inequalities fail at a zero margin; skip values too close to call
        if abs(want[name]) > 1e-9 * max(1.0, x):
            ok = want[name] > 0.0 if name in ("inner", "outer_gain") else want[name] >= 0.0
            if result != ("pass" if ok else "fail"):
                problems.append(f"{name} reported {result} at margin {want[name]}")
    return problems


# ------------------------------------------------------------- bode-integral


def _check_bode(c, out, err):
    rep = {}
    for line in out.splitlines():
        key, _, val = line.partition(": ")
        rep[key] = float(val)
    keys = ["value", "rhp_pole_sum", "limit_term", "predicted", "quadrature_error"]
    if list(rep) != keys:
        return [f"report keys {list(rep)} != {keys}"]
    problems = []
    # no open-loop pole of these loops lies outside the stability region
    if rep["rhp_pole_sum"] != 0.0:
        problems.append(f"rhp_pole_sum {rep['rhp_pole_sum']} != 0")
    if c["loop"] == "outer" and c["domain"] == "s" and c["gv"] is None:
        # relative degree 1: lim s*L(s) = alpha*(g_dob + kd)
        limit = c["alpha"] * (c["gdob"] + c["kd"])
    else:
        limit = 0.0
    if not _close(rep["limit_term"], limit, 1e-12):
        problems.append(f"limit_term {rep['limit_term']} != {limit}")
    factor = -0.5 * math.pi if c["domain"] == "s" else -2.0 * math.pi
    if not _close(rep["predicted"], factor * limit, 1e-12):
        problems.append(f"predicted {rep['predicted']} != {factor * limit}")
    # the quadrature balances the theorem (criteria 2 and 3)
    if abs(rep["value"] - factor * limit) > 1e-3:
        problems.append(f"integral {rep['value']} does not balance {factor * limit}")
    if not 0.0 <= rep["quadrature_error"] <= 1e-4:
        problems.append(f"quadrature_error {rep['quadrature_error']} outside [0, 1e-4]")
    return problems


# ---------------------------------------------------------------------- freq


def _grid(c, n):
    if c["domain"] == "z":
        top = math.pi / c["ts"]
        return [top * i / (n - 1) for i in range(n)]
    lo, hi = math.log10(c["wmin"]), math.log10(c["wmax"])
    return [10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def _check_freq(c, out, err):
    _, rows = _table(out, ["omega_rad_s", "mag_S", "phase_S_rad", "mag_T", "phase_T_rad"])
    if len(rows) != c["points"]:
        return [f"{len(rows)} rows, want {c['points']}"]
    inner_z = c["loop"] == "inner" and c["domain"] == "z"
    x = c["alpha"] * c["gdob"] * c["ts"] if inner_z else None
    problems = []
    for want_w, row in zip(_grid(c, len(rows)), rows):
        w, ms, ps, mt, pt = (float(v) for v in row)
        if not _close(w, want_w, 1e-12, 1e-300):
            problems.append(f"omega {w} != {want_w}")
        s, t = cmath.rect(ms, ps), cmath.rect(mt, pt)
        if abs(s + t - 1.0) > 1e-12:
            problems.append(f"|S+T-1| = {abs(s + t - 1.0):.3g} at omega {w}")
        if inner_z:
            zm1 = cmath.exp(1j * w * c["ts"]) - 1.0
            s_want, t_want = zm1 / (zm1 + x), x / (zm1 + x)
            if not (_close(s, s_want, 1e-9, 1e-15) and _close(t, t_want, 1e-9, 1e-15)):
                problems.append(f"S, T at omega {w}: {s}, {t} != {s_want}, {t_want}")
        if len(problems) > 5:
            break
    return problems


# ----------------------------------------------------------------- rootlocus


def _pmul(a: list, b: list) -> list:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = [0.0] * (n - len(a)) + a, [0.0] * (n - len(b)) + b
    return [x + y for x, y in zip(a, b)]


def char_poly_z(c: dict, alpha: float, gdob: float) -> list:
    """Closed-loop characteristic polynomial den(L) + num(L), highest power first.

    Inner loop: z - 1 + x.  Outer loop: L = C * C_i * G_p with the backward
    Euler PD C = (kp + kd/ts - (kd/ts)/z), the inner compensator
    C_i = alpha*((1 + g*ts)*z - 1)/(z - 1 + x) and the ZoH double integrator
    G_p = (ts^2/2)*(z + 1)/(z - 1)^2.
    """
    ts = c["ts"]
    x = alpha * gdob * ts
    if c["loop"] == "inner":
        return [1.0, x - 1.0]
    kd_ts = c["kd"] / ts
    num = _pmul(_pmul([c["kp"] + kd_ts, -kd_ts], [alpha * (1.0 + gdob * ts), -alpha]),
                [0.5 * ts * ts, 0.5 * ts * ts])
    den = _pmul(_pmul([1.0, 0.0], [1.0, x - 1.0]), [1.0, -2.0, 1.0])
    return _padd(den, num)


def _root_problems(coeffs: list, roots: list) -> str | None:
    """Each root zeroes the polynomial, and the roots sum as Vieta says."""
    if len(roots) != len(coeffs) - 1:
        return f"{len(roots)} roots for degree {len(coeffs) - 1}"
    for r in roots:
        value, scale = 0j, 0.0
        for a in coeffs:
            value = value * r + a
            scale = scale * abs(r) + abs(a)
        if abs(value) > 1e-9 * scale:
            return f"root {r} leaves residual {abs(value):.3g} of {scale:.3g}"
    total = sum(roots)
    want = -coeffs[1] / coeffs[0]
    if abs(total - want) > 1e-9 * (sum(abs(r) for r in roots) + 1.0):
        return f"roots sum to {total}, not {want}"
    return None


def _check_rootlocus(c, out, err):
    head, rows = _table(out)
    n_roots = (len(head) - 2) // 2
    if head[0] != "param" or head[-1] != "stable" or len(head) != 2 * n_roots + 2:
        return [f"bad header {head}"]
    if len(rows) != c["count"]:
        return [f"{len(rows)} rows, want {c['count']}"]
    n, a, b = c["count"], c["start"], c["stop"]
    if c["log"]:
        la, lb = math.log10(a), math.log10(b)
        params = [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]
    else:
        params = [a + (b - a) * i / (n - 1) for i in range(n)]
    inner = c["loop"] == "inner"
    problems, flags = [], []
    for want_p, row in zip(params, rows):
        p = float(row[0])
        roots = [complex(float(row[1 + 2 * i]), float(row[2 + 2 * i])) for i in range(n_roots)]
        stable = {"1": True, "0": False}[row[-1]]
        flags.append(stable)
        if not _close(p, want_p, 1e-12):
            problems.append(f"param {p} != {want_p}")
        margin = max((abs(r) - 1.0 if c["domain"] == "z" else r.real) for r in roots)
        if abs(margin + BOUNDARY_TOL) > 1e-12 and stable != (margin < -BOUNDARY_TOL):
            problems.append(f"param {p}: stable={stable} but worst root margin {margin}")
        if c["domain"] == "z":
            alpha = p if c["sweep"] == "alpha" else c["alpha"]
            gdob = p if c["sweep"] == "gdob" else c["gdob"]
            bad = _root_problems(char_poly_z(c, alpha, gdob), roots)
            if bad:
                problems.append(f"param {p}: {bad}")
        if inner and c["domain"] == "z":
            x = alpha * gdob * c["ts"]
            if n_roots != 1 or not _close(roots[0], 1.0 - x, 1e-12, 1e-15):
                problems.append(f"param {p}: roots {roots} != [{1.0 - x}]")
            elif abs(x - 2.0) > 1e-6 and stable != (x < 2.0):
                problems.append(f"param {p}: stable={stable} at x = {x}")
        if len(problems) > 5:
            break
    if c["cross"] and not (any(flags) and not flags[-1]):
        problems.append("sweep does not cross from stable to unstable")
    return problems


# ------------------------------------------------------------------ simulate


def load_at(load: list, ts: float, k: int) -> float:
    """The plant's load rule: the last entry whose time is not after k*ts."""
    times = [tick * ts for tick, _ in load]
    i = bisect.bisect_right(times, k * ts)
    return load[i - 1][1] if i else 0.0


def disturbance_oracle(x: float, jm: float, d: list[float]) -> list[float]:
    """Acceleration of the open estimator loop under a sampled load.

    The sensitivity filter of the sampled inner loop scaled by -1/jm:
    y[k] = (1 - x)*y[k-1] - (d[k] - d[k-1])/jm.
    """
    y, prev_y, prev_d = [], 0.0, 0.0
    for dk in d:
        prev_y = (1.0 - x) * prev_y - (dk - prev_d) / jm
        prev_d = dk
        y.append(prev_y)
    return y


def _newton_problems(q, cols, dt, m, jm) -> list[str]:
    """A frictionless plant under held force, row to row.

    Between consecutive rows the acceleration is (u - tau_d)/jm of the
    controller tick that holds, so the velocity changes by dt*a and the
    position by the trapezoid dt*(v0 + v1)/2, both exactly.
    """
    v = [float(x) for x in cols[3]]
    u = [float(x) for x in cols[4]]
    d = [float(x) for x in cols[5]]
    for i in range(len(q) - 1):
        k = i - i % m  # row of the tick whose force holds
        a = (u[k] - d[k]) / jm
        dv_tol = 1e-12 * (1.0 + abs(a) * dt) + 1e-14 * (abs(v[i]) + abs(v[i + 1]))
        if abs(v[i + 1] - v[i] - dt * a) > dv_tol:
            return [f"row {i}: velocity step {v[i + 1] - v[i]} != dt*(u - tau_d)/jm = {dt * a}"]
        dq = dt * 0.5 * (v[i] + v[i + 1])
        if abs(q[i + 1] - q[i] - dq) > 1e-13 * (abs(q[i]) + abs(q[i + 1])) + 1e-12 * abs(dq):
            return [f"row {i}: position step {q[i + 1] - q[i]} != trapezoid {dq}"]
    return []


def _check_simulate(c, out, err):
    _, rows = _table(out, ["t", "q_ref", "q", "qdot", "u", "tau_d", "tau_d_hat"])
    n, m, ts = c["n"], c["m"], c["ts"]
    if len(rows) != n * m:
        return [f"{len(rows)} rows, want n*substeps = {n * m}"]
    problems = []
    cols = list(zip(*rows))
    t = [float(v) for v in cols[0]]
    q_ref = [float(v) for v in cols[1]]
    q = [float(v) for v in cols[2]]
    dt = ts / m
    if any(not _close(t[i], i * dt, 1e-12) for i in range(len(t))):
        problems.append("time column is not the ts/substeps grid")
    ref = c["trajectory"] or [c["amplitude"]] * n
    if any(q_ref[k * m] != ref[k] for k in range(n)):
        problems.append("q_ref column differs from the scenario reference")
    tau_d = [float(v) for v in cols[5][::m]]
    if any(tau_d[k] != load_at(c["load"], ts, k) for k in range(n)):
        problems.append("tau_d column differs from the scenario load")

    match = _DIVERGED.search(err)
    if c["mode"] == "diverge":
        if match is None:
            return problems + ["per-sample gain above 2 did not report divergence"]
        row = int(match.group(1))
        if row % m or not 0 < row < len(q):
            problems.append(f"divergence row {row} is not a controller tick inside the run")
        elif not all(math.isnan(v) for v in q[row:]) or any(math.isnan(v) for v in q[:row]):
            problems.append(f"q is not finite before row {row} and NaN from it on")
        return problems
    if match is not None or err:
        return problems + [f"unexpected stderr: {err.strip()[:200]}"]
    if any(not math.isfinite(v) for v in q):
        return problems + ["non-finite state in a run that did not diverge"]
    if not c["viscous"]:
        problems += _newton_problems(q, cols, dt, m, c["jm"])

    if c["mode"] == "oracle":
        # open outer loop: plant acceleration per tick against the filter form
        x = c["alpha"] * c["gdob"] * ts
        qdot = [float(v) for v in cols[3][::m]]
        a_ref = disturbance_oracle(x, c["jm"], [load_at(c["load"], ts, k) for k in range(n)])
        scale = max([1.0] + [abs(v) for v in a_ref])
        worst = max(abs((qdot[k + 1] - qdot[k]) / ts - a_ref[k]) for k in range(n - 1))
        if worst > 1e-9 * scale:
            problems.append(f"acceleration differs from the filter oracle by {worst:.3g}")
        return problems

    if not c["noisy"]:
        # first tick by hand: q = v = 0, so e = ref and the filtered velocity is 0
        jn = c["alpha"] * c["jm"]
        acc = c["kp"] * ref[0] + c["kd"] * ref[0] / ts
        u0 = jn * acc + c["gdob"] * jn * ts * acc
        if not _close(float(cols[4][0]), u0, 1e-12):
            problems.append(f"first command {cols[4][0]} != {u0}")
    if c["tail_ticks"]:
        tail = c["tail_ticks"] * m
        worst = max(abs(r - y) for r, y in zip(q_ref[-tail:], q[-tail:]))
        if not worst < 1e-3:
            problems.append(f"steady tracking error {worst} not below 1e-3")
    return problems


_CHECKS = {
    "tune": _check_tune,
    "constraints": _check_constraints,
    "bode-integral": _check_bode,
    "freq": _check_freq,
    "rootlocus": _check_rootlocus,
    "simulate": _check_simulate,
}


# ---------------------------------------------------------- library-study


def check_design_point(pt: dict, res: dict) -> list[str]:
    """Problems with one in-process design point (see inproc.evaluate)."""
    problems = []
    iz = pt["inner_z"]
    x = iz["alpha"] * iz["gdob"] * iz["ts"]
    nyq = math.pi / iz["ts"]
    w, peak = res["inner_z_s_peak"]
    if not (_close(peak, 2.0 / abs(x - 2.0), 1e-9) and _close(w, nyq, 1e-9)):
        problems.append(f"inner-z S peak {(w, peak)} != ({nyq}, {2.0 / abs(x - 2.0)})")
    _, peak = res["inner_z_t_peak"]
    # |T| peaks at Nyquist for x >= 1; below 1 it falls from |T(1)| = 1
    t_want = max(1.0, x / abs(x - 2.0))
    if not _close(peak, t_want, 1e-9):
        problems.append(f"inner-z T peak {peak} != {t_want}")
    for key in ("outer_z_s_peak", "outer_s_gv_s_peak"):
        w, peak = res[key]
        # stable loops with zero Bode balance cannot keep |S| below 1
        if not (math.isfinite(peak) and peak >= 1.0 - 1e-9 and w >= 0.0):
            problems.append(f"{key} {(w, peak)} is not a peak of at least 1")
    for key in ("bode_inner_z", "bode_inner_s_gv", "bode_outer_z"):
        rep = res[key]
        if rep["predicted"] != 0.0 or abs(rep["value"]) > 1e-3:
            problems.append(f"{key}: integral {rep['value']} vs predicted {rep['predicted']}")

    cp, g = pt["constraints"], pt["gains"]
    want = margins(cp["alpha"], cp["gdob"], cp["ts"], cp["gs"], cp["gt"], g["kp"], g["kd"])
    problems += _margin_problems(res["margins"], want, cp["alpha"] * cp["gdob"] * cp["ts"])
    audit = res["audit"]
    if audit["predicate_ok"] != (want["outer_gain"] > 0.0) or audit["agree"] != (
        audit["predicate_ok"] == audit["root_stable"]
    ):
        problems.append(f"audit {audit} inconsistent with margin {want['outer_gain']}")

    tu = pt["tustin"]
    gv = math.inf if tu["gv"] is None else tu["gv"]
    a_g = tu["alpha"] * tu["gdob"]
    for z, got in res["tustin_samples"]:
        s = 2.0 / tu["ts"] * (z - 1.0) / (z + 1.0)
        want_l = a_g / s if math.isinf(gv) else a_g * gv / (s * (s + gv))
        if not _close(got, want_l, 1e-9):
            problems.append(f"Tustin L({z}) = {got} != L_c({s}) = {want_l}")
    # Tustin maps the stable continuous closed loop into the unit disk
    if res["tustin_stable"] != "stable":
        problems.append(f"Tustin closed loop verdict {res['tustin_stable']}")

    lo, hi = res["locus_bracket"]
    crit = res["critical"]
    flags = res["locus_flags"]
    if len(flags) != pt["locus"]["count"] or not (any(flags) and not flags[-1]):
        problems.append("outer-z alpha locus does not cross from stable to unstable")
    if not lo <= crit <= hi:
        problems.append(f"critical alpha {crit} outside bracket [{lo}, {hi}]")
    if res["critical_sides"] != [True, False]:
        problems.append(f"verdicts around critical alpha {crit}: {res['critical_sides']}")
    return problems
