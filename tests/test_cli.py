"""CLI surface: output shapes, exit codes, and stream discipline."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doblab
from doblab.cli import CSV_BLOCK_ROWS, _write_csv, main

SERVO_BASE = """
jm = 0.003
kt = 0.25
alpha = 1.0
gdob = 5000
ts = 1e-4
kp = 1000
kd = 25
reference = step
step_amplitude = 1.0
duration = 0.005
"""


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def _rows(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------------- freq


def test_freq_discrete_inner(capsys):
    rc, out, err = _run(
        capsys,
        [
            "freq", "--domain", "z", "--loop", "inner",
            "--alpha", "1", "--gdob", "500", "--ts", "1e-3", "--points", "64",
        ],
    )
    assert rc == 0 and err == ""
    header, rows = _rows(out)
    assert header == ["omega_rad_s", "mag_S", "phase_S_rad", "mag_T", "phase_T_rad"]
    assert len(rows) == 64
    assert float(rows[0][0]) == 0.0
    last = rows[-1]
    assert float(last[0]) == pytest.approx(math.pi / 1e-3, rel=1e-15)
    # x = 0.5: |S| = 2/1.5 and |T| = 0.5/1.5 exactly at Nyquist
    assert float(last[1]) == pytest.approx(2.0 / 1.5, rel=1e-12)
    assert float(last[3]) == pytest.approx(0.5 / 1.5, rel=1e-12)


def test_freq_continuous_outer(capsys):
    rc, out, err = _run(
        capsys,
        [
            "freq", "--domain", "s", "--loop", "outer",
            "--alpha", "0.01", "--gdob", "750", "--kp", "1000", "--kd", "250",
            "--points", "16", "--wmin", "0.1", "--wmax", "1e5",
        ],
    )
    assert rc == 0 and err == ""
    header, rows = _rows(out)
    assert len(rows) == 16
    assert float(rows[0][0]) == pytest.approx(0.1, rel=1e-15)
    assert float(rows[-1][0]) == pytest.approx(1e5, rel=1e-12)
    # near DC the position loop tracks: S small, T near 1
    assert float(rows[0][1]) < 1e-4
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-4)


def test_freq_missing_gains(capsys):
    rc, out, err = _run(
        capsys,
        [
            "freq", "--domain", "s", "--loop", "outer",
            "--alpha", "1", "--gdob", "750", "--kp", "1000",
        ],
    )
    assert rc == 1 and out == ""
    assert "error:" in err and "--kp and --kd" in err


def test_freq_discrete_needs_ts(capsys):
    rc, _, err = _run(
        capsys,
        ["freq", "--domain", "z", "--loop", "inner", "--alpha", "1", "--gdob", "500"],
    )
    assert rc == 1
    assert "--domain z needs --ts" in err


def test_freq_rejects_single_point(capsys):
    rc, _, err = _run(
        capsys,
        [
            "freq", "--domain", "z", "--loop", "inner",
            "--alpha", "1", "--gdob", "500", "--ts", "1e-3", "--points", "1",
        ],
    )
    assert rc == 1
    assert "--points" in err


@pytest.mark.parametrize(
    "flags",
    [
        # stable loops that evaluating the expanded coefficients refused
        [
            "--domain", "z", "--loop", "outer", "--alpha", "0.33521592414979484",
            "--gdob", "4.3443260997046265", "--ts", "1.256709542827543e-05",
            "--kp", "94.14280743671218", "--kd", "181.01454885659666",
        ],
        [
            "--domain", "s", "--loop", "outer", "--alpha", "1.3820911511994514",
            "--gdob", "229.13218428796253", "--gv", "68944.00692958901",
            "--kp", "88962.48794928381", "--kd", "0.0666246829276257",
        ],
    ],
    ids=["outer-z", "outer-s"],
)
def test_freq_answers_stable_loops(capsys, flags):
    rc, out, err = _run(capsys, ["freq", *flags])
    assert rc == 0 and err == ""
    _, rows = _rows(out)
    assert len(rows) == 512
    for _, mag_s, phase_s, mag_t, phase_t in (map(float, row) for row in rows):
        s = mag_s * complex(math.cos(phase_s), math.sin(phase_s))
        t = mag_t * complex(math.cos(phase_t), math.sin(phase_t))
        assert abs(s + t - 1.0) <= 1e-12


@pytest.mark.parametrize("ts", ["1e-3", "1e-6", "0.00013489628825916533"])
def test_freq_outer_z_nyquist_row(capsys, ts):
    # T vanishes at the ZoH zero, u = -2, which is exactly the last row
    rc, out, err = _run(
        capsys,
        [
            "freq", "--domain", "z", "--loop", "outer", "--alpha", "1", "--gdob", "750",
            "--ts", ts, "--kp", "1000", "--kd", "250", "--points", "33",
        ],
    )
    assert rc == 0 and err == ""
    _, rows = _rows(out)
    assert float(rows[-1][0]) == math.pi / float(ts)
    assert abs(float(rows[-1][1]) - 1.0) <= 2.0**-52 and rows[-1][3:] == ["0", "0"]


@pytest.mark.parametrize(
    "loop_args, want",
    [
        # T is exactly 0 at the ZoH zero, so S is exactly 1
        (
            ["--loop", "outer", "--alpha", "0.3", "--gdob", "500", "--kp", "50", "--kd", "0"],
            ["1", "0", "0", "0"],
        ),
        # S is a positive real, T a negative one, approached from below
        (
            ["--loop", "inner", "--alpha", "1", "--gdob", "750"],
            ["1.6000000000000001", "0", "0.60000000000000009", "-3.1415926535897931"],
        ),
    ],
)
def test_freq_nyquist_row_prints_no_negative_zero(capsys, loop_args, want):
    argv = ["freq", "--domain", "z", "--ts", "1e-3", "--points", "64", *loop_args]
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    _, rows = _rows(out)
    assert rows[-1][1:] == want


@pytest.mark.parametrize("alpha", ["1e-300", "1e-200"])
def test_freq_dc_row_with_tiny_gain(capsys, alpha):
    # d is exactly 0 at DC (the double pole at z = 1) and n is tiny: at 1e-300
    # d + n was subnormal, and dividing by it printed mag_T inf and phase nan
    rc, out, err = _run(
        capsys,
        [
            "freq", "--domain", "z", "--loop", "outer", "--alpha", alpha, "--gdob", "1e-3",
            "--ts", "1e-3", "--kp", "1000", "--kd", "250", "--points", "8",
        ],
    )
    assert rc == 0 and err == ""
    _, rows = _rows(out)
    assert rows[0] == ["0", "0", "0", "1", "0"]


def test_freq_refuses_pole_on_nyquist(capsys):
    # x = 2 puts the inner loop's closed-loop pole at z = -1
    rc, out, err = _run(
        capsys,
        [
            "freq", "--domain", "z", "--loop", "inner",
            "--alpha", "2", "--gdob", "1000", "--ts", "1e-3",
        ],
    )
    assert rc == 1 and out == ""
    assert "evaluation at pole: omega=" in err


# -------------------------------------------------------------- constraints


def test_constraints_report(capsys):
    rc, out, err = _run(
        capsys,
        [
            "constraints", "--alpha", "1", "--gdob", "500", "--ts", "1e-3",
            "--gammaS", "0.5", "--gammaT", "0.5",
        ],
    )
    assert rc == 0 and err == ""
    header, rows = _rows(out)
    assert header == ["constraint", "result", "margin"]
    table = {name: (result, float(margin)) for name, result, margin in rows}
    assert set(table) == {"inner", "ringing", "s_peak", "t_peak"}
    assert table["inner"] == ("pass", pytest.approx(1.5))
    assert table["ringing"][0] == "pass"
    assert table["s_peak"] == ("pass", pytest.approx(0.5))
    assert table["t_peak"][0] == "pass"


def test_constraints_with_outer_gains(capsys):
    rc, out, _ = _run(
        capsys,
        [
            "constraints", "--alpha", "1", "--gdob", "2500", "--ts", "1e-3",
            "--gammaS", "0.5", "--gammaT", "0.5", "--kp", "1000", "--kd", "250",
        ],
    )
    assert rc == 0
    _, rows = _rows(out)
    table = {name: result for name, result, _ in rows}
    # x = 2.5: everything inner fails, the outer gain inequality still holds
    assert table["inner"] == "fail"
    assert table["ringing"] == "fail"
    assert table["s_peak"] == "fail"
    assert table["outer_gain"] == "pass"


# --------------------------------------------------------------------- tune


def test_tune_prints_bandwidth(capsys):
    rc, out, err = _run(
        capsys,
        ["tune", "--alpha", "1", "--ts", "1e-3", "--gammaS", "0.5", "--gammaT", "0.5"],
    )
    assert rc == 0 and err == ""
    assert out == "1000\n"


@pytest.mark.parametrize(
    "alpha, ts", [("1e-170", "1e-170"), ("1", "5e-324")], ids=["underflow", "overflow"]
)
def test_tune_prints_inf_for_an_unlimited_bound(capsys, alpha, ts):
    # alpha*ts underflows to 0 in the first case; the bound overflows in the second
    rc, out, err = _run(
        capsys,
        ["tune", "--alpha", alpha, "--ts", ts, "--gammaS", "0.5", "--gammaT", "0.5"],
    )
    assert rc == 0 and err == ""
    assert out == "inf\n"


@pytest.mark.parametrize("ts", ["inf", "nan"])
def test_tune_rejects_bad_ts(capsys, ts):
    rc, out, err = _run(
        capsys,
        ["tune", "--alpha", "1", "--ts", ts, "--gammaS", "0.5", "--gammaT", "0.5"],
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: ts must be positive")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["tune", "--alpha", "inf", "--ts", "1e-3", "--gammaS", "0.5", "--gammaT", "0.5"],
            "alpha must be positive and finite",
        ),
        (
            [
                "constraints", "--alpha", "inf", "--gdob", "500", "--ts", "1e-3",
                "--gammaS", "0.5", "--gammaT", "0.5",
            ],
            "alpha must be positive and finite",
        ),
        (
            [
                "constraints", "--alpha", "1", "--gdob", "500", "--ts", "1e-3",
                "--gammaS", "0.5", "--gammaT", "0.5", "--kp", "1000", "--kd", "nan",
            ],
            "kd must be nonnegative and finite",
        ),
        (
            [
                "constraints", "--alpha", "1", "--gdob", "500", "--ts", "1e-3",
                "--gammaS", "0.5", "--gammaT", "0.5", "--kp", "inf", "--kd", "250",
            ],
            "kp must be positive and finite",
        ),
    ],
    ids=["tune-alpha-inf", "constraints-alpha-inf", "constraints-kd-nan", "constraints-kp-inf"],
)
def test_rejects_nonfinite_design_values(capsys, argv, message):
    rc, out, err = _run(capsys, argv)
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


# ------------------------------------------------------------ bode-integral


def test_bode_integral_report(capsys):
    rc, out, err = _run(
        capsys,
        [
            "bode-integral", "--domain", "s", "--loop", "inner",
            "--alpha", "1", "--gdob", "100",
        ],
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    keys = [line.split(":")[0] for line in lines]
    assert keys == ["value", "rhp_pole_sum", "limit_term", "predicted", "quadrature_error"]
    values = {k: float(line.split(":")[1]) for k, line in zip(keys, lines)}
    assert values["predicted"] == pytest.approx(-50.0 * math.pi, rel=1e-12)
    assert values["value"] == pytest.approx(values["predicted"], rel=1e-3)



@pytest.mark.parametrize(
    "flags",
    [
        # g_v over three decades above g_dob spreads the roots of S
        [
            "--loop", "inner", "--alpha", "1.2941390667632446",
            "--gdob", "2.7281241779049954", "--gv", "9134.917027409185",
        ],
        [
            "--loop", "outer", "--alpha", "0.5528124867560883",
            "--gdob", "1.1420557904803015", "--gv", "1948.020950930901",
            "--kp", "69.20088351742298", "--kd", "2.233278968941267",
        ],
    ],
    ids=["inner", "outer"],
)
def test_bode_integral_balances_with_finite_gv(capsys, flags):
    rc, out, err = _run(capsys, ["bode-integral", "--domain", "s", *flags])
    assert rc == 0 and err == ""
    values = {k: float(v) for k, v in (line.split(":") for line in out.splitlines())}
    assert abs(values["value"] - values["predicted"]) <= values["quadrature_error"] <= 1e-4


@pytest.mark.parametrize(
    "flags",
    [
        # roots of S beyond 1e5 rad/s: the error budget grows with them
        ["--loop", "inner", "--alpha", "13.742154707133343", "--gdob", "107989.6200162046",
         "--gv", "859099.277976888"],
        ["--loop", "outer", "--alpha", "89.53142053610915", "--gdob", "20.63281623997809",
         "--gv", "10.805038475471518", "--kp", "0.9698966783293134",
         "--kd", "8180.245001852888"],
    ],
    ids=["inner", "outer"],
)
def test_bode_integral_balances_with_large_roots(capsys, flags):
    rc, out, err = _run(capsys, ["bode-integral", "--domain", "s", *flags])
    assert rc == 0 and err == ""
    values = {k: float(v) for k, v in (line.split(":") for line in out.splitlines())}
    assert abs(values["value"] - values["predicted"]) <= values["quadrature_error"]


def test_bode_integral_balances_with_huge_gains(capsys):
    # roots of S up to 1.5e307 rad/s: the quadrature ends at twice the
    # largest, and the closed-form tail needs no power of it
    for flags in (
        ["--loop", "outer", "--alpha", "1", "--gdob", "1", "--kp", "1e300", "--kd", "1e300"],
        ["--loop", "inner", "--alpha", "1", "--gdob", "1e305"],
        ["--loop", "inner", "--alpha", "1", "--gdob", "1.5e307"],
    ):
        rc, out, err = _run(capsys, ["bode-integral", "--domain", "s", *flags])
        assert rc == 0 and err == "", flags
        values = {k: float(v) for k, v in (line.split(":") for line in out.splitlines())}
        assert abs(values["value"] - values["predicted"]) <= values["quadrature_error"], flags


def test_bode_integral_discrete_balances(capsys):
    rc, out, err = _run(
        capsys,
        [
            "bode-integral", "--domain", "z", "--loop", "inner",
            "--alpha", "1", "--gdob", "500", "--ts", "1e-3",
        ],
    )
    assert rc == 0 and err == ""
    values = {line.split(":")[0]: float(line.split(":")[1]) for line in out.splitlines()}
    assert values["predicted"] == 0.0
    assert abs(values["value"]) <= 1e-3


def test_bode_integral_refuses_nan_quadrature(capsys):
    # with g_dob 8e307 the integral ends at 1.6e308 rad/s, where the
    # quadrature's own arithmetic overflows, and a NaN error estimate must
    # not pass the ceiling
    rc, out, err = _run(
        capsys,
        ["bode-integral", "--domain", "s", "--loop", "inner", "--alpha", "1", "--gdob", "8e307"],
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: quadrature did not converge")


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "1", "--gdob", "1.7e308"],
        ["--alpha", "1.7e308", "--gdob", "1"],
        ["--alpha", "1", "--gdob", "1", "--gv", "1.7e308"],
        ["--alpha", "1", "--gdob", "8.5e307"],
    ],
    ids=["gdob", "alpha", "gv", "gdob-8.5e307"],
)
def test_bode_integral_refuses_overflowing_roots(capsys, flags):
    # the first three raised a bare OverflowError and now overflow the end of
    # the range; the last overflows |p - r| inside the integrand
    rc, out, err = _run(capsys, ["bode-integral", "--domain", "s", "--loop", "inner", *flags])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "loop_args",
    [
        ["--domain", "z", "--loop", "inner", "--alpha", "1", "--gdob", "3000", "--ts", "1e-3"],
        ["--domain", "s", "--loop", "outer", "--alpha", "0.01", "--gdob", "50",
         "--kp", "1000", "--kd", "250"],
    ],
    ids=["inner-z", "outer-s"],
)
def test_bode_integral_refuses_unstable_closed_loop(capsys, loop_args):
    # both printed a predicted value the theorem does not give and exited 0
    rc, out, err = _run(capsys, ["bode-integral", *loop_args])
    assert (rc, out, err) == (1, "", "error: prediction undefined for unstable closed loop\n")


# ---------------------------------------------------------------- rootlocus


LOCUS_ARGS = [
    "rootlocus", "--domain", "z", "--loop", "outer",
    "--alpha", "1", "--gdob", "750", "--ts", "1e-3",
    "--kp", "1000", "--kd", "250",
    "--sweep", "alpha", "--start", "1", "--stop", "5", "--count", "9",
]


def test_rootlocus_sweep(capsys):
    rc, out, err = _run(capsys, LOCUS_ARGS)
    assert rc == 0 and err == ""
    header, rows = _rows(out)
    assert header[0] == "param" and header[-1] == "stable"
    assert header[1:-1] == [
        "re_pole_1", "im_pole_1", "re_pole_2", "im_pole_2",
        "re_pole_3", "im_pole_3", "re_pole_4", "im_pole_4",
    ]
    assert len(rows) == 9
    assert float(rows[0][0]) == 1.0 and rows[0][-1] == "1"
    assert float(rows[-1][0]) == 5.0 and rows[-1][-1] == "0"


def test_rootlocus_log_spacing(capsys):
    args = [
        "rootlocus", "--domain", "z", "--loop", "inner",
        "--alpha", "0.01", "--gdob", "100", "--ts", "1e-3",
        "--sweep", "gdob", "--start", "100", "--stop", "1e6",
        "--count", "5", "--log",
    ]
    rc, out, _ = _run(capsys, args)
    assert rc == 0
    _, rows = _rows(out)
    params = [float(r[0]) for r in rows]
    assert params[0] == pytest.approx(100.0, rel=1e-12)
    assert params[-1] == pytest.approx(1e6, rel=1e-12)
    # log spacing: constant ratio
    ratios = [b / a for a, b in zip(params[:-1], params[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def test_rootlocus_rejects_bad_range(capsys):
    rc, _, err = _run(
        capsys,
        [
            "rootlocus", "--domain", "z", "--loop", "inner",
            "--alpha", "1", "--gdob", "500", "--ts", "1e-3",
            "--sweep", "alpha", "--start", "5", "--stop", "1", "--count", "4",
        ],
    )
    assert rc == 1
    assert "--start < --stop" in err


def test_rootlocus_discrete_needs_ts(capsys):
    # reported as a usage error, not as a failure at the first sweep value
    args = [a for a in LOCUS_ARGS if a not in ("--ts", "1e-3")]
    rc, out, err = _run(capsys, args)
    assert rc == 1 and out == ""
    assert err == "error: --domain z needs --ts\n"


# ----------------------------------------------------------------- simulate


def test_simulate_step_scenario(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SERVO_BASE + "load = 0.004:0.5\n")
    rc, out, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 0 and err == ""
    header, rows = _rows(out)
    assert header == ["t", "q_ref", "q", "qdot", "u", "tau_d", "tau_d_hat"]
    assert len(rows) == 50
    assert float(rows[0][4]) == pytest.approx(1129.5, rel=1e-12)
    assert float(rows[0][5]) == 0.0
    # the load engages at t = 0.004
    assert float(rows[40][5]) == 0.5
    assert all(float(r[1]) == 1.0 for r in rows)


def test_simulate_trajectory_relative_path(tmp_path, capsys):
    samples = [math.sin(0.3 * k) for k in range(20)]
    traj = tmp_path / "traj.csv"
    lines = ["t,q_ref"] + [f"{k * 1e-4},{v}" for k, v in enumerate(samples)]
    traj.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
jm = 0.003
kt = 0.25
alpha = 1.0
gdob = 5000
ts = 1e-4
reference = trajectory
trajectory_csv = traj.csv
duration = 0.002
"""
    )
    rc, out, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 0 and err == ""
    _, rows = _rows(out)
    assert len(rows) == 20
    got = [float(r[1]) for r in rows]
    assert got == pytest.approx(samples, rel=1e-15)


def test_simulate_divergence_note_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "blow.cfg"
    text = SERVO_BASE.replace("gdob = 5000", "gdob = 25000")
    cfg.write_text(text.replace("duration = 0.005", "duration = 0.01"))
    rc, out, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 0
    assert "diverged at row" in err
    _, rows = _rows(out)
    assert len(rows) == 100
    assert any(r[2] == "nan" for r in rows)  # position column goes NaN
    assert all(r[1] == "1" for r in rows)  # reference stays filled


@pytest.mark.parametrize("load", ["nan:0.5", "0.002:nan"])
def test_simulate_rejects_nonfinite_load(tmp_path, capsys, load):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SERVO_BASE + f"load = {load}\n")
    rc, out, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 1 and out == ""
    assert err == "error: external_load times and torques must be finite\n"


def test_simulate_missing_file(capsys, tmp_path):
    rc, out, err = _run(capsys, ["simulate", "--scenario", str(tmp_path / "nope.cfg")])
    assert rc == 1 and out == ""
    assert "scenario file not found" in err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SERVO_BASE + "warp = 9\n")
    rc, _, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 1
    assert "unknown scenario key: warp" in err


def test_simulate_requires_gain_pair(tmp_path, capsys):
    cfg = tmp_path / "half.cfg"
    cfg.write_text(SERVO_BASE.replace("kd = 25\n", ""))
    rc, _, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 1
    assert "both kp and kd" in err


def test_simulate_rejects_bad_header(tmp_path, capsys):
    traj = tmp_path / "t.csv"
    traj.write_text("time,position\n0,0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "jm = 0.003\nkt = 0.25\nalpha = 1\ngdob = 5000\nts = 1e-4\n"
        "reference = trajectory\ntrajectory_csv = t.csv\nduration = 1e-4\n"
    )
    rc, _, err = _run(capsys, ["simulate", "--scenario", str(cfg)])
    assert rc == 1
    assert "header must be t,q_ref" in err


# ------------------------------------------------------------------ general


def test_write_csv_matches_per_cell_csv_writer(capsys):
    # the former writer: f"{x:.17g}" per cell through csv.writer
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-320, 0.1, 1 / 3]
    rng = np.random.Generator(np.random.PCG64(3))
    n = 2 * CSV_BLOCK_ROWS + 17  # crosses two block boundaries
    cols = [
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)
    ]
    for c in cols:
        c[rng.integers(0, n, 40)] = rng.choice(special, 40)
    flags = rng.integers(0, 2, n).astype(bool)
    names = [str(v) for v in rng.integers(0, 9, n)]

    _write_csv(["a", "b", "c", "name", "flag"], [*cols, names, flags],
               ["%.17g", "%.17g", "%.17g", "%s", "%d"])
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(["a", "b", "c", "name", "flag"])
    for i in range(n):
        w.writerow([f"{c[i]:.17g}" for c in cols] + [names[i], "1" if flags[i] else "0"])
    assert capsys.readouterr().out == want.getvalue()



def test_repeat_invocations_byte_identical(capsys):
    args = [
        "freq", "--domain", "z", "--loop", "inner",
        "--alpha", "1.3", "--gdob", "700", "--ts", "1e-3", "--points", "40",
    ]
    rc, first, _ = _run(capsys, args)
    assert rc == 0
    rc, second, _ = _run(capsys, args)
    assert rc == 0
    assert first == second


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["freq", "--domain", "q", "--loop", "inner", "--alpha", "1", "--gdob", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # constraints never read a velocity-filter bandwidth, so it takes no --gv
    with pytest.raises(SystemExit) as exc:
        main([
            "constraints", "--alpha", "1", "--gdob", "500", "--ts", "1e-3",
            "--gammaS", "0.5", "--gammaT", "0.5", "--gv", "10",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gv 10" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    # the child imports the same doblab as this test, installed or not
    src = str(Path(doblab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "doblab", "tune",
            "--alpha", "1", "--ts", "1e-3", "--gammaS", "0.5", "--gammaT", "0.5",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1000\n"
    assert proc.stderr == ""
