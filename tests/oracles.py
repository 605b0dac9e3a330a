"""Reference closed forms and recursions that the library is checked against.

Each one is written from the printed closed forms of the loop algebra: the
inner loop's Nyquist magnitudes, and direct-form recursions of the simulated
channels.  They import nothing of doblab but its parameters, so they share no
code with the analysis, the simulator or the loop builders they check.
"""

from typing import Sequence

import numpy as np

from doblab.params import DObParams, OuterGains, per_sample_gain


def inner_loop_disturbance_oracle(
    p: DObParams, jm: float, disturbance: Sequence[float]
) -> np.ndarray:
    """Acceleration response to a sampled load, straight from the loop algebra.

    Direct-form recursion of the disturbance channel (the sensitivity filter
    scaled by -1/jm): y[k] = (1-x)*y[k-1] - (d[k]-d[k-1])/jm with x the
    per-sample gain.  Serves as the independent truth for simulate's inner
    path when the outer loop is opened.
    """
    if not jm > 0.0:
        raise ValueError("jm must be positive")
    x = per_sample_gain(p)
    d = np.asarray(disturbance, dtype=float)
    y = np.empty(len(d))
    prev_y = 0.0
    prev_d = 0.0
    for k in range(len(d)):
        prev_y = (1.0 - x) * prev_y - (d[k] - prev_d) / jm
        prev_d = d[k]
        y[k] = prev_y
    return y


def noise_channel_oracle(p: DObParams, noise: Sequence[float]) -> np.ndarray:
    """Acceleration response to measured-velocity noise.

    Direct-form recursion of the noise channel (differenced complementary
    filter): y[k] = (1-x)*y[k-1] - alpha*g_dob*(n[k]-n[k-1]).  The z-1
    factor kills DC, so constant noise decays to exactly zero.
    """
    x = per_sample_gain(p)
    a_g = p.alpha * p.g_dob
    n_arr = np.asarray(noise, dtype=float)
    y = np.empty(len(n_arr))
    prev_y = 0.0
    prev_n = 0.0
    for k in range(len(n_arr)):
        prev_y = (1.0 - x) * prev_y - a_g * (n_arr[k] - prev_n)
        prev_n = n_arr[k]
        y[k] = prev_y
    return y


def nyquist_s_magnitude(x: float) -> float:
    """|S| of the sampled inner loop x/(z - 1) at the Nyquist point z = -1."""
    return 2.0 / abs(x - 2.0)


def nyquist_t_magnitude(x: float) -> float:
    """|T| of the sampled inner loop x/(z - 1) at the Nyquist point z = -1.

    This is the supremum of |T| only for x >= 1; below 1 the closed-loop
    pole is positive and the supremum is 1, at DC.
    """
    return x / abs(x - 2.0)


def _outer_loop_z(p: DObParams, gains: OuterGains) -> tuple[np.ndarray, np.ndarray]:
    """L's numerator and chi = den + num, as z polynomials, highest power first.

    L = C * C_i * G_p in z from the closed forms, with ideal velocity:
    C = kp + kd*(z - 1)/(ts*z), the backward-Euler PD;
    C_i = alpha*((1 + g_dob*ts)*z - 1)/(z - (1 - x));
    G_p = ts^2*(z + 1)/(2*(z - 1)^2), the ZoH double integrator.
    """
    ts, x = p.require_ts(), per_sample_gain(p)
    c = [gains.kp + gains.kd / ts, -gains.kd / ts]
    c_i = [p.alpha * (1.0 + p.g_dob * ts), -p.alpha]
    num = np.polymul(np.polymul(c, c_i), [0.5 * ts * ts, 0.5 * ts * ts])
    den = np.polymul(np.polymul([1.0, 0.0], [1.0, x - 1.0]), [1.0, -2.0, 1.0])
    return num, np.polyadd(den, num)


def _direct_form(b: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Response to r of b/a, with deg b <= deg a, from a zero past.

    a[0]*y[k] = sum_i b[i]*r[k-i] - sum_{i>0} a[i]*y[k-i], where b is
    padded on the left to the length of a and r and y are 0 before tick 0.
    """
    b = np.concatenate([np.zeros(len(a) - len(b)), b])
    order = len(a) - 1
    y = np.zeros(order + len(r))  # the first order entries are the zero past
    r = np.concatenate([np.zeros(order), r])
    for k in range(order, len(y)):
        y[k] = (b @ r[k - order : k + 1][::-1] - a[1:] @ y[k - order : k][::-1]) / a[0]
    return y[order:]


def step_response_oracle(p: DObParams, gains: OuterGains, n: int) -> np.ndarray:
    """n samples of the sampled outer T = L/(1 + L) after a unit step at tick 0.

    T = num/chi with L's numerator num and chi = den + num (_outer_loop_z).
    """
    num, chi = _outer_loop_z(p, gains)
    return _direct_form(num, chi, np.ones(n))


def load_response_oracle(
    p: DObParams, gains: OuterGains, jm: float, load: Sequence[float]
) -> np.ndarray:
    """Tick positions under a sampled load torque, with the reference at 0.

    The load channel is q/d = -(1/jm) * G_p * S_i * S_o, where
    S_i = u/(u + x) is the inner loop's sensitivity and S_o = den/chi the
    outer loop's; in z this is -(ts^2/2)*(z + 1)*z*(z - 1)/(jm*chi).
    """
    ts = p.require_ts()
    _, chi = _outer_loop_z(p, gains)
    b = np.polymul([1.0, 1.0], [1.0, -1.0, 0.0]) * (-0.5 * ts * ts / jm)
    return _direct_form(b, chi, np.asarray(load, dtype=float))
