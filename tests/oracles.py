"""Reference recursions that the simulator is checked against.

Each one is a direct-form recursion written from the printed closed forms of
the loop algebra.  They import nothing of doblab but its parameters, so they
share no code with the simulator or the loop builders they check.
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


def step_response_oracle(p: DObParams, gains: OuterGains, n: int) -> np.ndarray:
    """n samples of the sampled outer T = L/(1 + L) after a unit step at tick 0.

    L = C * C_i * G_p in z from the closed forms, with ideal velocity:
    C = kp + kd*(z - 1)/(ts*z), the backward-Euler PD;
    C_i = alpha*((1 + g_dob*ts)*z - 1)/(z - (1 - x));
    G_p = ts^2*(z + 1)/(2*(z - 1)^2), the ZoH double integrator.
    With T = num/chi and chi = den + num, the direct-form recursion is
    chi[0]*y[k] = sum_i num[i]*r[k-i] - sum_{i>0} chi[i]*y[k-i], where
    r = 1 from tick 0 and r and y are 0 before it.
    """
    ts, x = p.require_ts(), per_sample_gain(p)
    c = [gains.kp + gains.kd / ts, -gains.kd / ts]
    c_i = [p.alpha * (1.0 + p.g_dob * ts), -p.alpha]
    num = np.polymul(np.polymul(c, c_i), [0.5 * ts * ts, 0.5 * ts * ts])
    den = np.polymul(np.polymul([1.0, 0.0], [1.0, x - 1.0]), [1.0, -2.0, 1.0])
    chi = np.polyadd(den, num)
    num = np.concatenate([np.zeros(len(chi) - len(num)), num])
    order = len(chi) - 1
    y = np.zeros(order + n)  # the first order entries are the zero past
    r = np.concatenate([np.zeros(order), np.ones(n)])
    for k in range(order, order + n):
        y[k] = (num @ r[k - order : k + 1][::-1] - chi[1:] @ y[k - order : k][::-1]) / chi[0]
    return y[order:]
