"""Open-loop and closed-loop transfer functions of the DOb motion controller.

The controller has two nested loops.  The inner loop estimates the lumped
disturbance with bandwidth g_dob; with a velocity low-pass of bandwidth g_v
its continuous open loop is

    L_i(s) = alpha*g_v*g_dob / (s*(s + g_v)),

collapsing to alpha*g_dob/s for ideal velocity measurement.  Sampling turns
the estimator into a forward-difference integrator loop, stored like every
sampled system in u = z - 1,

    L_i = alpha*g_dob*ts / (z - 1) = x / u,   x = alpha*g_dob*ts,

whose single closed-loop pole sits at u = -x, z = 1 - x.  The outer loop
wraps a PD position controller around the inner loop; in the sampled domain
the loop factors into C * C_i * G_p where C is the backward-Euler PD,
C_i the inner-loop reference-channel compensator and G_p the ZoH double
integrator, each a short closed form in u.  The finite
g_v continuous outer loop decomposes as the inner loop in parallel with
alpha*(s+g_v)*(s+g_dob)*(kd*s+kp) / (s^3*(s+g_v)); re-summing the two gives
back the single printed rational form built here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .discretize import backward_euler_pd, zoh_double_integrator
from .lti import (
    POLE_EVAL_TOL,
    Polynomial,
    RationalTransferFunction,
    contour_points,
    factored_values,
    tf_connect,
    validate_grid,
)
from .params import DObParams, OuterGains, per_sample_gain

__all__ = [
    "LoopSet",
    "PhaseCharacter",
    "CiCompensator",
    "inner_loop_ct",
    "inner_loop_dt",
    "outer_loop_ct",
    "outer_loop_dt",
    "ci_compensator_dt",
]

# Band around the lead/lag threshold classified as Neutral.
NEUTRAL_TOL = 1e-12


@dataclass(frozen=True)
class LoopSet:
    """Open loop L with its sensitivity S = 1/(1+L) and complement T = L/(1+L).

    S and T share one denominator polynomial (den_L + num_L) by construction,
    so S + T == 1 holds identically as rational functions.
    """

    L: RationalTransferFunction
    S: RationalTransferFunction
    T: RationalTransferFunction

    @classmethod
    def from_open_loop(cls, L: RationalTransferFunction) -> "LoopSet":
        if L.num.degree > L.den.degree:
            raise ValueError("open loop must be proper")
        chi = L.den + L.num
        if chi.is_zero:
            raise ValueError("degenerate loop: 1 + L vanishes identically")
        S = RationalTransferFunction(L.den, chi, ts=L.ts)
        T = RationalTransferFunction(L.num, chi, ts=L.ts)
        return cls(L, S, T)

    def st_response(self, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega, S values, T values) over a validated frequency grid.

        The open loop's denominator d and numerator n are each evaluated in
        factored form (L.factors, factored_values), and S = d/(d+n),
        T = n/(d+n), so S + T = 1 holds to a few ulp.  Both are first scaled
        at each point by the same power of two, exactly, so a subnormal d + n
        does not overflow the division.  An exactly zero d or n gives +0, of
        phase 0, and the other of S and T is then exactly 1.  A
        sampled grid runs at the angles (omega/nyquist)*pi, so Nyquist is
        u = -2 exactly, where L.factors puts the ZoH zero.
        A grid is refused where |d + n| <= POLE_EVAL_TOL*(|d| + |n|), where S
        is undefined at rounding level; the message names the first such omega.
        """
        L = self.L
        om = validate_grid(L, omega)
        discrete = L.is_discrete
        pts = contour_points(om / L.nyquist * math.pi if discrete else om, discrete)
        zeros, poles = L.factors
        d = factored_values(L.den.lead, poles, pts)
        n = factored_values(L.num.lead, zeros, pts)
        # scale each point's d and n by the power of two that brings the larger
        # into [0.5, 1): exact, and d + n can no longer be subnormal
        e = -np.frexp(np.maximum(np.abs(d), np.abs(n)))[1]
        for v in (d, n):  # part by part, in place, so signed zeros survive
            v.real, v.imag = np.ldexp(v.real, e), np.ldexp(v.imag, e)
        w = d + n
        hit = np.flatnonzero(np.abs(w) <= POLE_EVAL_TOL * (np.abs(d) + np.abs(n)))
        if hit.size:
            raise ValueError(f"evaluation at pole: omega={float(om[hit[0]])!r} rad/s")
        s, t = (np.where(v == 0.0, 0.0, v / w) for v in (d, n))
        return om, np.where(n == 0.0, 1.0, s), np.where(d == 0.0, 1.0, t)


def inner_loop_ct(p: DObParams) -> LoopSet:
    """Continuous inner estimation loop; g_v = inf gives the ideal-velocity form."""
    a_g = p.alpha * p.g_dob
    if math.isinf(p.g_v):
        L = RationalTransferFunction(
            Polynomial((a_g,)), Polynomial((1.0, 0.0)), ts=None
        )
    else:
        L = RationalTransferFunction(
            Polynomial((a_g * p.g_v,)), Polynomial((1.0, p.g_v, 0.0)), ts=None
        )
    return LoopSet.from_open_loop(L)


def inner_loop_dt(p: DObParams) -> LoopSet:
    """Sampled inner estimation loop, alpha*g_dob*ts/(z-1) = x/u."""
    x = per_sample_gain(p)
    L = RationalTransferFunction(Polynomial((x,)), Polynomial((1.0, 0.0)), ts=p.ts)
    return LoopSet.from_open_loop(L)


def outer_loop_ct(p: DObParams, gains: OuterGains) -> LoopSet:
    """Continuous position loop around the compensated plant."""
    s2 = Polynomial((1.0, 0.0, 0.0))
    pd = Polynomial((gains.kd, gains.kp))
    s_plus_g = Polynomial((1.0, p.g_dob))
    if math.isinf(p.g_v):
        num = p.alpha * (p.g_dob * s2 + s_plus_g * pd)
        den = Polynomial((1.0, 0.0, 0.0, 0.0))
    else:
        s_plus_gv = Polynomial((1.0, p.g_v))
        num = p.alpha * ((p.g_v * p.g_dob) * s2 + s_plus_gv * s_plus_g * pd)
        den = Polynomial((1.0, p.g_v, 0.0, 0.0, 0.0))
    L = RationalTransferFunction(num, den, ts=None)
    return LoopSet.from_open_loop(L)


class PhaseCharacter(enum.Enum):
    LEAD = "lead"
    LAG = "lag"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class CiCompensator:
    tf: RationalTransferFunction
    character: PhaseCharacter
    threshold: float


def ci_compensator_dt(p: DObParams) -> CiCompensator:
    """Inner-loop reference-channel compensator.

    C_i(z) = alpha*((1 + g_dob*ts)*z - 1) / (z - (1 - alpha*g_dob*ts)),
    stored as alpha*((1 + g_dob*ts)*u + g_dob*ts) / (u + x).  Its zero
    leads the pole exactly when alpha exceeds 1/(1 + g_dob*ts); at the
    threshold the pair cancels and the block is a pure gain.
    """
    ts = p.require_ts()
    g_ts = p.g_dob * ts
    tf = RationalTransferFunction(
        Polynomial((p.alpha * (1.0 + g_ts), p.alpha * g_ts)),
        Polynomial((1.0, per_sample_gain(p))),
        ts=ts,
    )
    threshold = 1.0 / (1.0 + g_ts)
    if abs(p.alpha - threshold) <= NEUTRAL_TOL:
        character = PhaseCharacter.NEUTRAL
    elif p.alpha > threshold:
        character = PhaseCharacter.LEAD
    else:
        character = PhaseCharacter.LAG
    return CiCompensator(tf, character, threshold)


def outer_loop_dt(p: DObParams, gains: OuterGains) -> LoopSet:
    """Sampled position loop: PD * inner compensator * ZoH double integrator.

    tf_connect multiplies the blocks in u, so L's double pole at z = 1 is
    stored exactly, as u^2.
    """
    ts = p.require_ts()
    c = backward_euler_pd(gains, ts)
    ci = ci_compensator_dt(p).tf
    gp = zoh_double_integrator(1.0, ts)
    L = tf_connect(tf_connect(c, ci), gp)
    return LoopSet.from_open_loop(L)
