"""Continuous-to-discrete maps in u = z - 1: exact ZoH plant, PD law, s->z rules."""

from __future__ import annotations

import enum
import math
from fractions import Fraction

import numpy as np

from .lti import Polynomial, RationalTransferFunction
from .params import OuterGains

__all__ = [
    "DiscretizationRule",
    "zoh_double_integrator",
    "backward_euler_pd",
    "substitute",
]


def zoh_double_integrator(gain: float, ts: float) -> RationalTransferFunction:
    """Exact zero-order-hold discretization of gain/s^2.

    gain * (ts^2/2) * (z + 1) / (z - 1)^2, stored as h*(u + 2)/u^2 with
    h = gain*ts^2/2; this is the step-invariant map of the double
    integrator, not an approximation.  Its sampling zero is u = -2, the
    Nyquist point, and its double pole u = 0; both are carried exactly.
    """
    if not (ts > 0.0 and math.isfinite(ts)):
        raise ValueError("ts must be positive")
    half = 0.5 * gain * ts * ts
    return RationalTransferFunction(
        Polynomial((half, 2.0 * half), (-2.0,)), Polynomial((1.0, 0.0, 0.0), (0.0, 0.0)), ts=ts
    )


def backward_euler_pd(gains: OuterGains, ts: float) -> RationalTransferFunction:
    """PD law with a backward-Euler derivative: kp + kd*(z-1)/(ts*z).

    Stored as ((kp + kd/ts)*u + kp)/(u + 1), carrying its zero and pole.
    """
    if not (ts > 0.0 and math.isfinite(ts)):
        raise ValueError("ts must be positive")
    if gains.kd == 0.0:
        # pure proportional; keep the removable z = 0 pole out of the form
        return RationalTransferFunction(
            Polynomial((gains.kp,)), Polynomial((1.0,)), ts=ts
        )
    lead = gains.kp + gains.kd / ts
    return RationalTransferFunction(
        Polynomial((lead, gains.kp), (-gains.kp / lead,)), Polynomial((1.0, 1.0), (-1.0,)), ts=ts
    )


class DiscretizationRule(enum.Enum):
    FORWARD_EULER = "forward_euler"
    BACKWARD_EULER = "backward_euler"
    TUSTIN = "tustin"


def _rule_fraction(rule: DiscretizationRule, ts: float):
    # s is replaced by p(u)/q(u); kept as exact rationals for the clearing
    t = Fraction(ts)
    if rule is DiscretizationRule.FORWARD_EULER:
        return (Fraction(1), Fraction(0)), (t,)
    if rule is DiscretizationRule.BACKWARD_EULER:
        return (Fraction(1), Fraction(0)), (t, t)
    if rule is DiscretizationRule.TUSTIN:
        return (Fraction(2), Fraction(0)), (t, 2 * t)
    raise ValueError(f"unknown discretization rule {rule!r}")  # pragma: no cover


def _compose(poly: Polynomial, p_pows, q_pows, order: int) -> Polynomial:
    """Sum of c_k * p^k * q^(order - k) over the coefficients c_k of s^k.

    The powers are Fraction object arrays, so np.convolve and np.polyadd
    on them are exact and each coefficient is rounded once, at the end.
    """
    acc = np.array([Fraction(0)], dtype=object)
    deg = poly.degree
    for i, c in enumerate(poly.coeffs):
        k = deg - i
        if c == 0.0:
            continue
        acc = np.polyadd(acc, Fraction(c) * np.convolve(p_pows[k], q_pows[order - k]))
    return Polynomial(tuple(float(v) for v in acc))


def substitute(
    tf_s: RationalTransferFunction, ts: float, rule: DiscretizationRule
) -> RationalTransferFunction:
    """Replace s by the rule's rational map of u = z - 1 and clear fractions.

    The maps are forward Euler s = u/ts, backward Euler s = u/(ts*(1 + u))
    and Tustin s = 2u/(ts*(u + 2)).  Both polynomials are multiplied through
    by the least common denominator q(u)^N with N = max(deg num, deg den).
    The clearing runs in exact rational arithmetic and each output
    coefficient is rounded exactly once; nothing is normalized to monic, so
    identities like forward-Euler of a*g/s -> (a*g*ts)/u hold at
    coefficient level.
    """
    if tf_s.ts is not None:
        raise ValueError("substitute expects a continuous-time system")
    if not (ts > 0.0 and math.isfinite(ts)):
        raise ValueError("ts must be positive")
    p, q = (np.array(f, dtype=object) for f in _rule_fraction(rule, ts))
    order = max(tf_s.num.degree, tf_s.den.degree)
    one = np.array([Fraction(1)], dtype=object)
    p_pows, q_pows = [one], [one]
    for _ in range(order):
        p_pows.append(np.convolve(p_pows[-1], p))
        q_pows.append(np.convolve(q_pows[-1], q))
    num = _compose(tf_s.num, p_pows, q_pows, order)
    den = _compose(tf_s.den, p_pows, q_pows, order)
    if den.is_zero:
        raise ValueError("substitution produced a zero denominator")
    return RationalTransferFunction(num, den, ts=ts)
