"""Continuous-to-discrete maps in u = z - 1: exact ZoH plant, PD law, s->z rules."""

from __future__ import annotations

import enum
import math

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


# s = gain*u / (ts*(u + b)), or gain*u/ts where b is None
_RULES = {
    DiscretizationRule.FORWARD_EULER: (1, None),
    DiscretizationRule.BACKWARD_EULER: (1, 1),
    DiscretizationRule.TUSTIN: (2, 2),
}


def _clear(poly: Polynomial, rule: DiscretizationRule, ts: float, order: int) -> Polynomial:
    """Sum of c_k * (gain*u)^k * (ts*(u + b))^(order - k) over the coefficients c_k of s^k.

    Every float is an int over a power of two (float.as_integer_ratio), so
    the sum is formed in Python ints over one common power of two, and each
    coefficient is rounded once, by the correctly rounded int / int.
    """
    gain, b = _RULES[rule]
    tn, td = ts.as_integer_ratio()
    terms = []
    for i, c in enumerate(poly.coeffs):
        if c != 0.0:
            k = poly.degree - i
            n, d = c.as_integer_ratio()
            terms.append((k, n * gain**k * tn ** (order - k), d * td ** (order - k)))
    scale = max([1] + [d for _, _, d in terms])  # powers of two: every d divides it
    acc = [0] * (order + 1)
    for k, n, d in terms:
        m, n = order - k, n * (scale // d)
        # (u + b)^m * u^k, aligned at the constant end
        base = (1,) if b is None else [math.comb(m, j) * b**j for j in range(m + 1)]
        at = order + 1 - k - len(base)
        for j, bj in enumerate(base):
            acc[at + j] += n * bj
    return Polynomial(tuple(a / scale for a in acc))


def substitute(
    tf_s: RationalTransferFunction, ts: float, rule: DiscretizationRule
) -> RationalTransferFunction:
    """Replace s by the rule's rational map of u = z - 1 and clear fractions.

    The maps are forward Euler s = u/ts, backward Euler s = u/(ts*(1 + u))
    and Tustin s = 2u/(ts*(u + 2)).  Both polynomials are multiplied through
    by the least common denominator q(u)^N with N = max(deg num, deg den).
    The clearing runs in exact integer arithmetic (_clear) and each output
    coefficient is rounded exactly once; nothing is normalized to monic, so
    identities like forward-Euler of a*g/s -> (a*g*ts)/u hold at
    coefficient level.
    """
    if tf_s.ts is not None:
        raise ValueError("substitute expects a continuous-time system")
    if not (ts > 0.0 and math.isfinite(ts)):
        raise ValueError("ts must be positive")
    if rule not in _RULES:
        raise ValueError(f"unknown discretization rule {rule!r}")
    order = max(tf_s.num.degree, tf_s.den.degree)
    num = _clear(tf_s.num, rule, float(ts), order)
    den = _clear(tf_s.den, rule, float(ts), order)
    if den.is_zero:
        raise ValueError("substitution produced a zero denominator")
    return RationalTransferFunction(num, den, ts=ts)
