"""Controller design parameter bundles shared across the toolkit."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DObParams", "OuterGains", "per_sample_gain"]


@dataclass(frozen=True)
class DObParams:
    """Design tuple of the disturbance-observer inner loop.

    alpha   aggregate nominal/actual model ratio (1 = perfect model)
    g_dob   observer estimation bandwidth, rad/s
    g_v     velocity measurement low-pass bandwidth, rad/s (inf = ideal)
    ts      sampling period in seconds, or None for continuous-only use
    """

    alpha: float
    g_dob: float
    g_v: float = math.inf
    ts: float | None = None

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if not (self.g_dob > 0.0 and math.isfinite(self.g_dob)):
            raise ValueError("g_dob must be positive and finite")
        if not self.g_v > 0.0:
            raise ValueError("g_v must be positive (inf allowed)")
        if self.ts is not None and not (self.ts > 0.0 and math.isfinite(self.ts)):
            raise ValueError("ts must be positive when given")

    def require_ts(self) -> float:
        if self.ts is None:
            raise ValueError("sampling period required: DObParams.ts is None")
        return self.ts


def per_sample_gain(p: DObParams) -> float:
    """alpha * g_dob * ts, the per-sample gain of the estimation integrator.

    Every discrete formula in the toolkit is parametrised by this product;
    computing it in one place keeps the floating-point rounding identical
    across the loop builders and the discretization path.
    """
    return (p.alpha * p.g_dob) * p.require_ts()


@dataclass(frozen=True)
class OuterGains:
    """Proportional-derivative gains of the outer position loop."""

    kp: float
    kd: float

    def __post_init__(self) -> None:
        if not (self.kp > 0.0 and math.isfinite(self.kp)):
            raise ValueError("kp must be positive and finite")
        if not (self.kd >= 0.0 and math.isfinite(self.kd)):
            raise ValueError("kd must be nonnegative and finite")
