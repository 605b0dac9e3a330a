"""Polynomials, rational transfer functions, and stability classification.

Coefficients are stored highest degree first, matching the ordering used by
``numpy.roots``.  All types are immutable value types, so everything here can
be shared freely across threads.  No operation cancels common factors
implicitly; cancellation only happens through the explicit ``reduce_tf``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "RationalTransferFunction",
    "FrequencyResponse",
    "ConnectMode",
    "Stability",
    "StabilityVerdict",
    "poly_roots",
    "stacked_roots",
    "tf_eval",
    "tf_eval_grid",
    "tf_connect",
    "classify_roots",
    "is_stable",
    "freq_response",
    "reduce_tf",
    "BOUNDARY_TOL",
]

# Width of the stability-boundary band: a pole within this distance of the
# imaginary axis / unit circle is Marginal, and Marginal never counts as
# stable in constraint checks.
BOUNDARY_TOL = 1e-9

# Relative |den(point)| threshold below which evaluation is refused.
POLE_EVAL_TOL = 1e-12


def _horner(coeffs: tuple[float, ...], x: complex) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with coefficients ordered highest degree first."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.coeffs)
        if not c:
            c = (0.0,)
        for v in c:
            if not math.isfinite(v):
                raise ValueError("polynomial coefficients must be finite")
        # Strip exact leading zeros only; near-zero leading coefficients are
        # a numerical fact of the data and are never dropped implicitly.
        k = 0
        while k < len(c) - 1 and c[k] == 0.0:
            k += 1
        object.__setattr__(self, "coeffs", c[k:])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def lead(self) -> float:
        return self.coeffs[0]

    @property
    def max_abs(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def __call__(self, x: complex) -> complex:
        return _horner(self.coeffs, x)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = (0.0,) * (n - len(a)) + a
        b = (0.0,) * (n - len(b)) + b
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial((0.0,))
            return Polynomial(tuple(np.convolve(self.coeffs, other.coeffs)))
        return self.scale(float(other))

    __rmul__ = __mul__

    def scale(self, k: float) -> "Polynomial":
        return Polynomial(tuple(c * k for c in self.coeffs))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return Polynomial(tuple(c / self.lead for c in self.coeffs))

    def allclose(self, other: "Polynomial", rtol: float = 1e-9) -> bool:
        """Coefficient comparison relative to the largest magnitude present."""
        if self.degree != other.degree:
            return False
        scale = max(self.max_abs, other.max_abs, 1e-300)
        return all(
            abs(a - b) <= rtol * scale for a, b in zip(self.coeffs, other.coeffs)
        )

    @classmethod
    def from_roots(cls, roots, lead: float = 1.0) -> "Polynomial":
        """Monic-from-roots product scaled by lead.

        The root set must be closed under conjugation for the result to be
        real; tiny residual imaginary parts from rounding are discarded.
        """
        acc = np.array([1.0 + 0j])
        for r in roots:
            acc = np.convolve(acc, [1.0, -complex(r)])
        scale = np.max(np.abs(acc)) or 1.0
        if np.max(np.abs(acc.imag)) > 1e-7 * scale:
            raise ValueError("root set is not conjugate-closed")
        return cls(tuple(float(c) * lead for c in acc.real))


def poly_roots(p: Polynomial) -> tuple[complex, ...]:
    """All complex roots via eigenvalues of the companion matrix.

    The companion matrix of the monic-normalized polynomial is assembled
    explicitly; LAPACK balancing inside ``eigvals`` keeps wide coefficient
    ranges tractable.  Roots come back sorted by (real, imag) so repeated
    calls are deterministic.
    """
    return stacked_roots([p])[0]


def stacked_roots(polys: Sequence[Polynomial]) -> list[tuple[complex, ...]]:
    """poly_roots of every polynomial, with one ``eigvals`` call per degree.

    LAPACK solves each matrix of a stack on its own, so entry i is bitwise
    what solving polys[i] alone gives.  The first polynomial without roots
    (zero, or of degree 0) makes the whole call raise.
    """
    monic = []
    for p in polys:
        if p.is_zero:
            raise ValueError("undefined roots: zero polynomial")
        if p.degree < 1:
            raise ValueError("undefined roots: degree must be at least 1")
        a = np.asarray(p.coeffs, dtype=float)
        monic.append(a / a[0])
    out: list[tuple[complex, ...]] = [()] * len(monic)
    for size in sorted({len(a) for a in monic}):
        idx = [i for i, a in enumerate(monic) if len(a) == size]
        rows = np.array([monic[i] for i in idx])
        n = size - 1
        if n == 1:
            roots = (-rows[:, 1:]).astype(complex)
        else:
            comp = np.zeros((len(idx), n, n))
            comp[:, 0, :] = -rows[:, 1:]
            comp[:, 1:, :-1] = np.eye(n - 1)
            roots = np.sort_complex(np.linalg.eigvals(comp))
        for i, r in zip(idx, roots.tolist()):
            out[i] = tuple(r)
    return out


@dataclass(frozen=True)
class RationalTransferFunction:
    """Ratio of two real polynomials in s (ts=None) or z (ts>0)."""

    num: Polynomial
    den: Polynomial
    ts: float | None = None

    def __post_init__(self) -> None:
        if self.den.is_zero:
            raise ValueError("denominator must not be identically zero")
        if self.ts is not None and not (self.ts > 0.0 and math.isfinite(self.ts)):
            raise ValueError("ts must be positive for a discrete-time system")

    @property
    def is_discrete(self) -> bool:
        return self.ts is not None

    @property
    def nyquist(self) -> float:
        if self.ts is None:
            raise ValueError("continuous-time system has no Nyquist frequency")
        return math.pi / self.ts

    def poles(self) -> tuple[complex, ...]:
        if self.den.degree < 1:
            return ()
        return poly_roots(self.den)

    def zeros(self) -> tuple[complex, ...]:
        if self.num.is_zero or self.num.degree < 1:
            return ()
        return poly_roots(self.num)

    def at_frequency(self, omega: float) -> complex:
        """Evaluate on the frequency contour: s = j*omega or z = exp(j*omega*ts)."""
        return tf_eval(self, self.contour_point(omega))

    def contour_point(self, omega: float) -> complex:
        if self.ts is None:
            return 1j * omega
        return cmath.exp(1j * omega * self.ts)

    def __call__(self, point: complex) -> complex:
        return tf_eval(self, point)


def _same_domain(a: RationalTransferFunction, b: RationalTransferFunction) -> None:
    if a.ts != b.ts:
        raise ValueError(
            f"domain mismatch: cannot combine ts={a.ts!r} with ts={b.ts!r}"
        )


def tf_eval(tf: RationalTransferFunction, point: complex) -> complex:
    """Evaluate num(point)/den(point) by Horner's method.

    Refuses points where |den| falls below a relative threshold: evaluating
    essentially on top of a pole would return noise, not data.
    """
    d = tf.den(point)
    scale = tf.den.max_abs * max(1.0, abs(point)) ** tf.den.degree
    if abs(d) <= POLE_EVAL_TOL * scale:
        raise ValueError(f"evaluation at pole: point={point!r}")
    return tf.num(point) / d


class ConnectMode(enum.Enum):
    SERIES = "series"
    PARALLEL = "parallel"
    NEGATIVE_FEEDBACK = "negative_feedback"


def tf_connect(
    a: RationalTransferFunction,
    b: RationalTransferFunction,
    mode: ConnectMode,
) -> RationalTransferFunction:
    """Combine two blocks by exact polynomial arithmetic.

    NEGATIVE_FEEDBACK closes b around a: a / (1 + a*b).  No cancellation of
    common factors is attempted.
    """
    _same_domain(a, b)
    if mode is ConnectMode.SERIES:
        num = a.num * b.num
        den = a.den * b.den
    elif mode is ConnectMode.PARALLEL:
        num = a.num * b.den + b.num * a.den
        den = a.den * b.den
    elif mode is ConnectMode.NEGATIVE_FEEDBACK:
        num = a.num * b.den
        den = a.den * b.den + a.num * b.num
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown connect mode {mode!r}")
    if den.is_zero:
        raise ValueError("degenerate connection: denominator vanished")
    return RationalTransferFunction(num, den, ts=a.ts)


class Stability(enum.Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    stability: Stability
    worst_pole: complex | None

    @property
    def is_stable(self) -> bool:
        """Strict stability; Marginal does not qualify."""
        return self.stability is Stability.STABLE


def classify_roots(roots, ts: float | None) -> StabilityVerdict:
    """Stability verdict for a bare root set (ts=None means continuous)."""
    if not roots:
        return StabilityVerdict(Stability.STABLE, None)
    if ts is None:
        worst = max(roots, key=lambda r: r.real)
        margin = worst.real
    else:
        worst = max(roots, key=abs)
        margin = abs(worst) - 1.0
    if margin < -BOUNDARY_TOL:
        verdict = Stability.STABLE
    elif margin <= BOUNDARY_TOL:
        verdict = Stability.MARGINAL
    else:
        verdict = Stability.UNSTABLE
    return StabilityVerdict(verdict, worst)


def is_stable(tf: RationalTransferFunction) -> StabilityVerdict:
    """Classify by pole locations of the stored denominator.

    Continuous: left half plane; discrete: open unit disk.  Poles within
    BOUNDARY_TOL of the boundary give Marginal.  The function requires a
    proper rational function; improper systems are rejected.
    """
    if tf.num.degree > tf.den.degree:
        raise ValueError("not a proper rational function")
    return classify_roots(tf.poles(), tf.ts)


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex response values over a strictly increasing frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        om = np.asarray(self.omega, dtype=float)
        va = np.asarray(self.values, dtype=complex)
        if om.ndim != 1 or va.shape != om.shape:
            raise ValueError("omega and values must be 1-d arrays of equal length")
        if om.size > 1 and not np.all(np.diff(om) > 0.0):
            raise ValueError("omega grid must be strictly increasing")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "values", va)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.values)


def validate_grid(tf: RationalTransferFunction, omega) -> np.ndarray:
    om = np.asarray(omega, dtype=float)
    if om.ndim != 1 or om.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(om)):
        raise ValueError("frequency grid must be finite")
    if np.any(om < 0.0):
        raise ValueError("frequency grid must be nonnegative")
    if om.size > 1 and not np.all(np.diff(om) > 0.0):
        raise ValueError("frequency grid must be strictly increasing")
    if tf.ts is not None and om[-1] > tf.nyquist * (1.0 + 1e-9):
        raise ValueError(
            f"frequency grid exceeds the Nyquist limit {tf.nyquist!r} rad/s"
        )
    return om


def tf_eval_grid(
    tf: RationalTransferFunction, omega, closed_loop: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, num values, den values) of tf over a validated frequency grid.

    Each polynomial is evaluated by one ``np.polyval`` pass over the whole
    contour, s = j*omega or z = exp(j*omega*ts).  The divisor is den(p), or,
    with closed_loop=True, the characteristic value den(p) + num(p) of 1 + tf
    formed from the two evaluated values.  As in tf_eval, a grid on which
    |divisor| falls below POLE_EVAL_TOL relative to its polynomial's scale is
    refused; the message names the first such omega.
    """
    om = validate_grid(tf, omega)
    points = 1j * om if tf.ts is None else np.exp(1j * om * tf.ts)
    num = np.polyval(tf.num.coeffs, points)
    den = np.polyval(tf.den.coeffs, points)
    divisor, poly = (den + num, tf.den + tf.num) if closed_loop else (den, tf.den)
    scale = poly.max_abs * np.maximum(1.0, np.abs(points)) ** poly.degree
    hit = np.flatnonzero(np.abs(divisor) <= POLE_EVAL_TOL * scale)
    if hit.size:
        raise ValueError(f"evaluation at pole: omega={float(om[hit[0]])!r} rad/s")
    return om, num, den


def freq_response(tf: RationalTransferFunction, omega) -> FrequencyResponse:
    """Evaluate along s = j*omega (continuous) or z = exp(j*omega*ts) (discrete)."""
    om, num, den = tf_eval_grid(tf, omega)
    return FrequencyResponse(om, num / den)


def reduce_tf(
    tf: RationalTransferFunction, tolerance: float
) -> RationalTransferFunction:
    """Cancel matching pole/zero pairs within the given tolerance.

    This is the only place common factors are ever removed, and nothing in
    the analysis paths calls it; callers opt in explicitly.
    """
    if tolerance < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if tf.num.is_zero:
        return RationalTransferFunction(
            Polynomial((0.0,)), Polynomial((1.0,)), ts=tf.ts
        )
    zeros = list(tf.zeros())
    poles = list(tf.poles())
    kept_zeros = []
    for z in zeros:
        hit = None
        for i, p in enumerate(poles):
            if abs(z - p) <= tolerance * max(1.0, abs(z)):
                hit = i
                break
        if hit is None:
            kept_zeros.append(z)
        else:
            poles.pop(hit)
    num = Polynomial.from_roots(kept_zeros, lead=tf.num.lead)
    den = Polynomial.from_roots(poles, lead=tf.den.lead)
    return RationalTransferFunction(num, den, ts=tf.ts)
