"""Polynomials, rational transfer functions, and stability classification.

Coefficients are stored highest degree first, matching the ordering used by
``numpy.roots``.  All types are immutable value types, and no operation
cancels common factors.  A sampled system stores its coefficients in
u = z - 1 (the delta form), where the roots that sampled integrators cluster
at z = 1 are small roots, resolved to their own precision; ``poles`` and
calling a system (Horner at any point) still speak z.  ``Polynomial.roots``
gives the closed-form roots a polynomial carries, or solves it once;
``RationalTransferFunction.factors`` reads them, and poles, verdicts, peaks,
the Bode integral and frequency responses read the factors, via
``factored_values`` (lead * prod(p - r) at ``contour_points``).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Polynomial",
    "RationalTransferFunction",
    "Stability",
    "StabilityVerdict",
    "poly_roots",
    "stacked_roots",
    "tf_connect",
    "classify_roots",
    "stable_rows",
    "is_stable",
    "BOUNDARY_TOL",
]

# Width of the stability-boundary band: a pole within this distance of the
# imaginary axis / unit circle is Marginal, and Marginal never counts as
# stable in constraint checks.
BOUNDARY_TOL = 1e-9

# Relative divisor size at or below which evaluation is refused.
POLE_EVAL_TOL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients highest degree first, and its roots if known."""

    coeffs: tuple[float, ...]
    known_roots: tuple[complex, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        c = tuple(map(float, self.coeffs))
        if not c:
            c = (0.0,)
        if not all(map(math.isfinite, c)):
            raise ValueError("polynomial coefficients must be finite")
        # Strip exact leading zeros only; near-zero leading coefficients are
        # a numerical fact of the data and are never dropped implicitly.
        k = 0
        while k < len(c) - 1 and c[k] == 0.0:
            k += 1
        object.__setattr__(self, "coeffs", c[k:])
        known = self.known_roots if self.degree else self.known_roots or ()  # a constant has none
        if known is not None and len(known) != self.degree:
            raise ValueError(f"{len(known)} known roots for degree {self.degree}")
        if known is not None:
            object.__setattr__(self, "known_roots", tuple(map(complex, known)))

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Coefficientwise, the shorter padded with 0.0 at the top: bitwise np.polyadd."""
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a, b = (0.0,) * (n - len(a)) + a, (0.0,) * (n - len(b)) + b
        return Polynomial(tuple(map(operator.add, a, b)))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            both = self.known_roots is not None and other.known_roots is not None
            known = self.known_roots + other.known_roots if both else None  # their union
            return Polynomial(np.convolve(self.coeffs, other.coeffs).tolist(), known)
        return Polynomial(tuple(c * float(other) for c in self.coeffs))

    __rmul__ = __mul__

    @cached_property
    def roots(self) -> tuple[complex, ...]:
        """Roots in the stored variable: the known roots, or solved once.

        Without known roots, poly_roots solves the polynomial, and each root
        moves by one Newton step where that lowers |p|: ``eigvals`` is
        backward stable in the norm of the whole companion matrix, so with
        widely graded coefficients the small roots carry errors of eps times
        the largest, and one step on the polynomial itself removes them.
        """
        if self.known_roots is not None:
            return self.known_roots
        roots = list(poly_roots(self))
        # scaled by one power of two below 1, so the slope's c*k cannot
        # overflow; the scale is exact and common to res and d
        e = -math.frexp(self.max_abs)[1]
        p = [math.ldexp(c, e) for c in self.coeffs]
        slope = [c * k for c, k in zip(p, range(self.degree, 0, -1))]
        for i, r in enumerate(roots):
            res, d = _horner(p, r), _horner(slope, r)
            if d != 0.0 and abs(_horner(p, r - res / d)) < abs(res):
                roots[i] = r - res / d
        return tuple(roots)


def _horner(coeffs, x: complex) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_roots(p: Polynomial) -> tuple[complex, ...]:
    """All complex roots via eigenvalues of the companion matrix.

    The companion matrix of the monic-normalized polynomial is assembled
    explicitly; LAPACK balancing inside ``eigvals`` keeps wide coefficient
    ranges tractable.  Roots come back sorted by (real, imag) so repeated
    calls are deterministic.
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    if p.degree < 1:
        raise ValueError("undefined roots: degree must be at least 1")
    return tuple(stacked_roots(np.array([p.coeffs]))[0].tolist())


def stacked_roots(rows: np.ndarray) -> np.ndarray:
    """Sorted roots of every row of a 2-D coefficient array, one ``eigvals`` call.

    Each row holds one polynomial's coefficients, highest degree first, with
    a nonzero leading coefficient; all rows share the degree, at least 1.
    LAPACK solves each matrix of the stack on its own, so row i of the
    result is bitwise what poly_roots gives for row i alone.
    """
    rows = np.asarray(rows, dtype=float)
    monic = rows[:, 1:] / rows[:, :1]
    n = monic.shape[1]
    if n == 1:
        return (-monic).astype(complex)
    comp = np.zeros((len(rows), n, n))
    comp[:, 0, :] = -monic
    comp[:, 1:, :-1] = np.eye(n - 1)
    return np.sort_complex(np.linalg.eigvals(comp))


@dataclass(frozen=True)
class RationalTransferFunction:
    """Ratio of two real polynomials in s (ts=None) or u = z - 1 (ts>0)."""

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

    @property
    def factors(self) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        """(zeros, poles) in the stored variable: s, or u = z - 1.

        With each polynomial's lead they give it as lead * prod(x - r)
        (factored_values); a constant has no roots.  Each is the cached
        Polynomial.roots, closed forms or one solve.  The S and T of a
        LoopSet share their polynomials with L (S.num is L.den, T.num is
        L.num, and both denominators are L.chi), so of a loop built from
        blocks only chi is solved.  Reading only the poles solves no zeros.
        """
        return self.num.roots, self.den.roots

    @cached_property
    def chi(self) -> Polynomial:
        """den + num, the closed-loop characteristic polynomial of this open loop.

        Cached, so every LoopSet built from this loop shares it and its roots.
        """
        return self.den + self.num

    def poles(self) -> tuple[complex, ...]:
        """Roots of the denominator: s, or z = 1 + u for a sampled system."""
        return self.den.roots if self.ts is None else tuple(1.0 + u for u in self.den.roots)

    def __call__(self, point: complex) -> complex:
        """Evaluate at s, or at z for a sampled system, by Horner's method.

        A sampled system is evaluated at its stored variable u = point - 1.
        Refuses points where |den| falls below a relative threshold:
        evaluating essentially on top of a pole would return noise, not data.
        """
        x = point - 1.0 if self.is_discrete else point
        d = _horner(self.den.coeffs, x)
        scale = self.den.max_abs * max(1.0, abs(x)) ** self.den.degree
        if abs(d) <= POLE_EVAL_TOL * scale:
            raise ValueError(f"evaluation at pole: point={x!r}")
        return _horner(self.num.coeffs, x) / d


def tf_connect(
    a: RationalTransferFunction, b: RationalTransferFunction
) -> RationalTransferFunction:
    """Series connection a*b by float polynomial products, no cancellation.

    Where both factors carry their roots in closed form, so does the product.
    """
    if a.ts != b.ts:
        raise ValueError(
            f"domain mismatch: cannot combine ts={a.ts!r} with ts={b.ts!r}"
        )
    return RationalTransferFunction(a.num * b.num, a.den * b.den, ts=a.ts)


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


def _band(margin):
    """(stable, not unstable) for a worst-root margin, elementwise on arrays.

    This is the one definition of the stability boundary: a margin within
    BOUNDARY_TOL of zero is Marginal.
    """
    return margin < -BOUNDARY_TOL, margin <= BOUNDARY_TOL


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
    stable, bounded = _band(margin)
    if stable:
        verdict = Stability.STABLE
    elif bounded:
        verdict = Stability.MARGINAL
    else:
        verdict = Stability.UNSTABLE
    return StabilityVerdict(verdict, worst)


def stable_rows(roots: np.ndarray, ts: float | None) -> np.ndarray:
    """classify_roots(row, ts).is_stable of every row of a 2-D root array.

    One pass over the whole array.  ``np.hypot`` of the parts is bitwise
    Python's ``abs`` of a complex (``np.abs`` is not), so each flag is the
    scalar verdict exactly.
    """
    if ts is None:
        margin = roots.real.max(axis=1)
    else:
        margin = np.hypot(roots.real, roots.imag).max(axis=1) - 1.0
    return _band(margin)[0]


def is_stable(tf: RationalTransferFunction) -> StabilityVerdict:
    """Classify by the poles of tf.factors, solving only the denominator.

    Continuous: left half plane; discrete: open unit disk.  Poles within
    BOUNDARY_TOL of the boundary give Marginal.  The function requires a
    proper rational function; improper systems are rejected.
    """
    if tf.num.degree > tf.den.degree:
        raise ValueError("not a proper rational function")
    return classify_roots(tf.poles(), tf.ts)


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


def contour_points(x, discrete: bool):
    """u = e^(j*x) - 1 at the angle x if discrete, else j*x; float or array.

    The real part -2 sin^2(x/2) keeps u accurate near DC, and past pi/2 the
    imaginary part is sin(pi - x), so the angle pi gives u = -2 exactly.
    """
    if not discrete:
        return 1j * x
    if isinstance(x, float):
        return complex(-2.0 * math.sin(0.5 * x) ** 2, math.sin(min(x, math.pi - x)))
    return -2.0 * np.sin(0.5 * x) ** 2 + 1j * np.sin(np.minimum(x, math.pi - x))


def factored_values(lead: float, roots, points: np.ndarray) -> np.ndarray:
    """lead * prod(p - r) over the roots, at every point of an array."""
    out = np.full(points.shape, lead, dtype=complex)
    for r in roots:
        out *= points - r
    return out
