"""Domain types shared by every module: potentials, quantum numbers, mass
profiles, series solutions and solver results.

All types are immutable after construction and validate their invariants in
``__post_init__``, so instances can be shared freely between threads.  The
results of a solve, ``SeriesSolution`` and ``EigenResult``, hold arrays and
compare by identity; the inputs compare by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, SeriesDivisionError

if TYPE_CHECKING:
    from .tail import Inward

__all__ = [
    "PotentialSpec",
    "QuantumNumbers",
    "MassProfile",
    "SeriesSolution",
    "EigenResult",
    "make_cornell",
    "make_coulomb",
    "make_oscillator",
    "make_linear",
    "b_from_energy",
    "logderiv_from_series",
]

# Absolute floor used by the mass-series consistency check (per coefficient,
# scaled by the largest retained coefficient).
_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class PotentialSpec:
    """Central potential  V(r) = -v1 * r**(-alpha) + v2 * r**beta + v3.

    ``v1`` and ``v2`` are non-negative couplings (zero switches the term
    off), ``v3`` is an energy offset of either sign.  The exponents must be
    non-negative integers so the recurrence index shifts stay integral.
    """

    v1: float
    v2: float
    v3: float
    alpha: int
    beta: int
    allow_free: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"potential {name} must be finite, not {value!r}")
        if self.v1 < 0 or self.v2 < 0:
            raise DomainError("potential couplings v1, v2 must be >= 0")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise DomainError(f"exponent {name} must be a non-negative integer")
        if self.v1 == 0 and self.v2 == 0 and not self.allow_free:
            raise DomainError(
                "both couplings vanish; use PotentialSpec.free() for the free particle"
            )

    @classmethod
    def free(cls, v3: float = 0.0) -> "PotentialSpec":
        """Explicit free-particle spec (both couplings zero)."""
        return cls(0.0, 0.0, v3, 1, 1, allow_free=True)

    def value(self, r):
        """Evaluate V at radius ``r`` (scalar or array, r > 0 when alpha > 0).

        A Python float runs on Python floats when both powers are ones numpy
        computes without ``pow`` (r^-1 as 1/r, r^0 as 1, r^1 as r, r^2 as
        r*r), with the array path's operations in its order, so it gives the
        same bits.  Other powers take the array path: numpy's ``pow`` and
        libm's round differently on some radii."""
        if isinstance(r, float) and self.alpha <= 1 and self.beta <= 2:
            out = float(self.v3)
            if self.v1 != 0.0:
                # 1/0 is inf on the array path, not an exception
                recip = 1.0 / r if r else math.copysign(math.inf, r)
                out = out - self.v1 * (recip if self.alpha else 1.0)
            if self.v2 != 0.0:
                out = out + self.v2 * (1.0, r, r * r)[self.beta]
            return out
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.v3)
        if self.v1 != 0.0:
            out = out - self.v1 * r ** (-float(self.alpha))
        if self.v2 != 0.0:
            out = out + self.v2 * r ** float(self.beta)
        return out if out.ndim else float(out)


def make_cornell(a: float, b_lin: float, c: float) -> PotentialSpec:
    """Coulomb-plus-linear confinement: V(r) = -a/r + b_lin*r + c."""
    if a < 0 or b_lin < 0:
        raise DomainError("cornell couplings must be non-negative")
    return PotentialSpec(v1=a, v2=b_lin, v3=c, alpha=1, beta=1)


def make_coulomb(z: float) -> PotentialSpec:
    """Attractive Coulomb potential V(r) = -z/r."""
    if z <= 0:
        raise DomainError("coulomb coupling z must be positive")
    return PotentialSpec(v1=z, v2=0.0, v3=0.0, alpha=1, beta=0)


def make_oscillator(omega: float) -> PotentialSpec:
    """Harmonic confinement V(r) = omega**2 * r**2."""
    if omega <= 0:
        raise DomainError("oscillator frequency must be positive")
    return PotentialSpec(v1=0.0, v2=omega * omega, v3=0.0, alpha=0, beta=2)


def make_linear(b_lin: float) -> PotentialSpec:
    """Linear confinement V(r) = b_lin * r."""
    if b_lin <= 0:
        raise DomainError("linear coupling must be positive")
    return PotentialSpec(v1=0.0, v2=b_lin, v3=0.0, alpha=0, beta=1)


@dataclass(frozen=True)
class QuantumNumbers:
    """Spatial dimension, orbital and radial quantum numbers.

    The spectrum depends on ``dim_n`` and ``ell`` only through
    ``k = dim_n + 2*ell`` when the mass is constant; ``radial_n`` counts the
    nodes of the radial wavefunction.
    """

    dim_n: int
    ell: int
    radial_n: int = 0

    def __post_init__(self):
        if not isinstance(self.dim_n, (int, np.integer)) or self.dim_n < 1:
            raise DomainError("dimension dim_n must be an integer >= 1")
        if not isinstance(self.ell, (int, np.integer)) or self.ell < 0:
            raise DomainError("angular momentum ell must be an integer >= 0")
        if not isinstance(self.radial_n, (int, np.integer)) or self.radial_n < 0:
            raise DomainError("radial_n must be an integer >= 0")
        assert self.k >= 1

    @property
    def k(self) -> int:
        return self.dim_n + 2 * self.ell


@dataclass(frozen=True)
class MassProfile:
    """Position-dependent mass m(r) = P(r) e^(-lam r): a polynomial P with
    P(0) = m0 > 0, its coefficients ``poly`` lowest first, times a decaying
    exponential (lam >= 0).

    ``mass_at``, ``logderiv_at`` (m'/m = P'/P - lam) and ``terms_at`` (m,
    m'/m and its derivative, P''/P - (P'/P)^2, from one pass over P) are
    these closed forms at any radius.  ``series`` is the view the
    recurrence reads, the two series about the origin at a given order.
    """

    poly: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        poly = np.asarray(self.poly, float)
        if poly.ndim != 1 or poly.size == 0:
            raise DomainError("mass polynomial must be a non-empty 1-d coefficient vector")
        if not poly[0] > 0:
            raise DomainError("m0 must be positive")
        if not self.lam >= 0:
            raise DomainError("mass decay rate lam must be >= 0")
        object.__setattr__(self, "poly", poly)
        self.series(0)  # P's own series must pass the checks of ``series``

    def series(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """``(mass_series, logderiv_series)``, read only: P times the Taylor
        series of e^(-lam r), and the formal division P'/P minus lam, both
        carried to ``order``, or to the degree of P when that is higher.
        DomainError when either is not finite or their Cauchy product misses
        the derivative of the mass series."""
        if not isinstance(order, (int, np.integer)) or order < 0:
            raise DomainError("order must be an integer >= 0")
        order = max(int(order), self.poly.size - 1)
        return _series(self.poly.tobytes(), self.lam, math.copysign(1.0, self.lam), order)

    @property
    def m0(self) -> float:
        return float(self.poly[0])

    def mass_at(self, r):
        """m(r) = P(r) e^(-lam r)."""
        if np.ndim(r):
            r = np.asarray(r, float)
            return _horner(self.poly, r) * np.exp(-self.lam * r)
        return _horner(self.poly, r) * math.exp(-self.lam * r)

    def logderiv_at(self, r):
        """m'(r)/m(r) = P'/P - lam."""
        p, dp = _horner(self.poly, r, derivs=1)
        return dp / p - self.lam

    def terms_at(self, r):
        """m, m'/m and its derivative P''/P - (P'/P)^2 at an array r, from
        one pass over P, each with the bits of ``mass_at`` and
        ``logderiv_at``."""
        r = np.asarray(r, float)
        p, dp, d2p = _horner(self.poly, r, derivs=2)
        g = dp / p
        return p * np.exp(-self.lam * r), g - self.lam, d2p / p - g * g


def _exp_taylor(lam: float, order: int) -> np.ndarray:
    """Taylor coefficients (-lam)^nu / nu! of e^(-lam r) to ``order``, via
    exp/log-gamma so large orders stay finite."""
    if not lam:  # 1, 0, 0, ...
        return np.eye(1, order + 1)[0]
    nu = np.arange(order + 1)
    signs = np.where(nu % 2 == 0, 1.0, -1.0)
    log_fact = np.array([math.lgamma(v + 1.0) for v in range(order + 1)])
    return signs * np.exp(nu * math.log(lam) - log_fact)


# typed, and keyed on the sign of lam as well, so that 0.0 and -0.0, or 1
# and 1.0, are separate entries; masses come from callers, so it is bounded
@lru_cache(maxsize=128, typed=True)
def _series(poly: bytes, lam: float, sign: float, order: int):
    """The series of ``MassProfile.series`` for the bits of P, derived and
    checked once per (P, lam, order)."""
    poly = np.frombuffer(poly)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        b = np.convolve(poly, _exp_taylor(lam, order))[: order + 1]
        bp = logderiv_from_series(poly, order)
    bp[0] -= lam
    # an overflowed series would make the residual NaN, which no comparison
    # refuses
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(bp))):
        raise DomainError(
            "inconsistent mass profile: mass_series or logderiv_series "
            "is not finite"
        )
    # the Cauchy product of m'/m and m must reproduce the derivative series
    # of m, coefficient by coefficient, for every retained order
    if order:
        prod = np.convolve(bp, b)[:order]
        deriv = np.arange(1, order + 1) * b[1:]
        scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(bp))))
        if np.max(np.abs(prod - deriv)) > _CONSISTENCY_TOL * scale:
            raise DomainError(
                "inconsistent mass profile: logderiv_series * mass_series "
                "does not match the derivative of mass_series"
            )
    for a in (b, bp):
        a.flags.writeable = False
    return b, bp


def logderiv_from_series(mass_series, order: int | None = None) -> np.ndarray:
    """Formal division m'(r)/m(r) of a mass series.

    Solves (result * mass)[nu] = (nu+1) * mass[nu+1] (Cauchy product) order by
    order; the input series is treated as an exact polynomial (zero-extended)
    when ``order`` exceeds its length, the default order being its degree
    minus one.
    """
    b = np.asarray(mass_series, float)
    if b.ndim != 1 or b.size == 0:
        raise DomainError("series needs a non-empty 1-d coefficient vector")
    if not b[0] > 0:
        raise SeriesDivisionError(
            "log-derivative needs a positive leading mass coefficient"
        )
    b = b.tolist()
    m = len(b) - 1
    if order is None:
        order = max(m - 1, 0)
    out = []
    for nu in range(order + 1):
        acc = (nu + 1) * b[nu + 1] if nu + 1 <= m else 0.0
        # only the terms with mass[nu - j], j < nu, inside the polynomial
        for j in range(max(0, nu - m), nu):
            acc -= out[j] * b[nu - j]
        out.append(acc / b[0])
    return np.array(out)


def _horner(coeffs, r, derivs: int = 0):
    """sum_i coeffs[i] r^i at a float or array ``r``, or with ``derivs`` > 0
    the tuple of it and its first ``derivs`` derivatives.  A scalar ``r`` runs
    on Python floats, several times faster than numpy scalars.  ``coeffs``
    may have further axes after the power's, which broadcast against r."""
    r = np.asarray(r, float) if np.ndim(r) else float(r)
    rev = np.asarray(coeffs, float)[::-1]
    rev = rev.tolist() if rev.ndim == 1 else list(rev)
    if derivs == 0:
        acc = 0.0
        for c in rev:
            acc = acc * r + c
        return acc
    acc = [0.0] * (derivs + 1)  # acc[j] is the j-th derivative
    for c in rev:
        for j in range(derivs, 0, -1):  # each update reads the old acc[j - 1]
            acc[j] = acc[j] * r + j * acc[j - 1]
        acc[0] = acc[0] * r + c
    return tuple(acc)


@lru_cache(maxsize=None)
def _gauss_legendre(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``size`` points on [0, 1], read
    only: every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(size)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Truncated power-series factor u of the ansatz R = r^((k-1)/2) e^(-br) u.

    ``coeffs`` are the coefficients of u in x = r/2^x_exp, a_i 2^(x_exp i)
    for the coefficients a_i in r, so that a deep state's terms stay in the
    float range; ``b`` is the decay rate in r.
    """

    energy: float
    b: float
    coeffs: np.ndarray
    quantum: QuantumNumbers
    x_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, float))
        if self.energy >= 0:
            raise DomainError("series solutions exist for bound states only (E < 0)")
        if self.b <= 0:
            raise DomainError("decay rate b must be positive")
        if self.coeffs.ndim != 1 or self.coeffs.size == 0 or self.a0 == 0:
            raise DomainError("leading coefficient a0 = coeffs[0] must be nonzero")

    @property
    def a0(self) -> float:
        return float(self.coeffs[0])

    def scaled(self, factor: float) -> "SeriesSolution":
        """Homogeneous rescale of every coefficient (a0 included)."""
        if factor == 0:
            raise DomainError("scale factor must be nonzero")
        return replace(self, coeffs=self.coeffs * factor)


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Converged eigenvalue with its diagnostics and its eigenfunction.

    ``solution`` holds the series at ``energy`` before normalization
    (``solution.scaled(norm_const)`` is normalized) on (0, r_match], as it
    stopped where its terms at r_match became negligible; past
    r_match the eigenfunction is ``norm_const * p_sigma`` times the inward
    solution ``inward`` (``tail.leg_values``), with ``p_sigma`` the prefactor
    r^((k-1)/2) e^(-br) times sigma at r_match.  ``oracle_error`` names
    the exception class and message when the oracle was requested but could
    not check the state; ``oracle_gap`` is then None.
    """

    energy: float
    nodes: int
    norm_const: float
    tail_residual: float
    oracle_gap: float | None = None
    solution: SeriesSolution | None = None
    oracle_error: str | None = None
    inward: Inward | None = None
    p_sigma: float = 0.0

    def __post_init__(self):
        if not self.norm_const > 0:  # NaN too
            raise DomainError("norm_const must be positive")


def b_from_energy(e: float, m0: float) -> float:
    """Exponential decay rate b = sqrt(-2 m0 E) of a bound state."""
    if e >= 0:
        raise DomainError("bound-state decay rate requires E < 0")
    if m0 <= 0:
        raise DomainError("m0 must be positive")
    return math.sqrt(-2.0 * m0 * e)
