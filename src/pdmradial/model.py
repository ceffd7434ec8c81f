"""Domain types shared by every module: potentials, quantum numbers, mass
profiles, series solutions and solver results.

All types are immutable after construction and validate their invariants in
``__post_init__``, so instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError

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
    """Position-dependent mass as a power series about the origin.

    ``mass_series`` holds the coefficients of m(r) (leading entry m0 > 0) and
    ``logderiv_series`` the coefficients of m'(r)/m(r).  ``kind`` tags the
    closed forms ("constant", "exponential"): ``mass_at`` and ``logderiv_at``
    evaluate them exactly, and ``extended`` carries their series to any
    order.  A "custom-series" profile is its coefficients, a polynomial mass,
    and is used as given at every order.
    """

    mass_series: np.ndarray
    logderiv_series: np.ndarray
    kind: str
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mass_series", np.asarray(self.mass_series, float))
        object.__setattr__(
            self, "logderiv_series", np.asarray(self.logderiv_series, float)
        )
        if self.mass_series.ndim != 1 or self.mass_series.size == 0:
            raise DomainError("mass_series must be a non-empty 1-d coefficient vector")
        if self.m0 <= 0:
            raise DomainError("m0 must be positive")
        if self.kind not in ("constant", "exponential", "custom-series"):
            raise DomainError(f"unknown mass profile kind {self.kind!r}")
        if self.kind == "exponential" and self.lam <= 0:
            raise DomainError("exponential mass requires lam > 0")
        self._check_consistency()

    def _check_consistency(self):
        # Cauchy product of m'/m and m must reproduce the derivative series
        # of m, coefficient by coefficient, for every retained order.
        b = self.mass_series
        bp = self.logderiv_series
        # an overflowed series would make the residual NaN, which no
        # comparison refuses
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(bp))):
            raise DomainError(
                "inconsistent mass profile: mass_series or logderiv_series "
                "is not finite"
            )
        order = b.size - 1
        if order == 0:
            return
        prod = np.convolve(bp, b)[:order]
        deriv = np.arange(1, order + 1) * b[1:]
        scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(bp))))
        if np.max(np.abs(prod - deriv)) > _CONSISTENCY_TOL * scale:
            raise DomainError(
                "inconsistent mass profile: logderiv_series * mass_series "
                "does not match the derivative of mass_series"
            )

    @property
    def m0(self) -> float:
        return float(self.mass_series[0])

    @property
    def order(self) -> int:
        return self.mass_series.size - 1

    def mass_at(self, r):
        """m(r), using the closed form when one is known."""
        if self.kind == "constant":
            return self.m0 * np.ones_like(np.asarray(r, float)) if np.ndim(r) else self.m0
        if self.kind == "exponential":
            return self.m0 * np.exp(-self.lam * np.asarray(r, float)) if np.ndim(r) \
                else self.m0 * math.exp(-self.lam * r)
        return _horner(self.mass_series, r)

    def logderiv_at(self, r):
        """m'(r)/m(r), using the closed form when one is known."""
        if self.kind == "constant":
            return np.zeros_like(np.asarray(r, float)) if np.ndim(r) else 0.0
        if self.kind == "exponential":
            return -self.lam * np.ones_like(np.asarray(r, float)) if np.ndim(r) \
                else -self.lam
        return _horner(self.logderiv_series, r)

    def extended(self, order: int) -> "MassProfile":
        """Profile with the series carried to at least ``order``: exact for
        the closed-form kinds; a custom series is returned as given."""
        if order <= self.order or self.kind == "custom-series":
            return self
        if self.kind == "constant":
            series = np.zeros(order + 1)
            series[0] = self.m0
            return MassProfile(series, np.zeros(order + 1), "constant")
        # m0 (-lam)^nu / nu! via exp/log-gamma so large orders stay finite
        nu = np.arange(order + 1)
        signs = np.where(nu % 2 == 0, 1.0, -1.0)
        log_fact = np.array([math.lgamma(v + 1.0) for v in range(order + 1)])
        with np.errstate(over="ignore"):  # refused as not finite below
            series = self.m0 * signs * np.exp(nu * math.log(self.lam) - log_fact)
        logd = np.zeros(order + 1)
        logd[0] = -self.lam
        return MassProfile(series, logd, "exponential", self.lam)


def _horner(coeffs, r, derivs: int = 0):
    """sum_i coeffs[i] r^i at a float or array ``r``, or with ``derivs`` > 0
    the tuple of it and its first ``derivs`` derivatives.  A scalar ``r`` runs
    on Python floats, several times faster than numpy scalars."""
    r = np.asarray(r, float) if np.ndim(r) else float(r)
    rev = np.asarray(coeffs, float)[::-1].tolist()
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


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated power-series factor u(r) of the ansatz R = r^((k-1)/2) e^(-br) u(r).

    ``scale_log10`` records any overflow-guard rescaling applied during
    generation; the stored coefficients are the true ones times
    10**(-scale_log10).
    """

    energy: float
    b: float
    coeffs: np.ndarray
    quantum: QuantumNumbers
    scale_log10: float = 0.0

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


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenvalue with its diagnostics.

    ``solution`` holds the series at ``energy`` before normalization
    (``solution.scaled(norm_const)`` is normalized).  ``oracle_error`` names
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

    def __post_init__(self):
        if self.norm_const <= 0:
            raise DomainError("norm_const must be positive")


def b_from_energy(e: float, m0: float) -> float:
    """Exponential decay rate b = sqrt(-2 m0 E) of a bound state."""
    if e >= 0:
        raise DomainError("bound-state decay rate requires E < 0")
    if m0 <= 0:
        raise DomainError("m0 must be positive")
    return math.sqrt(-2.0 * m0 * e)
