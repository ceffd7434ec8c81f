"""Power-series representations of m(r) and m'(r)/m(r) about the origin.

The log-derivative series is always obtained by formal division of the
derivative series by the mass series (never by numerical differentiation),
which is the unique definition consistent with the Cauchy-product identity

    (m'/m) * m  ==  m'   coefficient by coefficient.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SeriesDivisionError
from .model import MassProfile

__all__ = [
    "expand_exponential",
    "constant_mass",
    "mass_from_series",
    "logderiv_from_series",
]

DEFAULT_ORDER = 64


def _coeffs(series) -> np.ndarray:
    c = np.asarray(series, float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("series needs a non-empty 1-d coefficient vector")
    return c


def expand_exponential(m0: float, lam: float, order: int = DEFAULT_ORDER) -> MassProfile:
    """Exponentially decaying mass m(r) = m0 exp(-lam r) as a series profile.

    The mass coefficients are m0 (-lam)**nu / nu! and the log-derivative is
    exactly the constant -lam.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    return MassProfile([m0], [-lam], "exponential", lam).extended(order)


def constant_mass(m0: float, order: int = 0) -> MassProfile:
    """Constant mass profile (all series coefficients beyond m0 vanish)."""
    if order < 0:
        raise DomainError("order must be >= 0")
    return MassProfile([m0], [0.0], "constant").extended(order)


def mass_from_series(coeffs) -> MassProfile:
    """Custom mass profile from explicit series coefficients.

    No symbolic expansion is attempted: the coefficients are taken as exact
    (a polynomial mass if finitely many), and m'/m is derived by formal
    division.
    """
    c = _coeffs(coeffs)
    if c[0] <= 0:
        raise DomainError("mass series must have a positive leading coefficient")
    with np.errstate(over="ignore", invalid="ignore"):  # MassProfile refuses it
        logderiv = logderiv_from_series(c)
    return MassProfile(c, logderiv, "custom-series")


def logderiv_from_series(mass_series, order: int | None = None) -> np.ndarray:
    """Formal division m'(r)/m(r) of a mass series.

    Solves (result * mass)[nu] = (nu+1) * mass[nu+1] (Cauchy product) order by
    order; the input series is treated as an exact polynomial (zero-extended)
    when ``order`` exceeds its length.
    """
    b = _coeffs(mass_series)
    if b[0] <= 0:
        raise SeriesDivisionError(
            "log-derivative needs a positive leading mass coefficient"
        )
    m = b.size - 1
    if order is None:
        order = max(m - 1, 0)
    out = np.zeros(order + 1)
    for nu in range(order + 1):
        deriv = (nu + 1) * b[nu + 1] if nu + 1 <= m else 0.0
        acc = deriv
        for j in range(nu):
            bi = b[nu - j] if nu - j <= m else 0.0
            acc -= out[j] * bi
        out[nu] = acc / b[0]
    return out
