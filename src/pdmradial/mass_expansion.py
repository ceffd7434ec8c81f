"""Constructors of the mass profiles m(r) = P(r) e^(-lam r) that a config
names: constant, exponentially decaying, and a polynomial series.

The log-derivative series is always obtained by formal division of P' by
P (``logderiv_from_series``, never by numerical differentiation), which is
the unique definition consistent with the Cauchy-product identity

    (m'/m) * m  ==  m'   coefficient by coefficient.
"""

from __future__ import annotations

from .errors import DomainError
from .model import MassProfile, logderiv_from_series

__all__ = [
    "expand_exponential",
    "constant_mass",
    "mass_from_series",
    "logderiv_from_series",
]

DEFAULT_ORDER = 64


def expand_exponential(m0: float, lam: float, order: int = DEFAULT_ORDER) -> MassProfile:
    """Exponentially decaying mass m(r) = m0 exp(-lam r) as a series profile.

    The mass coefficients are m0 (-lam)**nu / nu! and the log-derivative is
    exactly the constant -lam.
    """
    mass = MassProfile([m0], lam, order)  # refuses m0 <= 0 before lam < 0
    if not lam > 0:
        raise DomainError("exponential mass requires lam > 0")
    return mass


def constant_mass(m0: float, order: int = 0) -> MassProfile:
    """Constant mass profile (all series coefficients beyond m0 vanish)."""
    return MassProfile([m0], 0.0, order)


def mass_from_series(coeffs) -> MassProfile:
    """Polynomial mass from explicit series coefficients.

    No symbolic expansion is attempted: the coefficients are taken as an
    exact polynomial, so m'/m = P'/P holds at every radius and to every
    order of its series.
    """
    return MassProfile(coeffs, 0.0, 0)
