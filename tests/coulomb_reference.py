"""Closed forms of the constant-mass Coulomb problem that the tests check
the solver against."""

import math

from pdmradial.errors import DomainError
from pdmradial.model import QuantumNumbers


def coulomb_reference_energy(a_coupling: float, m0: float, q: QuantumNumbers) -> float:
    """Constant-mass Coulomb eigenvalue -A^2 m0 / (2 (n + (k-1)/2)^2).

    The decay rate at the terminating series is b = A m0 / (n + (k-1)/2),
    which reduces to the familiar A m0/(n + l + 1) in three dimensions.
    """
    if a_coupling <= 0 or m0 <= 0:
        raise DomainError("requires positive coupling and mass")
    nu = q.radial_n + (q.k - 1) / 2.0
    return -(a_coupling**2) * m0 / (2.0 * nu * nu)


def coulomb_a0_reference(a_coupling: float, m0: float, n: int, ell: int) -> float:
    """Closed-form reference scale for the leading 3-d Coulomb coefficient.

    The solver normalizes under the integral of R^2 dr; this reference value
    follows a different convention, so callers report the ratio of the two
    rather than asserting equality.
    """
    if a_coupling <= 0 or m0 <= 0:
        raise DomainError("requires positive coupling and mass")
    nlp = n + ell + 1
    base = 2.0 * a_coupling * m0 / nlp
    log_fact = 0.5 * (
        math.log(a_coupling * m0) + math.lgamma(n + 1) - math.lgamma(n + 2 * ell + 2)
    )
    return (base ** (ell + 1)) / nlp * math.exp(log_fact)


def coulomb_norm_reference(a_coupling: float, m0: float, q: QuantumNumbers) -> float:
    """Leading series coefficient of the normalized constant-mass Coulomb
    state, for any k: R = N rho^((k-1)/2) e^(-rho/2) L_n^(k-2)(rho) with
    rho = 2 b r, normalized under the integral of R^2 dr, tends to
    N (2b)^((k-1)/2) L_n^(k-2)(0) r^((k-1)/2) at the origin.  With the
    series' a0 = 1 this is the solver's norm_const."""
    if a_coupling <= 0 or m0 <= 0:
        raise DomainError("requires positive coupling and mass")
    n, k = q.radial_n, q.k
    b = a_coupling * m0 / (n + (k - 1) / 2.0)
    # N^2 = 2b n! / (Gamma(n + k - 1) (2n + k - 1)), L_n^(k-2)(0) = C(n + k - 2, n)
    log_n2 = (math.log(2.0 * b) + math.lgamma(n + 1) - math.lgamma(n + k - 1)
              - math.log(2 * n + k - 1))
    log_l0 = math.lgamma(n + k - 1) - math.lgamma(n + 1) - math.lgamma(k - 1)
    return math.exp(0.5 * log_n2 + (k - 1) / 2.0 * math.log(2.0 * b) + log_l0)
