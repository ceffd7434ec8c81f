"""Randomized closed-form identity checks.

Each check evaluates two independent code paths for the same quantity over
randomized admissible parameters and reports the worst deviation.  These
back the ``verify`` CLI subcommand and the acceptance suite; the identities
hold for every admissible parameter set, so verdicts must not depend on the
seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .model import MassProfile, PotentialSpec, QuantumNumbers, make_cornell
from .recurrence import (
    coefficient_closed_forms_cornell,
    coefficient_closed_forms_expmass,
    coulomb_closed_form_coefficients,
    coulomb_expmass_closed_forms,
    expmass_cornell_coefficients,
    generate_coefficients,
)

__all__ = ["IdentityResult", "run_identity_suite", "DEFAULT_SEED"]

DEFAULT_SEED = 20250101


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_deviation: float
    tolerance: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


def _runmax_relative(x: np.ndarray, y: np.ndarray) -> float:
    """Per-coefficient deviation relative to the running maximum magnitude.

    A coefficient can pass arbitrarily close to zero for some parameter set,
    so normalizing each difference by the coefficient itself is ill-posed;
    the running max measures the deviation against the scale the recurrence
    has actually reached.
    """
    diff = np.abs(x - y)
    scale = np.maximum.accumulate(np.maximum(np.abs(x), np.abs(y)))
    return float(np.max(diff / np.maximum(scale, 1e-300)))


def _random_quantum(rng, n_max: int = 0) -> QuantumNumbers:
    # keep k >= 2 so no degenerate channel appears
    dim = int(rng.integers(2, 6))
    ell = int(rng.integers(0, 4))
    n = int(rng.integers(0, n_max + 1)) if n_max else 0
    return QuantumNumbers(dim, ell, n)


def _random_custom_mass(rng):
    m0 = float(rng.uniform(0.5, 2.0))
    extra = rng.uniform(-0.3, 0.3, size=3)
    return MassProfile(np.concatenate([[m0], extra]))


def _random_cornell(rng) -> PotentialSpec:
    return make_cornell(
        float(rng.uniform(0.1, 2.0)),
        float(rng.uniform(0.0, 1.5)),
        float(rng.uniform(-1.0, 1.0)),
    )


def check_cornell_closed_forms(rng, trials: int = 50) -> IdentityResult:
    """First three coefficients of the solver's master recurrence vs the
    Cornell closed forms, with a general (randomized) mass series."""
    worst = 0.0
    for _ in range(trials):
        pot = _random_cornell(rng)
        mass = _random_custom_mass(rng)
        q = _random_quantum(rng)
        e = -float(rng.uniform(0.1, 3.0))
        sol = generate_coefficients(pot, mass, q, e, 4)
        closed = coefficient_closed_forms_cornell(pot, mass, q, e)
        worst = max(
            worst, max(abs(sol.coeffs[i + 1] - closed[i]) for i in range(3))
        )
    return IdentityResult("cornell-closed-forms-vs-recurrence", worst, 1e-12, trials)


def check_expmass_closed_forms(rng, trials: int = 50) -> IdentityResult:
    """First three coefficients of the paper's exponential-mass recursion vs
    its closed forms."""
    worst = 0.0
    for _ in range(trials):
        pot = _random_cornell(rng)
        m0 = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.02, 1.0))
        mass = MassProfile([m0], lam)
        q = _random_quantum(rng)
        e = -float(rng.uniform(0.1, 3.0))
        sol = expmass_cornell_coefficients(pot, mass, q, e, 4)
        closed = coefficient_closed_forms_expmass(pot, m0, lam, q, e)
        worst = max(
            worst, max(abs(sol.coeffs[i + 1] - closed[i]) for i in range(3))
        )
    return IdentityResult("expmass-closed-forms-vs-recursion", worst, 1e-12, trials)


def check_expmass_vs_general(rng, trials: int = 20, order: int = 20) -> IdentityResult:
    """Dual-derivation consistency: the solver's master recurrence fed with
    the exponential mass and log-derivative series must reproduce the paper's
    exponential-mass recursion, coefficient by coefficient."""
    worst = 0.0
    for _ in range(trials):
        pot = _random_cornell(rng)
        m0 = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.02, 1.0))
        mass = MassProfile([m0], lam)
        q = _random_quantum(rng)
        e = -float(rng.uniform(0.1, 3.0))
        s_exp = expmass_cornell_coefficients(pot, mass, q, e, order)
        s_gen = generate_coefficients(pot, mass, q, e, order)
        worst = max(worst, _runmax_relative(s_exp.coeffs, s_gen.coeffs))
    return IdentityResult("expmass-recursion-vs-general", worst, 1e-12, trials)


def check_coulomb_polynomial(rng, trials: int = 25) -> IdentityResult:
    """Constant-mass 3-d Coulomb coefficients of the solver's master
    recurrence vs the terminating closed form (the general factorial
    formula)."""
    worst = 0.0
    for _ in range(trials):
        a_c = float(rng.uniform(0.3, 2.0))
        m0 = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(0, 5))
        ell = int(rng.integers(0, 4))
        q = QuantumNumbers(3, ell, n)
        e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
        order = max(n + 6, 10)
        sol = generate_coefficients(
            PotentialSpec(a_c, 0.0, 0.0, 1, 0),
            MassProfile([m0]),
            q,
            e,
            order,
        )
        ref = np.array(
            [coulomb_closed_form_coefficients(a_c, m0, q, i) for i in range(order + 1)]
        )
        scale = float(np.max(np.abs(ref)))
        worst = max(worst, float(np.max(np.abs(sol.coeffs - ref)) / scale))
    return IdentityResult("coulomb-polynomial-coefficients", worst, 1e-12, trials)


def check_pdm_coulomb_closed_forms(rng, trials: int = 25) -> IdentityResult:
    """PDM Coulomb closed forms (exp mass, Coulomb decay rate substituted)
    vs the exponential-mass closed forms they specialize."""
    worst = 0.0
    for _ in range(trials):
        a_c = float(rng.uniform(0.3, 2.0))
        m0 = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.02, 1.0))
        n = int(rng.integers(0, 4))
        ell = int(rng.integers(0, 4))
        q = QuantumNumbers(3, ell, n)
        e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
        pot = make_cornell(a_c, 0.0, 0.0)
        ref = coefficient_closed_forms_expmass(pot, m0, lam, q, e)
        got = coulomb_expmass_closed_forms(a_c, m0, lam, q)
        worst = max(worst, max(abs(x - y) for x, y in zip(ref, got)))
    return IdentityResult("pdm-coulomb-closed-forms", worst, 1e-12, trials)


_CHECKS = (
    check_cornell_closed_forms,
    check_expmass_closed_forms,
    check_expmass_vs_general,
    check_coulomb_polynomial,
    check_pdm_coulomb_closed_forms,
)


def _check_rng(check, seed: int) -> np.random.Generator:
    """The generator of ``check`` under ``seed``: keyed by a CRC of the
    check's name, so adding, removing or reordering checks leaves the draws
    of every other check alone."""
    return np.random.default_rng([seed, zlib.crc32(check.__name__.encode())])


def run_identity_suite(seed: int = DEFAULT_SEED) -> list[IdentityResult]:
    """Run every identity check with its own seeded generator."""
    return [check(_check_rng(check, seed)) for check in _CHECKS]
