"""Assembly, evaluation, normalization and residual checks of the radial
wavefunction R(r) = r^((k-1)/2) e^(-br) u(r) built from a series solution.

Half-integer prefactor powers (even k) are evaluated through
exp(p * ln r) for r > 0 with the r -> 0 limit special-cased, which avoids
pow-of-negative pitfalls and keeps precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateWavefunctionError,
    DomainError,
    ExtrapolationWarning,
    SingularPointError,
)
from .model import MassProfile, PotentialSpec, SeriesSolution, _horner

__all__ = [
    "RadialWavefunction",
    "trust_radius",
    "evaluate",
    "normalize",
    "ode_residual",
    "count_nodes",
    "sign_changes",
    "coulomb_a0_reference",
]

# A series value is trusted while the last retained term stays below this
# fraction of the absolute-value envelope of the partial sum.
TRUST_RATIO = 1e-3


def trust_radius(solution: SeriesSolution, ratio: float = TRUST_RATIO) -> float:
    """Radius up to which the truncated series is considered reliable.

    Defined as the r where the last retained term reaches ``ratio`` times the
    absolute-value envelope sum_i |a_i| r^i (the envelope is used instead of
    the signed partial sum so interior nodes do not produce spurious cutoffs;
    the ratio |a_M| r^M / envelope is monotone in r, so the crossing is
    unique).  A series whose trailing coefficients vanish (a terminated
    polynomial) is trusted everywhere.
    """
    coeffs = solution.coeffs
    last = abs(float(coeffs[-1]))
    if last == 0.0 or coeffs.size == 1:
        return math.inf

    abs_coeffs = np.abs(coeffs)
    order = coeffs.size - 1

    # doubling scan from 1e-12 to the first radius where the ratio is
    # exceeded; overflow in either side of the comparison means the scan ran
    # far past any usable radius, and treating it as "exceeded" keeps the
    # result finite and conservative
    radii = np.ldexp(1e-12, np.arange(220))
    with np.errstate(over="ignore", invalid="ignore"):
        val = last * radii**order - ratio * _horner(abs_coeffs, radii)
    hit = (val > 0) | ~np.isfinite(val)
    if not hit.any():
        return math.inf
    # the bisection evaluates the envelope on Python floats, with _horner's
    # operations on a reversed coefficient list built once
    rev = abs_coeffs[::-1].tolist()
    hi = float(radii[np.argmax(hit)])
    lo = hi / 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        envelope = 0.0
        for c in rev:
            envelope = envelope * mid + c
        val = last * mid**order - ratio * envelope
        if val > 0 or not math.isfinite(val):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RadialWavefunction:
    """A series solution packaged with its evaluation trust cutoff."""

    solution: SeriesSolution
    eval_cutoff: float

    @classmethod
    def from_solution(cls, solution: SeriesSolution) -> "RadialWavefunction":
        return cls(solution, trust_radius(solution))

    @property
    def k(self) -> int:
        return self.solution.quantum.k

    @property
    def prefactor_power(self) -> float:
        return (self.k - 1) / 2.0


def _eval_R(w: RadialWavefunction, r: float) -> float:
    p = w.prefactor_power
    if r == 0.0:
        if p > 0:
            return 0.0
        # k = 1: prefactor is r^0
        return float(w.solution.coeffs[0])
    b = w.solution.b
    u = _horner(w.solution.coeffs, r)
    return math.exp(p * math.log(r) - b * r) * u


def _eval_R_positive(w: RadialWavefunction, r: np.ndarray) -> np.ndarray:
    """R at an array of radii r > 0."""
    return np.exp(w.prefactor_power * np.log(r) - w.solution.b * r) * _horner(
        w.solution.coeffs, r
    )


def _eval_R_derivs(w: RadialWavefunction, r: float) -> tuple[float, float, float]:
    """R, R', R'' from analytically differentiated series (r > 0)."""
    p = w.prefactor_power
    b = w.solution.b
    u, up, upp = _horner(w.solution.coeffs, r, derivs=2)
    g = p / r - b
    pref = math.exp(p * math.log(r) - b * r)
    R = pref * u
    Rp = pref * (up + g * u)
    Rpp = pref * (upp + 2.0 * g * up + (g * g - p / (r * r)) * u)
    return R, Rp, Rpp


def evaluate(w: RadialWavefunction, r) -> float | np.ndarray:
    """Truncated-series value of R at radius r >= 0 (scalar or array).

    Radii beyond the trust cutoff are evaluated anyway but flagged with an
    ExtrapolationWarning.
    """
    arr = np.asarray(r, float)
    if np.any(arr < 0):
        raise DomainError("radius must be >= 0")
    if np.any(arr > w.eval_cutoff):
        warnings.warn(
            f"evaluating beyond the series trust region (r > {w.eval_cutoff:.6g})",
            ExtrapolationWarning,
            stacklevel=2,
        )
    if arr.ndim == 0:
        return _eval_R(w, float(arr))
    out = np.empty_like(arr)
    pos = arr > 0.0
    out[pos] = _eval_R_positive(w, arr[pos])
    out[~pos] = _eval_R(w, 0.0)
    return out


@lru_cache(maxsize=None)
def _gauss_legendre(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``size`` points on [0, 1], read
    only: every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(size)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


def normalize(w: RadialWavefunction, r_max: float) -> RadialWavefunction:
    """Rescale a0 so that the norm of R over (0, infinity) is one.

    The integral is a Gauss-Legendre rule for R^2 over (0, r_max) plus the
    exponential-envelope tail estimate R(r_max)^2 / (2b) for the remainder.
    R^2 = r^(k-1) e^(-2br) u(r)^2 is a polynomial times an exponential, so
    a fixed rule converges spectrally; it has as many nodes as the series
    has terms, and at least 64.
    """
    if r_max <= 0:
        raise DomainError("r_max must be positive")
    sol = w.solution
    t, weights = _gauss_legendre(max(64, sol.coeffs.size))
    with np.errstate(over="ignore", invalid="ignore"):
        v = _eval_R_positive(w, r_max * t)
        # cap instead of overflowing in the sum
        integral = r_max * float((weights * np.minimum(v * v, 1e300)).sum())
        v_max = _eval_R(w, r_max)
        integral += min(v_max * v_max, 1e300) / (2.0 * sol.b)
    if integral >= 1e299:
        integral = math.inf
    if not math.isfinite(integral) or integral <= 0.0:
        raise DegenerateWavefunctionError(
            f"normalization integral is degenerate ({integral!r})"
        )
    scale = 1.0 / math.sqrt(integral)
    return replace(w, solution=sol.scaled(scale))


def ode_residual(
    w: RadialWavefunction,
    pot: PotentialSpec,
    mass: MassProfile,
    e: float,
    r: float,
) -> float:
    """Absolute residual of the radial equation applied to the truncated series.

    Evaluates |R'' + (m'/m) ((N-1)/(2r) - d/dr) R - (k-1)(k-3)/(4r^2) R
    + 2 m (E - V) R| with analytically differentiated series (no finite
    differences enter the residual itself).
    """
    if r <= 0:
        raise SingularPointError("residual is undefined at the r = 0 singular point")
    q = w.solution.quantum
    k = q.k
    R, Rp, Rpp = _eval_R_derivs(w, r)
    md = mass.logderiv_at(r)
    m = mass.mass_at(r)
    v = pot.value(r)
    res = (
        Rpp
        + md * ((q.dim_n - 1) / (2.0 * r) * R - Rp)
        - (k - 1) * (k - 3) / (4.0 * r * r) * R
        + 2.0 * m * (e - v) * R
    )
    return abs(res)


def sign_changes(values) -> int:
    """Number of sign changes along ``values``, exact zeros skipped."""
    v = np.asarray(values, float)
    neg = v[v != 0.0] < 0
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def count_nodes(
    w: RadialWavefunction | SeriesSolution, r_max: float, samples: int = 2048
) -> int:
    """Count sign changes of R on (0, r_max).

    The prefactor r^((k-1)/2) e^(-br) is positive, so nodes of R are nodes of
    the series factor u, counted as sign changes on a uniform grid of
    ``samples`` points; samples that are exactly zero are skipped so that
    near-zero touches without an actual crossing are not counted.  The count
    needs the series alone, so a bare SeriesSolution is accepted as well (no
    trust radius is computed for it).
    """
    if samples < 100:
        raise DomainError("need at least 100 samples")
    if r_max <= 0:
        raise DomainError("r_max must be positive")
    grid = np.linspace(0.0, r_max, samples + 1)[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        sol = w.solution if isinstance(w, RadialWavefunction) else w
        return sign_changes(_horner(sol.coeffs, grid))


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
