"""Assembly, evaluation, norm and residual checks of the radial
wavefunction R(r) = r^((k-1)/2) e^(-br) u(r) built from a series solution.

Half-integer prefactor powers (even k) are evaluated through
exp(p * ln r) for r > 0 with the r -> 0 limit special-cased, which avoids
pow-of-negative pitfalls and keeps precision.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DomainError, ExtrapolationWarning, SingularPointError
from .model import MassProfile, PotentialSpec, SeriesSolution, _gauss_legendre, _horner

__all__ = [
    "trust_radius",
    "clamp_to_trust",
    "evaluate",
    "norm2",
    "ode_residual",
    "count_nodes",
    "sign_changes",
]

# A series value is trusted while the last retained term stays below this
# fraction of the absolute-value envelope of the partial sum.
TRUST_RATIO = 1e-3


def _untrusted(rev: list, last: float, order: int, r: float) -> bool:
    """Whether |a_M| r^M exceeds TRUST_RATIO times the envelope (``rev``
    holds the |a_i| reversed) at a Python float r, or a side overflows."""
    envelope = 0.0
    for c in rev:
        envelope = envelope * r + c
    try:
        val = last * r**order - TRUST_RATIO * envelope
    except OverflowError:  # Python's float power raises where numpy's gives inf
        return True
    return val > 0 or not math.isfinite(val)


def trust_radius(solution: SeriesSolution) -> float:
    """Radius up to which the truncated series is considered reliable.

    Defined as the r where the last retained term reaches TRUST_RATIO times the
    absolute-value envelope sum_i |a_i| r^i (the envelope is used instead of
    the signed partial sum so interior nodes do not produce spurious cutoffs;
    the ratio |a_M| r^M / envelope is monotone in r, so the crossing is
    unique).  A series whose trailing coefficients vanish (a terminated
    polynomial) is trusted everywhere.  A radius is clamped to it by
    ``clamp_to_trust``, which searches only where the clamp can bind.
    """
    coeffs = solution.coeffs
    last = abs(float(coeffs[-1]))
    if last == 0.0 or coeffs.size == 1:
        return math.inf

    rev = np.abs(coeffs)[::-1].tolist()
    order = coeffs.size - 1

    # double from 1e-12 to the first radius where the ratio is exceeded;
    # overflow in either side of the comparison means the search ran far
    # past any usable radius, and treating it as "exceeded" keeps the result
    # finite and conservative
    hi = 1e-12
    for _ in range(220):
        if _untrusted(rev, last, order, hi):
            break
        hi *= 2.0
    else:
        return math.inf
    lo = hi / 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if _untrusted(rev, last, order, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# clamp_to_trust's relative margin, far above the few ulps within which the
# float test flips near the crossing and the bisection stops
_CLAMP_MARGIN = 1e-9


def clamp_to_trust(solution: SeriesSolution, r: float) -> float:
    """min(r, trust_radius(solution)), bit for bit, searching the trust
    radius only where the clamp can bind.

    The ratio |a_M| r^M / envelope is monotone in r, so a series that passes
    ``trust_radius``'s own test slightly beyond r has its trust radius
    beyond r too, and r is returned after one evaluation of the test.
    Otherwise the full search runs.
    """
    rev = np.abs(solution.coeffs)[::-1].tolist()
    x = r * (1.0 + _CLAMP_MARGIN)
    if _untrusted(rev, rev[0], len(rev) - 1, x):
        return min(r, trust_radius(solution))
    return r


def _power(sol: SeriesSolution) -> float:
    """The prefactor power (k - 1)/2 of R = r^((k-1)/2) e^(-br) u(r)."""
    return (sol.quantum.k - 1) / 2.0


def _eval_R_positive(sol: SeriesSolution, r: np.ndarray) -> np.ndarray:
    """R at an array of radii r > 0."""
    return np.exp(_power(sol) * np.log(r) - sol.b * r) * _horner(sol.coeffs, r)


def _eval_R_derivs(sol: SeriesSolution, r: float) -> tuple[float, float, float]:
    """R, R', R'' from analytically differentiated series (r > 0)."""
    p = _power(sol)
    b = sol.b
    u, up, upp = _horner(sol.coeffs, r, derivs=2)
    g = p / r - b
    pref = math.exp(p * math.log(r) - b * r)
    R = pref * u
    Rp = pref * (up + g * u)
    Rpp = pref * (upp + 2.0 * g * up + (g * g - p / (r * r)) * u)
    return R, Rp, Rpp


def evaluate(sol: SeriesSolution, r) -> float | np.ndarray:
    """Truncated-series value of R at finite radii r >= 0: a float for a
    scalar, else an array of the same shape.

    Radii beyond the trust cutoff are evaluated anyway but flagged with an
    ExtrapolationWarning; the cutoff is searched only when the largest
    radius may lie beyond it (``clamp_to_trust``).
    """
    arr = np.asarray(r, float)
    if not np.all((arr >= 0) & (arr < math.inf)):  # NaN too
        raise DomainError("radius must be finite and >= 0")
    r_top = float(arr.max(initial=0.0))
    cutoff = clamp_to_trust(sol, r_top)
    if cutoff < r_top:
        warnings.warn(
            f"evaluating beyond the series trust region (r > {cutoff:.6g})",
            ExtrapolationWarning,
            stacklevel=2,
        )
    # R(0) is 0, or a0 when k = 1 and the prefactor is r^0
    out = np.full(arr.shape, sol.a0 if sol.quantum.k == 1 else 0.0)
    pos = arr > 0.0
    out[pos] = _eval_R_positive(sol, arr[pos])
    return float(out) if out.ndim == 0 else out


def norm2(sol: SeriesSolution, r: float) -> float:
    """The integral of R^2 over (0, r), inf or NaN where the series
    overflows.  R^2 = r^(k-1) e^(-2br) u(r)^2 is a polynomial times an
    exponential, so a fixed Gauss-Legendre rule converges spectrally; it has
    as many nodes as the series has terms, and at least 64."""
    if not 0 < r < math.inf:
        raise DomainError("r must be positive and finite")
    t, weights = _gauss_legendre(max(64, sol.coeffs.size))
    with np.errstate(over="ignore", invalid="ignore"):
        v = _eval_R_positive(sol, r * t)
        return r * float((weights * (v * v)).sum())


def ode_residual(
    sol: SeriesSolution,
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
    if not r < math.inf:  # NaN too
        raise DomainError(f"radius r={r!r} is not finite")
    q = sol.quantum
    k = q.k
    R, Rp, Rpp = _eval_R_derivs(sol, r)
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


def count_nodes(sol: SeriesSolution, r_max: float, samples: int = 2048) -> int:
    """Count sign changes of R on (0, r_max).

    The prefactor r^((k-1)/2) e^(-br) is positive, so nodes of R are nodes of
    the series factor u, counted as sign changes on a uniform grid of
    ``samples`` points; samples that are exactly zero are skipped so that
    near-zero touches without an actual crossing are not counted.
    """
    if samples < 100:
        raise DomainError("need at least 100 samples")
    if not 0 < r_max < math.inf:
        raise DomainError("r_max must be positive and finite")
    grid = np.linspace(0.0, r_max, samples + 1)[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        return sign_changes(_horner(sol.coeffs, grid))
