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
    "trusted",
    "evaluate",
    "norm2",
    "norms2",
    "ode_residual",
    "count_nodes",
    "node_counts",
    "sign_changes",
]

TRUST_RATIO = 1e-3


def trusted(solution: SeriesSolution, r: float) -> bool:
    """Whether the series is reliable at r: its last term |a_M| r^M stays
    below TRUST_RATIO times the envelope sum_i |a_i| r^i, which interior
    nodes do not cut.  The ratio is monotone in r, so a series trusted at r
    is trusted at every smaller radius.  A terminated series is trusted
    everywhere; an overflow on either side counts as untrusted."""
    coeffs = np.abs(solution.coeffs)
    last, order = float(coeffs[-1]), coeffs.size - 1
    if last == 0.0 or order == 0:
        return True
    x = math.ldexp(float(r), -solution.x_exp)
    envelope = _horner(coeffs, x)
    try:
        val = last * x**order - TRUST_RATIO * envelope
    except OverflowError:  # Python's float power raises where numpy's gives inf
        return False
    return val <= 0 and math.isfinite(val)


def _power(sol: SeriesSolution) -> float:
    """The prefactor power (k - 1)/2 of R = r^((k-1)/2) e^(-br) u(r)."""
    return (sol.quantum.k - 1) / 2.0


def _eval_R_positive(sols: list[SeriesSolution], r: np.ndarray) -> np.ndarray:
    """R of each solution sols[i] at the radii r[i] > 0, the rows of a 2-D
    array, in one Horner pass over the rows scaled to each series' x.
    Shorter series are padded with zeros at the top, which keep the sum at
    +0.0 until their first coefficient, so every value has the bits of its
    own series evaluated alone."""
    coeffs = np.zeros((max((s.coeffs.size for s in sols), default=0), len(sols), 1))
    for i, s in enumerate(sols):
        coeffs[: s.coeffs.size, i, 0] = s.coeffs
    p = np.array([[_power(s)] for s in sols])
    b = np.array([[s.b] for s in sols])
    x = np.ldexp(r, -np.array([[s.x_exp] for s in sols], int))
    return np.exp(p * np.log(r) - b * r) * _horner(coeffs, x)


def _eval_R_derivs(sol: SeriesSolution, r: float) -> tuple[float, float, float]:
    """R, R', R'' from analytically differentiated series (r > 0)."""
    p = _power(sol)
    b = sol.b
    u, up, upp = _horner(sol.coeffs, math.ldexp(r, -sol.x_exp), derivs=2)
    up, upp = math.ldexp(up, -sol.x_exp), math.ldexp(upp, -2 * sol.x_exp)
    g = p / r - b
    pref = math.exp(p * math.log(r) - b * r)
    R = pref * u
    Rp = pref * (up + g * u)
    Rpp = pref * (upp + 2.0 * g * up + (g * g - p / (r * r)) * u)
    return R, Rp, Rpp


def evaluate(sol, r=None):
    """Truncated-series value of R at finite radii r >= 0: a float for a
    scalar, else an array of the same shape.  ``evaluate(pairs)`` takes a
    list of (solution, radii) pairs instead and returns the list of their
    values from one Horner pass, each with the bits of its own call.

    Radii beyond the series trust region are evaluated anyway but flagged
    with an ExtrapolationWarning when a series is not ``trusted`` at the
    largest of its radii, r_top.
    """
    pairs = sol if r is None else [(sol, r)]
    arrs = [np.asarray(radii, float) for _, radii in pairs]
    for (s, _), arr in zip(pairs, arrs):
        if not np.all((arr >= 0) & (arr < math.inf)):  # NaN too
            raise DomainError("radius must be finite and >= 0")
        r_top = float(arr.max(initial=0.0))
        if not trusted(s, r_top):
            warnings.warn(
                f"evaluating beyond the series trust region (r_top = {r_top:.6g})",
                ExtrapolationWarning,
                stacklevel=2,
            )
    # one row of positive radii per state, padded with the least positive
    # float, at which nothing overflows
    pos = [arr[arr > 0.0] for arr in arrs]
    grid = np.full((len(pos), max((a.size for a in pos), default=0)), math.ulp(0.0))
    for row, a in zip(grid, pos):
        row[: a.size] = a
    rows = _eval_R_positive([s for s, _ in pairs], grid)
    out = []
    for (s, _), arr, a, row in zip(pairs, arrs, pos, rows):
        # R(0) is 0, or a0 when k = 1 and the prefactor is r^0
        out.append(np.full(arr.shape, s.a0 if s.quantum.k == 1 else 0.0))
        out[-1][arr > 0.0] = row[: a.size]
    if r is None:
        return out
    return float(out[0]) if out[0].ndim == 0 else out[0]


def norm2(sol: SeriesSolution, r: float, nodes: int | None = None) -> float:
    """The integral of R^2 over (0, r), inf or NaN where the series
    overflows.  R^2 = r^(k-1) e^(-2br) u(r)^2 is a polynomial times an
    exponential, so a fixed Gauss-Legendre rule converges spectrally; it has
    ``nodes`` nodes, by default as many as the series has terms and at
    least 64.  The one-state case of ``norms2``."""
    return norms2([(sol, r, nodes or max(64, sol.coeffs.size))])[0]


def norms2(states: list[tuple[SeriesSolution, float, int]]) -> list[float]:
    """``norm2`` of each (solution, r, nodes), one ``_eval_R_positive`` pass
    per node count over a row per state, each sum a row's own reduction:
    every value has the bits of its state's call alone."""
    if not all(0 < r < math.inf for _, r, _ in states):
        raise DomainError("r must be positive and finite")
    out = [0.0] * len(states)
    for nodes in dict.fromkeys(n for *_, n in states):
        rows = [i for i, (*_, n) in enumerate(states) if n == nodes]
        t, weights = _gauss_legendre(nodes)
        r = np.array([states[i][1] for i in rows])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            v = _eval_R_positive([states[i][0] for i in rows], r * t)
            sums = (weights * (v * v)).sum(axis=1)
            for i, value in zip(rows, (r[:, 0] * sums).tolist()):
                out[i] = value
    return out


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


# sample count -> its read-only power matrix, with the most powers asked so far
_POWERS: dict[int, np.ndarray] = {}


def _powers(samples: int, size: int) -> np.ndarray:
    """y_j^i on y_j = j / samples (j = 1 .. samples, i < size), a column per
    power from a running product: the first ``size`` columns, a contiguous
    view, of one Fortran-order matrix per sample count, rebuilt only when a
    count asks for more powers than it holds; read only, shared by every
    count."""
    powers = _POWERS.get(samples)
    if powers is None or powers.shape[1] < size:
        y = np.arange(1, samples + 1) / samples
        powers = np.empty((samples, size), order="F")
        powers[:, 0] = 1.0
        for i in range(1, size):
            np.multiply(powers[:, i - 1], y, out=powers[:, i])
        powers.flags.writeable = False
        if samples not in _POWERS and len(_POWERS) >= 2:  # callers pick the count
            _POWERS.clear()
        _POWERS[samples] = powers
    return powers[:, :size]


def count_nodes(sol: SeriesSolution, r_max: float, samples: int = 2048) -> int:
    """Count sign changes of R on (0, r_max).

    The prefactor r^((k-1)/2) e^(-br) is positive, so nodes of R are nodes of
    the series factor u, counted as sign changes on a uniform grid of
    ``samples`` points; samples that are exactly zero are skipped so that
    near-zero touches without an actual crossing are not counted.  At
    r = y r_max, u is sum_i t_i y^i, a product with the cached powers of y,
    where t_i = a_i x_max^i is the i-th term at x_max = r_max/2^x_exp.
    DomainError when a term leaves the float range, as it does for a radius
    far past the one the series was generated for.  The one-state case of
    ``node_counts``.
    """
    (count,) = node_counts([(sol, r_max)], samples)
    if isinstance(count, DomainError):
        raise count
    return count


def node_counts(states: list[tuple[SeriesSolution, float]],
                samples: int = 2048) -> list[int | DomainError]:
    """``count_nodes`` of each (solution, r_max), every state's terms a
    column of one product with the cached powers, zero below the shorter
    series; a state whose terms leave the float range has its DomainError
    in place of a count.  Only the signs of the product are read: its
    rounding may follow the BLAS and the columns beside it."""
    if samples < 100:
        raise DomainError("need at least 100 samples")
    if not all(0 < r_max < math.inf for _, r_max in states):
        raise DomainError("r_max must be positive and finite")
    out, terms = [], []
    for sol, r_max in states:
        a = sol.coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            t = a * math.ldexp(r_max, -sol.x_exp) ** np.arange(a.size)
        if np.all(np.isfinite(t)):
            out.append(len(terms))
            terms.append(t)
        else:
            out.append(DomainError(
                f"the series terms at r_max={r_max!r} leave the float range"))
    if not terms:
        return out
    size = max(t.size for t in terms)
    columns = np.zeros((size, len(terms)), order="F")
    for j, t in enumerate(terms):
        columns[: t.size, j] = t
    values = _powers(samples, size) @ columns
    return [sign_changes(values[:, j]) if isinstance(j, int) else j for j in out]
