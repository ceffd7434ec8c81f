"""The inward tail leg of the series matching: Numerov integration of the
radial equation from the decaying tail toward the origin.

The radial equation R'' = G R' + F R carries a first-derivative term
G = m'/m whenever the mass varies.  The Liouville substitution R = s y with
s'/s = G/2 removes it, y'' = (F + G^2/4 - G'/2) y, so one Numerov scheme
integrates every mass profile (for constant mass s = 1 and the added term
vanishes).  Inward runs travel the stable direction and are solved in
float64 as banded triangular systems by LAPACK.  The eigensolver calls
``integrate_radial`` once per trial energy; ``tail_radius`` and
``outer_turning_radius`` place the start of the leg in the classically
forbidden tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg.lapack import dtbtrs

from .errors import DomainError
from .model import MassProfile, PotentialSpec, QuantumNumbers, b_from_energy

__all__ = [
    "Leg",
    "integrate_radial",
    "make_leg",
    "outer_turning_radius",
    "tail_radius",
]

MIN_GRID_POINTS = 1000
# the inward solve starts a new segment wherever the WKB growth exponent has
# risen by this much (e^300 ~ 1e130, far below the float64 overflow)
_SEGMENT_EXPONENT = 300.0


def tail_radius(
    pot: PotentialSpec,
    mass: MassProfile,
    e: float,
    target_exponent: float = 14.0,
) -> float:
    """Radius where the integral of sqrt(2 m (V - e)) past the turning point
    reaches ``target_exponent`` (capped for slowly decaying tails)."""
    b = b_from_energy(e, mass.m0)
    r_turn = outer_turning_radius(pot, mass, e)
    r = max(r_turn, 1e-3)
    cap = max(6.0 * r_turn, 40.0 / b)
    total = 0.0
    while total < target_exponent and r < cap:
        dr = 0.01 * max(r, 0.1)
        q2 = 2.0 * float(mass.mass_at(r)) * (float(pot.value(r)) - e)
        if q2 > 0:
            total += math.sqrt(q2) * dr
        r += dr
    return r


def outer_turning_radius(pot: PotentialSpec, mass: MassProfile, e: float) -> float:
    """Largest radius where V(r) = e, or 0.0 if V - e never changes sign.

    Found by scanning a geometric grid outward and bisecting the last sign
    change; used to place matching radii and grid ends in the classically
    forbidden tail.
    """
    probes = np.geomspace(1e-4, 1e7, 500)
    diff = pot.value(probes) - e
    neg = np.nonzero(diff <= 0)[0]
    if neg.size == 0:
        return 0.0
    last = int(neg[-1])
    if last == probes.size - 1:
        # still classically allowed at the largest probe: no outer turning
        return float(probes[-1])
    lo, hi = float(probes[last]), float(probes[last + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pot.value(mid) - e <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _potential_arrays(pot: PotentialSpec, mass: MassProfile, q: QuantumNumbers, r: np.ndarray):
    """G = m'/m and the energy-independent parts of w with y'' = w y, where
    R = s y, s'/s = G/2 and R'' = G R' + F R:

        F(r) = -G (N-1)/(2r) + (k-1)(k-3)/(4 r^2) + 2 m (V - e),
        w(r) = F + G^2/4 - G'/2 = w0 - 2 m e,

    with G' the derivative of the log-derivative series."""
    k = q.k
    g = np.asarray(mass.logderiv_at(r), float)
    dg = npoly.polyval(r, npoly.polyder(npoly.polytrim(mass.logderiv_series)))
    m = np.asarray(mass.mass_at(r), float)
    v = np.asarray(pot.value(r), float)
    f0 = -g * (q.dim_n - 1) / (2.0 * r) + (k - 1) * (k - 3) / (4.0 * r * r) + 2.0 * m * v
    return g, f0 + (0.25 * g * g - 0.5 * dg), 2.0 * m


@dataclass(frozen=True)
class Leg:
    """Energy-independent arrays of one inward Numerov run over the uniform
    radii ``r`` (step ``h``): G = m'/m, w = w0 - m2 e in y'' = w y, and
    s = exp(int G/2), equal to 1 at the far end where the run starts, so
    that R = s y; ``m_far`` is the mass there.  Built once per grid, shared
    by every energy."""

    r: np.ndarray
    h: float
    g: np.ndarray
    w0: np.ndarray
    m2: np.ndarray
    s: np.ndarray
    m_far: float


def make_leg(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    r_min: float,
    r_max: float,
    points: int,
) -> Leg:
    """The arrays of an inward run over ``points`` uniform radii from
    ``r_min`` to ``r_max``."""
    if r_min <= 0:
        raise DomainError("r_min must be positive (the origin is singular)")
    if r_max <= r_min:
        raise DomainError("r_max must exceed r_min")
    if points < MIN_GRID_POINTS:
        raise DomainError(f"need at least {MIN_GRID_POINTS} grid points")
    r = np.linspace(r_min, r_max, points)
    g, w0, m2 = _potential_arrays(pot, mass, q, r)
    big_g = npoly.polyval(r, npoly.polyint(npoly.polytrim(mass.logderiv_series)))
    s = np.exp(0.5 * (big_g - big_g[-1]))
    h = (r_max - r_min) / (points - 1)
    return Leg(r, h, g, w0, m2, s, float(mass.mass_at(r[-1])))


def _derivative_from_grid(R: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid (>= 9 points)."""
    n = R.size
    assert n >= 9
    Rp = np.empty_like(R)
    Rp[2:-2] = (R[:-4] - 8 * R[1:-3] + 8 * R[3:-1] - R[4:]) / (12 * h)
    # one-sided 4th-order stencils at the edges
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    for i in (0, 1):
        Rp[i] = np.dot(c, R[i : i + 5])
    for i in (n - 2, n - 1):
        Rp[i] = -np.dot(c, R[i : i - 5 : -1])
    return Rp


def _numerov_inward(
    w0: np.ndarray, m2, e: float, r: np.ndarray, h: float, start
) -> np.ndarray:
    """Inward Numerov run on w = w0 - m2 e as float64 banded triangular
    solves (LAPACK dtbtrs); ``start`` holds the run's first two values.

    In travel order, z_j = y(r[n-1-j]), the recurrence reads
    c_j z_j - d_{j-1} z_{j-1} + c_{j-2} z_{j-2} = 0, with c = 1 - h^2 w/12
    and d = 2 + 10 h^2 w/12: a lower-triangular system
    with two subdiagonals whose column j holds (c_j, -d_j, c_j), with the two
    start values moved to the right-hand side.  The grid is cut beforehand
    wherever the WKB exponent, the integral of sqrt(max(w, 0)) dr, has grown
    by another ``_SEGMENT_EXPONENT``.  Each segment starts from the last two
    values of the previous one scaled to order one, and the earlier samples
    are rescaled by the same factor, so no value approaches overflow.  A
    segment that still gives a non-finite value raises DomainError naming
    the radius.
    """
    n = r.size
    w = (w0 - m2 * e)[::-1]
    growth = np.cumsum(np.sqrt(np.maximum(w, 0.0))) * h
    n_marks = int(growth[-1] // _SEGMENT_EXPONENT)
    cuts = np.unique(
        np.searchsorted(growth, _SEGMENT_EXPONENT * np.arange(1, n_marks + 1))
    )
    bounds = [2, *cuts[(cuts > 2) & (cuts < n - 1)].tolist(), n]

    h12 = h * h / 12.0
    c = 1.0 - h12 * w
    neg_d = -(2.0 + 10.0 * h12 * w)
    z = np.empty(n)
    z[0], z[1] = start
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z[:lo] /= max(abs(z[lo - 2]), abs(z[lo - 1]))
        ab = np.array([c[lo:hi], neg_d[lo:hi], c[lo:hi]], order="F")
        rhs = np.zeros((hi - lo, 1))
        rhs[0] = -neg_d[lo - 1] * z[lo - 1] - c[lo - 2] * z[lo - 2]
        rhs[1:2] = -c[lo - 1] * z[lo - 1]  # none if the segment has one point
        x, info = dtbtrs(ab, rhs, uplo="L", overwrite_b=1)
        finite = np.isfinite(x[:, 0])
        if info != 0 or not finite.all():
            j = info - 1 if info > 0 else int(np.argmin(finite))
            raise DomainError(
                f"inward Numerov solve is not finite at r={r[n - 1 - lo - j]:.6g} "
                f"(h^2 w/12 = {h12 * w[lo + j]:.3g}); refine the grid"
            )
        z[lo:hi] = x[:, 0]
    return z[::-1]


def integrate_radial(leg: Leg, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the radial equation inward over ``leg``; returns R and R'.

    The run starts from the local decay R'/R = -kappa, kappa =
    sqrt(-2 m(r_max) e), at the far end of the leg, so y'/y = -kappa - G/2
    there.  The overall scale of the solution is arbitrary.
    """
    if e >= 0:
        raise DomainError("direct integration expects a bound-state energy E < 0")
    kappa = math.sqrt(-2.0 * leg.m_far * e)
    start = 1.0, math.exp((kappa + 0.5 * leg.g[-1]) * leg.h)
    y = _numerov_inward(leg.w0, leg.m2, e, leg.r, leg.h, start)
    return leg.s * y, leg.s * (_derivative_from_grid(y, leg.h) + 0.5 * leg.g * y)
