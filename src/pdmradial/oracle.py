"""Direct numerical integration of the radial equation, independent of the
series machinery, used as ground truth for eigenvalues and wavefunctions.

The radial equation R'' = G R' + F R carries a first-derivative term
G = m'/m whenever the mass varies.  The Liouville substitution R = s y with
s'/s = G/2 removes it, y'' = (F + G^2/4 - G'/2) y, so one Numerov scheme
integrates every mass profile (for constant mass s = 1 and the added term
vanishes).  Inward runs, from the decaying tail toward the origin, travel the
stable direction and are solved in float64 as banded triangular systems by
LAPACK.  Outward runs start from a short origin expansion derived directly
from the indicial balance of the equation and keep an 80-bit per-point loop,
because past the turning point they amplify rounding noise.  This module
imports nothing from the recurrence or wavefunction modules beyond the domain
types; the eigensolver does borrow ``integrate_radial`` and, for a batch of
scan energies, ``inward_match`` for its inward leg, so the two share the
tail side of the matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import brentq

from .errors import BracketError, DomainError, ResolutionError
from .model import MassProfile, PotentialSpec, QuantumNumbers, b_from_energy

__all__ = [
    "GridSpec",
    "Leg",
    "inward_match",
    "integrate_radial",
    "make_leg",
    "numerov_eigenvalue",
    "outer_turning_radius",
]

_RENORM_LIMIT = 1e250
MIN_GRID_POINTS = 1000
# the inward solve starts a new segment wherever the WKB growth exponent has
# risen by this much (e^300 ~ 1e130, far below the float64 overflow)
_SEGMENT_EXPONENT = 300.0
# most (energies x points) values one batched inward solve holds at a time
_BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid for direct integration."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self):
        if self.r_min <= 0:
            raise DomainError("r_min must be positive (the origin is singular)")
        if self.r_max <= self.r_min:
            raise DomainError("r_max must exceed r_min")
        if self.points < MIN_GRID_POINTS:
            raise DomainError(f"need at least {MIN_GRID_POINTS} grid points")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)

    def array(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    def coarsened(self) -> "GridSpec":
        """Every second point (for resolution self-checks)."""
        if (self.points - 1) % 2:
            raise DomainError("coarsening requires an odd point count")
        return GridSpec(self.r_min, self.r_max, (self.points - 1) // 2 + 1)


def default_grid(
    pot: PotentialSpec, mass: MassProfile, e_ref: float, points: int = 20001
) -> GridSpec:
    """Grid reaching 20 decay lengths and past the outer turning point.

    For confining potentials the local decay rate keeps growing beyond the
    turning point, so the end of the grid is additionally pushed until the
    accumulated WKB exponent suppresses the wrong tail branch to ~e^-14.
    """
    b = b_from_energy(e_ref, mass.m0)
    r_turn = outer_turning_radius(pot, mass, e_ref)
    r_max = max(20.0 / b, 2.2 * r_turn, tail_radius(pot, mass, e_ref))
    return GridSpec(1e-6, r_max, points)


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


def _origin_series(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    n_terms: int = 7,
) -> np.ndarray:
    """Taylor coefficients c_0..c_{n_terms-1} of the regular origin behavior
    R = r^p sum_j c_j r^j with p = (k-1)/2 and c_0 = 1.

    Obtained by balancing powers of the radial equation directly (no
    exponential ansatz): with beta_nu the log-derivative series and b_nu the
    mass series,

        m (m+k-2) c_m = sum_{j+nu=m-1} (l+j) beta_nu c_j
                        - 2 e <b,c>_{m-2}
                        - 2 V1 <b,c>_{m-1 if alpha=1 else m-2}
                        + 2 V2 <b,c>_{m-2-beta} + 2 V3 <b,c>_{m-2},

    where <b,c>_i is the Cauchy coefficient and negative indices vanish.
    Requires k >= 3 so the m = 1 denominator is safe.
    """
    k = q.k
    ell = q.ell
    bmass = mass.mass_series
    blog = mass.logderiv_series
    c = np.zeros(n_terms)
    c[0] = 1.0

    def conv(i):
        if i < 0:
            return 0.0
        top = min(i, bmass.size - 1)
        return sum(bmass[nu] * c[i - nu] for nu in range(top + 1))

    for m in range(1, n_terms):
        acc = 0.0
        top = min(m - 1, blog.size - 1)
        for nu in range(top + 1):
            j = m - 1 - nu
            acc += (ell + j) * blog[nu] * c[j]
        acc -= 2.0 * e * conv(m - 2)
        if pot.v1 != 0.0:
            acc -= 2.0 * pot.v1 * conv(m - 1 if pot.alpha == 1 else m - 2)
        if pot.v2 != 0.0:
            acc += 2.0 * pot.v2 * conv(m - 2 - pot.beta)
        if pot.v3 != 0.0:
            acc += 2.0 * pot.v3 * conv(m - 2)
        c[m] = acc / (m * (m + k - 2))
    return c


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
    """Energy-independent arrays of one Numerov run over the radii ``r``
    (uniform step ``h``): G = m'/m, w = w0 - m2 e in y'' = w y, and
    s = exp(int G/2), equal to 1 where the run starts, so that R = s y.
    Built once per grid and direction, shared by every energy."""

    r: np.ndarray
    h: float
    g: np.ndarray
    w0: np.ndarray
    m2: np.ndarray
    s: np.ndarray
    outward: bool


def make_leg(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    r: np.ndarray,
    h: float,
    outward: bool,
) -> Leg:
    """The arrays of a run over the uniform radii ``r`` in one direction."""
    g, w0, m2 = _potential_arrays(pot, mass, q, r)
    big_g = npoly.polyval(r, npoly.polyint(npoly.polytrim(mass.logderiv_series)))
    s = np.exp(0.5 * (big_g - (big_g[0] if outward else big_g[-1])))
    return Leg(r, h, g, w0, m2, s, outward)


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


def _numerov_coefficients(
    w: np.ndarray, h: float, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Numerov weights c = 1 - h^2 w/12 and d = 2 + 10 h^2 w/12 in ``dtype``."""
    h12 = dtype(h) * dtype(h) / 12.0
    w = w.astype(dtype)
    return 1.0 - h12 * w, 2.0 + 10.0 * h12 * w


def _numerov(
    w_arr: np.ndarray,
    r: np.ndarray,
    h: float,
    start: tuple[float, float],
    outward: bool,
) -> np.ndarray:
    """Numerov integration of R'' = w(r) R along the uniform grid ``r``.

    ``start`` holds the first two values in the direction of travel; the
    returned array is always aligned with the ascending grid.

    Inward runs travel the stable direction and are float64 banded solves
    (``_numerov_inward``).  Outward runs keep an 80-bit per-point loop:
    beyond the turning point the growing branch amplifies the rounding noise
    seeded before it, and 80-bit arithmetic keeps that floor near 1e-10
    where float64 leaves it near 1e-6.  The running solution is renormalized
    when it exceeds the overflow guard (earlier samples are rescaled
    retroactively so one overall scale applies).
    """
    if not outward:
        return _numerov_inward(w_arr, 0.0, 0.0, r, h, start)
    c, d = _numerov_coefficients(w_arr, h, np.longdouble)
    R = np.zeros(w_arr.size, dtype=np.longdouble)
    R[0], R[1] = start
    prev2, prev = R[0], R[1]
    for i in range(2, w_arr.size):
        cur = (d[i - 1] * prev - c[i - 2] * prev2) / c[i]
        R[i] = cur
        if abs(cur) > _RENORM_LIMIT:
            R[: i + 1] /= _RENORM_LIMIT
            cur = R[i]
            prev = R[i - 1]
        prev2, prev = prev, cur
    return R.astype(float)


def _numerov_inward(
    w0: np.ndarray, m2, e, r: np.ndarray, h: float, start
) -> np.ndarray:
    """Inward Numerov runs on w = w0 - m2 e for the energy or energies ``e``
    as float64 banded triangular solves (LAPACK dtbtrs); y has shape
    (*e.shape, n), and ``start`` holds the first two values of every run.

    In travel order, z_j = y(r[n-1-j]), the recurrence reads
    c_j z_j - d_{j-1} z_{j-1} + c_{j-2} z_{j-2} = 0: a lower-triangular system
    with two subdiagonals whose column j holds (c_j, -d_j, c_j), with the two
    start values moved to the right-hand side.  The grid is cut beforehand
    wherever the WKB exponent, the integral of sqrt(max(w, 0)) dr, has grown
    by another ``_SEGMENT_EXPONENT`` at the deepest energy, whose w is the
    largest, so the cuts of a single energy are its own.  Each segment starts
    from the last two values of the previous one scaled to order one, and the
    earlier samples are rescaled by the same factor, so no value approaches
    overflow.  Several energies are solved as one block-diagonal system per
    segment, one uncoupled block per energy.  A segment that still gives a
    non-finite value raises DomainError naming the radius.
    """
    shape = np.shape(e)
    e = np.atleast_1d(e)[:, None]
    n = r.size
    w0, m2 = w0[::-1], np.broadcast_to(m2, w0.shape)[::-1]
    growth = np.cumsum(np.sqrt(np.maximum(w0 - m2 * e.min(), 0.0))) * h
    n_marks = int(growth[-1] // _SEGMENT_EXPONENT)
    cuts = np.unique(
        np.searchsorted(growth, _SEGMENT_EXPONENT * np.arange(1, n_marks + 1))
    )
    bounds = [2, *cuts[(cuts > 2) & (cuts < n - 1)].tolist(), n]

    h12 = h * h / 12.0

    def numerov_rows(lo: int, hi: int, c: np.ndarray, neg_d: np.ndarray) -> None:
        # c = 1 - h12 w and -d = -(2 + 10 h12 w) at travel indices lo..hi-1,
        # written in place, in the operation order of _numerov_coefficients
        np.multiply(m2[lo:hi], e, out=c)
        np.subtract(w0[lo:hi], c, out=c)  # w
        np.multiply(10.0 * h12, c, out=neg_d)
        np.add(2.0, neg_d, out=neg_d)
        np.negative(neg_d, out=neg_d)
        np.multiply(h12, c, out=c)
        np.subtract(1.0, c, out=c)

    z = np.empty((e.size, n))
    z[:, 0], z[:, 1] = start
    # one band and right-hand-side buffer serves every segment
    longest = max(hi - lo for lo, hi in zip(bounds[:-1], bounds[1:]))
    ab_all = np.empty((3, e.size * longest), order="F")
    rhs_all = np.empty((e.size * longest, 1))
    c0, neg_d0 = np.empty((2, e.size, 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z[:, :lo] /= np.maximum(abs(z[:, lo - 2]), abs(z[:, lo - 1]))[:, None]
        m = hi - lo
        # column (energy, j) of the Fortran-ordered band storage is
        # ab[:, energy * m + j]; ``band`` views it as [energy, j, row]
        ab = ab_all[:, : e.size * m]
        band = ab.T.reshape(e.size, m, 3)
        numerov_rows(lo, hi, band[:, :, 0], band[:, :, 1])
        band[:, :, 2] = band[:, :, 0]
        band[:, -1, 1:] = 0.0  # no coupling into the next energy's block
        band[:, -2:-1, 2] = 0.0
        numerov_rows(lo - 2, lo, c0, neg_d0)
        rhs = rhs_all[: e.size * m]
        rhs[:] = 0.0
        first = rhs.reshape(e.size, m)
        first[:, 0] = -neg_d0[:, 1] * z[:, lo - 1] - c0[:, 0] * z[:, lo - 2]
        first[:, 1:2] = (-c0[:, 1] * z[:, lo - 1])[:, None]  # none if m = 1
        x, info = dtbtrs(ab, rhs, uplo="L", overwrite_b=1)
        finite = np.isfinite(x[:, 0])
        if info != 0 or not finite.all():
            k, j = divmod(info - 1 if info > 0 else int(np.argmin(finite)), m)
            raise DomainError(
                f"inward Numerov solve is not finite at r={r[n - 1 - lo - j]:.6g} "
                f"(h^2 w/12 = {1.0 - band[k, j, 0]:.3g}); refine the grid"
            )
        z[:, lo:hi] = x.reshape(e.size, m)
    return z[:, ::-1].reshape(*shape, n)


def _inward_start(leg: Leg, mass: MassProfile, e: float) -> tuple[float, float]:
    """First two values of an inward run: R'/R = -kappa at the far end, i.e.
    y'/y = -kappa - G/2."""
    kappa = math.sqrt(-2.0 * float(mass.mass_at(leg.r[-1])) * e)
    return 1.0, math.exp((kappa + 0.5 * leg.g[-1]) * leg.h)


def inward_match(
    leg: Leg, mass: MassProfile, e: np.ndarray, i: int
) -> tuple[np.ndarray, np.ndarray]:
    """R and R' at index ``i`` (2 <= i <= n - 3) of the inward runs of
    ``leg`` at every energy of the 1-d array ``e``, each up to its own
    positive scale.

    The energies are solved in blocks of at most ``_BLOCK_VALUES`` (energies
    x points) values, so the transient memory stays bounded however many
    energies are asked for.  Each equals ``integrate_radial``'s R[i], R'[i]
    up to that scale; only the segment cuts, taken from each block's deepest
    energy, move the rounding.
    """
    n = leg.r.size
    assert 2 <= i <= n - 3, "the match index needs the central stencil"
    R, Rp = np.empty(e.size), np.empty(e.size)
    per_block = max(1, _BLOCK_VALUES // n)
    for lo in range(0, e.size, per_block):
        es = e[lo : lo + per_block]
        start = np.array([_inward_start(leg, mass, x) for x in es]).T
        y = _numerov_inward(leg.w0, leg.m2, es, leg.r, leg.h, start)[:, i - 2 : i + 3]
        # the central fourth-order stencil of _derivative_from_grid
        dy = (y[:, 0] - 8 * y[:, 1] + 8 * y[:, 3] - y[:, 4]) / (12 * leg.h)
        R[lo : lo + per_block] = leg.s[i] * y[:, 2]
        Rp[lo : lo + per_block] = leg.s[i] * (dy + 0.5 * leg.g[i] * y[:, 2])
    return R, Rp


def integrate_radial(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    grid: GridSpec,
    direction: str = "outward",
    check_resolution: bool = False,
    leg: Leg | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the radial equation over ``grid``; returns R and R' arrays.

    Outward runs start from the origin expansion
    R ~ r^((k-1)/2) (1 + c1 r + ... ) evaluated at the first grid points;
    inward runs start from the local decay R'/R = -sqrt(-2 m(r_max) e).  The
    overall scale of the solution is arbitrary.  ``leg`` may carry the
    grid's arrays in this direction from ``make_leg``, so a caller that
    integrates many energies on one grid builds them once.  With
    ``check_resolution`` the integration is repeated on the doubled step and
    a log-derivative disagreement above 1e-8 raises ResolutionError.
    """
    if e >= 0:
        raise DomainError("direct integration expects a bound-state energy E < 0")
    if direction not in ("outward", "inward"):
        raise DomainError("direction must be 'outward' or 'inward'")
    outward = direction == "outward"
    if outward and q.k < 3:
        raise DomainError(
            "outward integration on a uniform grid needs k >= 3 "
            "(the origin branch separation is too weak below that)"
        )

    if leg is None:
        leg = make_leg(pot, mass, q, grid.array(), grid.h, outward)
    R, Rp = _integrate_on(leg, pot, mass, q, e)

    if check_resolution:
        # Step-doubling comparison of the log-derivative at an interior,
        # well-conditioned point: near the turning point for outward runs
        # (beyond it the growing branch dominates and the comparison is
        # meaningless), near the start of travel for inward runs.
        coarse = grid.coarsened()
        coarse_leg = make_leg(pot, mass, q, coarse.array(), coarse.h, outward)
        Rc, Rpc = _integrate_on(coarse_leg, pot, mass, q, e)
        if outward:
            i_cmp = _match_index(leg.w0, leg.m2, e)
            i_cmp -= i_cmp % 2
            i_cmp = min(max(i_cmp, 4), grid.points - 5)
        else:
            i_cmp = 4
        ld_f = Rp[i_cmp] / R[i_cmp]
        j = i_cmp // 2
        ld_c = Rpc[j] / Rc[j]
        scale = max(1.0, abs(ld_f))
        if abs(ld_f - ld_c) > 1e-8 * scale:
            raise ResolutionError(
                f"step-doubling log-derivative check failed at r="
                f"{leg.r[i_cmp]:.6g}: |{ld_f:.12g} - {ld_c:.12g}| exceeds "
                f"1e-8 (relative)"
            )
    return R, Rp


def _integrate_on(leg: Leg, pot, mass, q, e):
    r, h, g, s = leg.r, leg.h, leg.g, leg.s
    if leg.outward:
        p = (q.k - 1) / 2.0
        c = _origin_series(pot, mass, q, e)

        def series_val(x: float) -> float:
            acc = 0.0
            for cj in c[::-1]:
                acc = acc * x + cj
            return x**p * acc

        start = (series_val(float(r[0])), series_val(float(r[1])) / s[1])
        y = _numerov(leg.w0 - leg.m2 * e, r, h, start, True)
    else:
        y = _numerov_inward(leg.w0, leg.m2, e, r, h, _inward_start(leg, mass, e))
    return s * y, s * (_derivative_from_grid(y, h) + 0.5 * g * y)


def _match_index(w0: np.ndarray, m2: np.ndarray, e: float) -> int:
    """Grid index of the outermost classical turning point (clamped inside)."""
    w = w0 - m2 * e
    sign_change = np.nonzero(np.diff(np.signbit(w)))[0]
    idx = int(sign_change[-1]) if sign_change.size else w.size // 2
    return min(max(idx, 8), w.size - 9)


def _oracle_legs(pot, mass, q, grid: GridSpec, i_match: int) -> tuple[Leg, Leg]:
    """Outward and inward legs on slices of ``grid`` that overlap i_match by
    four points, enough for a central 4th-order derivative stencil there."""
    r = grid.array()
    return (
        make_leg(pot, mass, q, r[: i_match + 5], grid.h, True),
        make_leg(pot, mass, q, r[i_match - 4 :], grid.h, False),
    )


def _oracle_mismatch(e: float, pot, mass, q, legs: tuple[Leg, Leg]) -> float:
    """Normalized Wronskian of the outward and inward solutions at i_match."""
    R_out, P_out = _integrate_on(legs[0], pot, mass, q, e)
    R_in, P_in = _integrate_on(legs[1], pot, mass, q, e)
    Ro, Po = R_out[-5], P_out[-5]
    Ri, Pi = R_in[4], P_in[4]
    w = Po * Ri - Ro * Pi
    norm = math.hypot(Ro, Po) * math.hypot(Ri, Pi)
    return w / norm if norm > 0 else 0.0


def numerov_eigenvalue(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    bracket: tuple[float, float],
    grid: GridSpec | None = None,
    rtol: float = 1e-12,
    verify_resolution: bool = True,
) -> float:
    """Matching-based eigenvalue from direct integration.

    The bracket must enclose exactly one sign change of the outward/inward
    log-derivative mismatch.  Every mass profile runs on the same Numerov
    scheme through the Liouville substitution (see the module docstring).
    Channels with k < 3 usually raise BracketError: the regular and
    irregular origin branches separate too weakly on a uniform grid.
    """
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0):
        raise DomainError("bracket must satisfy e_lo < e_hi < 0")
    if grid is None:
        grid = default_grid(pot, mass, 0.5 * (e_lo + e_hi))
    w0, m2 = _potential_arrays(pot, mass, q, grid.array())[1:]
    i_match = _match_index(w0, m2, 0.5 * (e_lo + e_hi))
    del w0, m2  # not kept alive beside the legs
    # brentq keeps the function it is given in a reference cycle until the
    # next garbage collection, so the legs go in as arguments, not in a
    # closure that would keep them alive
    args = (pot, mass, q, _oracle_legs(pot, mass, q, grid, i_match))
    f_lo, f_hi = _oracle_mismatch(e_lo, *args), _oracle_mismatch(e_hi, *args)
    if f_lo == 0.0:
        return e_lo
    if f_hi == 0.0:
        return e_hi
    if (f_lo < 0) == (f_hi < 0):
        raise BracketError(
            f"no mismatch sign change in bracket ({e_lo}, {e_hi}): "
            f"f = ({f_lo:.3e}, {f_hi:.3e})"
        )
    root = brentq(
        _oracle_mismatch, e_lo, e_hi, args=args, xtol=abs(e_hi) * 1e-14,
        rtol=rtol, maxiter=200,
    )
    if verify_resolution:
        # Richardson-style estimate: re-solve on the doubled step; for a
        # fourth-order scheme the coarse error is ~16x the fine one, so
        # |fine - coarse| / 15 estimates the fine-grid error.
        coarse = grid.coarsened()
        j_match = min(max(i_match // 2, 8), coarse.points - 9)
        del args  # the fine legs go before the coarse ones are built
        args = (pot, mass, q, _oracle_legs(pot, mass, q, coarse, j_match))
        fc_lo, fc_hi = _oracle_mismatch(e_lo, *args), _oracle_mismatch(e_hi, *args)
        if (fc_lo < 0) != (fc_hi < 0):
            root_c = brentq(
                _oracle_mismatch, e_lo, e_hi, args=args, xtol=abs(e_hi) * 1e-14,
                rtol=rtol, maxiter=200,
            )
            err_est = abs(root - root_c) / 15.0
            if err_est > 1e-8 * abs(root):
                raise ResolutionError(
                    f"eigenvalue error estimate {err_est:.3e} exceeds "
                    f"1e-8 relative at E={root!r}; refine the grid"
                )
    return float(root)
