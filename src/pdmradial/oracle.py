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
types; the eigensolver does borrow ``integrate_radial`` for its inward leg,
so the two share the tail side of the matching.
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
    "integrate_radial",
    "numerov_eigenvalue",
    "outer_turning_radius",
]

_RENORM_LIMIT = 1e250
MIN_GRID_POINTS = 1000
# the inward solve starts a new segment wherever the WKB growth exponent has
# risen by this much (e^300 ~ 1e130, far below the float64 overflow)
_SEGMENT_EXPONENT = 300.0


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
        return _numerov_inward(w_arr, r, h, start)
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
    w_arr: np.ndarray, r: np.ndarray, h: float, start: tuple[float, float]
) -> np.ndarray:
    """Inward Numerov run as float64 banded triangular solves (LAPACK dtbtrs).

    In travel order, z_j = y(r[n-1-j]), the recurrence reads
    c_j z_j - d_{j-1} z_{j-1} + c_{j-2} z_{j-2} = 0: a lower-triangular system
    with two subdiagonals whose column j holds (c_j, -d_j, c_j), with the two
    start values moved to the right-hand side.  The grid is cut beforehand
    wherever the WKB exponent, the integral of sqrt(max(w, 0)) dr, has grown
    by another ``_SEGMENT_EXPONENT``.  Each segment starts from the last two
    values of the previous one scaled to order one, and the earlier samples
    are rescaled by the same factor, so no value approaches overflow.  A
    segment that still gives a non-finite value raises DomainError naming
    the radius.
    """
    n = w_arr.size
    w = w_arr[::-1]
    c, d = _numerov_coefficients(w, h, np.float64)
    ab = np.empty((3, n), order="F")  # column slices stay Fortran-contiguous
    ab[0] = c
    ab[1] = -d
    ab[2] = c
    growth = np.cumsum(np.sqrt(np.maximum(w, 0.0))) * h
    n_marks = int(growth[-1] // _SEGMENT_EXPONENT)
    cuts = np.unique(
        np.searchsorted(growth, _SEGMENT_EXPONENT * np.arange(1, n_marks + 1))
    )
    bounds = [2, *cuts[(cuts > 2) & (cuts < n - 1)].tolist(), n]

    z = np.empty(n)
    z[0], z[1] = start
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z[:lo] /= max(abs(z[lo - 2]), abs(z[lo - 1]))
        rhs = np.zeros((hi - lo, 1))
        rhs[0, 0] = d[lo - 1] * z[lo - 1] - c[lo - 2] * z[lo - 2]
        rhs[1:2, 0] = -c[lo - 1] * z[lo - 1]  # no-op for a one-point segment
        x, info = dtbtrs(ab[:, lo:hi], rhs, uplo="L")
        finite = np.isfinite(x[:, 0])
        if info != 0 or not finite.all():
            bad = lo + (info - 1 if info > 0 else int(np.argmin(finite)))
            raise DomainError(
                f"inward Numerov solve is not finite at r={r[n - 1 - bad]:.6g} "
                f"(h^2 w/12 = {1.0 - c[bad]:.3g}); refine the grid"
            )
        z[lo:hi] = x[:, 0]
    return z[::-1]


def integrate_radial(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    grid: GridSpec,
    direction: str = "outward",
    check_resolution: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the radial equation over ``grid``; returns R and R' arrays.

    Outward runs start from the origin expansion
    R ~ r^((k-1)/2) (1 + c1 r + ... ) evaluated at the first grid points;
    inward runs start from the local decay R'/R = -sqrt(-2 m(r_max) e).  The
    overall scale of the solution is arbitrary.  With ``check_resolution``
    the integration is repeated on the doubled step and a log-derivative
    disagreement above 1e-8 raises ResolutionError.
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

    r = grid.array()
    h = grid.h
    R, Rp = _integrate_on(pot, mass, q, e, r, h, outward)

    if check_resolution:
        # Step-doubling comparison of the log-derivative at an interior,
        # well-conditioned point: near the turning point for outward runs
        # (beyond it the growing branch dominates and the comparison is
        # meaningless), near the start of travel for inward runs.
        coarse = grid.coarsened()
        Rc, Rpc = _integrate_on(pot, mass, q, e, coarse.array(), coarse.h, outward)
        if outward:
            i_cmp = _match_index(pot, mass, q, e, grid)
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
                f"{r[i_cmp]:.6g}: |{ld_f:.12g} - {ld_c:.12g}| exceeds "
                f"1e-8 (relative)"
            )
    return R, Rp


def _integrate_on(pot, mass, q, e, r, h, outward):
    g, w0, m2 = _potential_arrays(pot, mass, q, r)
    # s = exp(int G/2), normalized to 1 where the integration starts
    big_g = npoly.polyval(r, npoly.polyint(npoly.polytrim(mass.logderiv_series)))
    s = np.exp(0.5 * (big_g - (big_g[0] if outward else big_g[-1])))

    if outward:
        p = (q.k - 1) / 2.0
        c = _origin_series(pot, mass, q, e)

        def series_val(x: float) -> float:
            acc = 0.0
            for cj in c[::-1]:
                acc = acc * x + cj
            return x**p * acc

        start = (series_val(float(r[0])), series_val(float(r[1])) / s[1])
    else:
        # R'/R = -kappa at the far end, i.e. y'/y = -kappa - G/2
        kappa = math.sqrt(-2.0 * float(mass.mass_at(r[-1])) * e)
        start = (1.0, math.exp((kappa + 0.5 * g[-1]) * h))

    y = _numerov(w0 - m2 * e, r, h, start, outward)
    return s * y, s * (_derivative_from_grid(y, h) + 0.5 * g * y)


def _match_index(pot, mass, q, e, grid: GridSpec) -> int:
    """Grid index of the outermost classical turning point (clamped inside)."""
    r = grid.array()
    _, w0, m2 = _potential_arrays(pot, mass, q, r)
    w = w0 - m2 * e
    sign_change = np.nonzero(np.diff(np.signbit(w)))[0]
    idx = int(sign_change[-1]) if sign_change.size else grid.points // 2
    return min(max(idx, 8), grid.points - 9)


def _oracle_mismatch(pot, mass, q, e, grid, i_match) -> float:
    """Normalized Wronskian of the outward and inward solutions at i_match."""
    r = grid.array()
    h = grid.h
    # integrate on slices of the full grid so both sides overlap i_match by
    # four points, enough for a central 4th-order derivative stencil there
    R_out, P_out = _integrate_on(pot, mass, q, e, r[: i_match + 5], h, True)
    R_in, P_in = _integrate_on(pot, mass, q, e, r[i_match - 4 :], h, False)
    Ro, Po = R_out[i_match], P_out[i_match]
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
    i_match = _match_index(pot, mass, q, 0.5 * (e_lo + e_hi), grid)

    def f(e):
        return _oracle_mismatch(pot, mass, q, e, grid, i_match)

    f_lo, f_hi = f(e_lo), f(e_hi)
    if f_lo == 0.0:
        return e_lo
    if f_hi == 0.0:
        return e_hi
    if (f_lo < 0) == (f_hi < 0):
        raise BracketError(
            f"no mismatch sign change in bracket ({e_lo}, {e_hi}): "
            f"f = ({f_lo:.3e}, {f_hi:.3e})"
        )
    root = brentq(f, e_lo, e_hi, xtol=abs(e_hi) * 1e-14, rtol=rtol, maxiter=200)
    if verify_resolution:
        # Richardson-style estimate: re-solve on the doubled step; for a
        # fourth-order scheme the coarse error is ~16x the fine one, so
        # |fine - coarse| / 15 estimates the fine-grid error.
        coarse = grid.coarsened()
        j_match = min(max(i_match // 2, 8), coarse.points - 9)

        def fc(e):
            return _oracle_mismatch(pot, mass, q, e, coarse, j_match)

        fc_lo, fc_hi = fc(e_lo), fc(e_hi)
        if (fc_lo < 0) != (fc_hi < 0):
            root_c = brentq(
                fc, e_lo, e_hi, xtol=abs(e_hi) * 1e-14, rtol=rtol, maxiter=200
            )
            err_est = abs(root - root_c) / 15.0
            if err_est > 1e-8 * abs(root):
                raise ResolutionError(
                    f"eigenvalue error estimate {err_est:.3e} exceeds "
                    f"1e-8 relative at E={root!r}; refine the grid"
                )
    return float(root)
