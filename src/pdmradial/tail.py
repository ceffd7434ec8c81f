"""The inward tail leg of the series matching: the decaying solution of the
radial equation on [r_match, r_far], from a chain of Chebyshev
boundary-value solves.

The radial equation R'' = G R' + F R carries a first-derivative term
G = m'/m whenever the mass varies.  The Liouville substitution R = s y with
s'/s = G/2 removes it, y'' = (F + G^2/4 - G'/2) y = (w0 - m2 E) y, so one
scheme serves every mass profile (for constant mass s = 1 and the added term
vanishes).

The leg is cut into pieces across each of which the WKB exponent, the
integral of sqrt(max(w, 0)) dr, grows by about ``_PIECE_EXPONENT`` at the
lowest energy of the cell; the cuts do not depend on E, so the solution
stays continuous in E.  Each piece is one Chebyshev collocation solve in
coefficient space (Trefethen, Spectral Methods in MATLAB, 2000; Boyd,
Chebyshev and Fourier Spectral Methods, 2001) with y = 1 at its left end and
y' = rho y at its right end.  The far piece decays as the WKB tail, rho =
-sqrt(w(r_far)); every other piece takes rho from the log-derivative at the
left end of its right neighbour.  Solved from the far end inward, no piece
spans more than e^25 or so, so none loses its far-end sign to rounding, and
the sign of R at r_match is the product of the pieces' signs of y at their
right ends.

The eigensolver calls ``integrate_radial`` once per trial energy;
``tail_radius`` and ``outer_turning_radius`` place the start of the leg in
the classically forbidden tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as npoly

from .errors import DomainError
from .model import MassProfile, PotentialSpec, QuantumNumbers, b_from_energy

__all__ = [
    "Inward",
    "Leg",
    "Piece",
    "integrate_radial",
    "make_leg",
    "outer_turning_radius",
    "tail_radius",
]

# Chebyshev coefficients (and conditions) of each piece's solve.  With Brent
# run to 1e-15, the exp-mass Cornell demo channels (l = 0, 1; n = 0..2) give
# the same energies at 96 and 140, within 1.3e-13 of an independent shooting
# solve; 64 leave up to 3e-10 relative
_NODES = 96
# WKB exponent spanned by one piece, at most e^25 ~ 7e10 of growth
_PIECE_EXPONENT = 25.0
# samples of the exponent integral that places the cuts
_CUT_SAMPLES = 1025
# the geometric grid whose last sign change of V - e brackets the outer
# turning point, read only
_PROBES = np.geomspace(1e-4, 1e7, 500)
_PROBES.flags.writeable = False


def tail_radius(
    pot: PotentialSpec,
    mass: MassProfile,
    e: float,
    target_exponent: float = 14.0,
    r_turn: float | None = None,
) -> float:
    """Radius where the integral of sqrt(2 m (V - e)) past the turning point
    reaches ``target_exponent`` (capped for slowly decaying tails).
    ``r_turn``, when given, is ``outer_turning_radius`` at ``e``, which a
    caller that has it need not have found again."""
    b = b_from_energy(e, mass.m0)
    if r_turn is None:
        r_turn = outer_turning_radius(pot, e)
    r = max(r_turn, 1e-3)
    cap = max(6.0 * r_turn, 40.0 / b)
    # march the radii to the cap in floats, then take the exponent's running
    # sum (sequential, as a loop would add it) in one array evaluation
    radii, steps = [r], []
    while r < cap:
        dr = 0.01 * max(r, 0.1)
        steps.append(dr)
        r += dr
        radii.append(r)
    x = np.asarray(radii[:-1])
    q2 = 2.0 * np.asarray(mass.mass_at(x), float) * (pot.value(x) - e)
    total = np.cumsum(np.sqrt(np.where(q2 > 0, q2, 0.0)) * np.asarray(steps))
    reached = np.flatnonzero(total >= target_exponent)
    return radii[int(reached[0]) + 1] if reached.size else radii[-1]


def outer_turning_radius(pot: PotentialSpec, e: float) -> float:
    """Largest radius where V(r) = e, or 0.0 if V - e never changes sign.

    Found by scanning a geometric grid outward and bisecting the last sign
    change; used to place matching radii and grid ends in the classically
    forbidden tail.
    """
    diff = pot.value(_PROBES) - e
    neg = np.nonzero(diff <= 0)[0]
    if neg.size == 0:
        return 0.0
    last = int(neg[-1])
    if last == _PROBES.size - 1:
        # still classically allowed at the largest probe: no outer turning
        return float(_PROBES[-1])
    lo, hi = float(_PROBES[last]), float(_PROBES[last + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: nothing left to halve
            break
        if pot.value(mid) - e <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _potential_arrays(pot: PotentialSpec, mass: MassProfile, q: QuantumNumbers,
                      r: np.ndarray, dlog: np.ndarray):
    """G = m'/m and the energy-independent parts of w with y'' = w y, where
    R = s y, s'/s = G/2 and R'' = G R' + F R:

        F(r) = -G (N-1)/(2r) + (k-1)(k-3)/(4 r^2) + 2 m (V - e),
        w(r) = F + G^2/4 - G'/2 = w0 - 2 m e,

    with G' from ``dlog``, the series of the derivative of m'/m
    (``_dlog_series``)."""
    k = q.k
    g = np.asarray(mass.logderiv_at(r), float)
    dg = npoly.polyval(r, dlog)
    m = np.asarray(mass.mass_at(r), float)
    v = np.asarray(pot.value(r), float)
    f0 = -g * (q.dim_n - 1) / (2.0 * r) + (k - 1) * (k - 3) / (4.0 * r * r) + 2.0 * m * v
    return g, f0 + (0.25 * g * g - 0.5 * dg), 2.0 * m


def _dlog_series(mass: MassProfile) -> np.ndarray:
    """The series of G', the derivative of m'/m."""
    return npoly.polyder(npoly.polytrim(mass.logderiv_series))


@lru_cache(maxsize=None)
def _operators(n: int):
    """Coefficient-space operators of an n-coefficient Chebyshev series on
    [-1, 1]: the values and second derivatives of T_0 .. T_{n-1} at the n - 2
    interior Gauss-Lobatto points, the values and first derivatives at
    x = -1 and the first derivatives at x = 1 (where every T_k is 1).  Each
    comes from an elementwise recurrence (Clenshaw),
    not a BLAS product, so it does not depend on the thread count."""
    x = np.cos(np.pi * np.arange(1, n - 1) / (n - 1))
    k = np.arange(n, dtype=float)
    alt = (-1.0) ** k
    ops = (
        npcheb.chebvander(x, n - 1),
        npcheb.chebval(x, npcheb.chebder(np.eye(n), 2)).T,
        alt, -alt * k * k, k * k,
    )
    for a in ops:
        a.flags.writeable = False
    return x, ops


@lru_cache(maxsize=None)
def _uniform_vander(points: int, n: int) -> np.ndarray:
    """T_0 .. T_{n-1} at ``points`` uniform points of [-1, 1], read only:
    every caller shares it."""
    vander = npcheb.chebvander(np.linspace(-1.0, 1.0, points), n - 1)
    vander.flags.writeable = False
    return vander


@dataclass(frozen=True)
class Piece:
    """One piece [left, right] of the leg: its collocation rows are
    ``rows0 + e * rows_e`` at energy e, from y'' = (w0 - m2 e) y on the
    interior nodes, and ``scale`` = 2 / (right - left) maps d/dx to d/dr."""

    left: float
    right: float
    scale: float
    rows0: np.ndarray
    rows_e: np.ndarray


@dataclass(frozen=True)
class Leg:
    """Energy-independent parts of the inward solve over [r_match, r_far]:
    the pieces, inner first, G = m'/m at r_match, and w0, m2 at r_far for the
    decay condition there.  Built once per matching geometry, shared by every
    energy."""

    r_match: float
    r_far: float
    pieces: tuple[Piece, ...]
    g_match: float
    w0_far: float
    m2_far: float


@dataclass(frozen=True)
class Inward:
    """The decaying solution at one energy: ``R`` and ``dR`` at r_match, up
    to a common positive factor, and each piece's Chebyshev coefficients of y
    (with y = 1 at the piece's left end) with its ``signs``, the sign of R on
    the piece relative to y, inner piece first."""

    R: float
    dR: float
    coeffs: tuple[np.ndarray, ...]
    signs: tuple[float, ...]

    def samples(self, per_piece: int) -> np.ndarray:
        """Values with the signs of R at ``per_piece`` uniform points of
        each piece, r_match itself left out (their magnitudes are on each
        piece's own scale), from one product with a cached Chebyshev matrix
        of the points.  Callers read only the signs: the product's rounding
        may follow the BLAS, which only a value at rounding level could show."""
        coeffs = np.stack(self.coeffs)
        values = coeffs @ _uniform_vander(per_piece, coeffs.shape[1]).T
        return (values * np.array(self.signs)[:, None]).ravel()[1:]


def _cuts(pot, mass, q, r_match: float, r_far: float, e_ref: float, dlog) -> np.ndarray:
    """Radii from r_match to r_far, cut where the WKB exponent at ``e_ref``
    has grown by equal shares of at most ``_PIECE_EXPONENT``."""
    r = np.linspace(r_match, r_far, _CUT_SAMPLES)
    _, w0, m2 = _potential_arrays(pot, mass, q, r, dlog)
    k = np.sqrt(np.maximum(w0 - m2 * e_ref, 0.0))
    growth = np.concatenate(([0.0], np.cumsum(0.5 * (k[1:] + k[:-1]) * np.diff(r))))
    pieces = max(1, math.ceil(growth[-1] / _PIECE_EXPONENT))
    marks = growth[-1] * np.arange(1, pieces) / pieces
    return np.concatenate(([r_match], np.interp(marks, growth, r), [r_far]))


def make_leg(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    r_match: float,
    r_far: float,
    e_ref: float,
) -> Leg:
    """The pieces of the inward solve over [r_match, r_far], cut by the WKB
    exponent at ``e_ref`` (the lowest energy it will be solved at, where the
    tail decays fastest)."""
    if r_match <= 0:
        raise DomainError("r_match must be positive (the origin is singular)")
    if r_far <= r_match:
        raise DomainError("r_far must exceed r_match")
    x, (val, d2, *_) = _operators(_NODES)
    dlog = _dlog_series(mass)
    cuts = _cuts(pot, mass, q, r_match, r_far, e_ref, dlog)
    pieces = []
    for left, right in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        scale = 2.0 / (right - left)
        r = left + (x + 1.0) / scale
        _, w0, m2 = _potential_arrays(pot, mass, q, r, dlog)
        pieces.append(Piece(left, right, scale,
                            scale * scale * d2 - w0[:, None] * val,
                            m2[:, None] * val))
    g, w0, m2 = _potential_arrays(pot, mass, q, np.array([r_match, r_far]), dlog)
    return Leg(float(r_match), float(r_far), tuple(pieces), float(g[0]),
               float(w0[1]), float(m2[1]))


def integrate_radial(leg: Leg, e: float) -> Inward:
    """The decaying solution of the radial equation over ``leg`` at energy
    ``e``, solved piece by piece from the far end inward.  DomainError when
    r_far is not in the classically forbidden tail at ``e``."""
    w_far = leg.w0_far - leg.m2_far * e
    if not w_far > 0:
        raise DomainError(
            f"the inward leg's far end r={leg.r_far:.6g} is not in the "
            f"forbidden tail at E={e!r} (w = {w_far:.3g})"
        )
    _, (_, _, t_left, dt_left, dt_right) = _operators(_NODES)
    rhs = np.zeros(_NODES)
    rhs[0] = 1.0
    a = np.empty((_NODES, _NODES))
    rho, sign = -math.sqrt(w_far), 1.0
    coeffs, signs = [], []
    for piece in reversed(leg.pieces):
        a[0] = t_left
        np.add(piece.rows0, e * piece.rows_e, out=a[1:-1])
        a[-1] = piece.scale * dt_right - rho
        c = np.linalg.solve(a, rhs)
        sign *= math.copysign(1.0, float(c.sum()))  # y(right) = sum of c
        rho = piece.scale * float(dt_left @ c)
        coeffs.append(c)
        signs.append(sign)
    return Inward(sign, sign * (rho + 0.5 * leg.g_match),
                  tuple(reversed(coeffs)), tuple(reversed(signs)))
