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

``place_legs`` owns the matching geometry: it places every leg of a config
in one pass, r_match from the state's cell, r_far in the forbidden tail past
the outer turning radius (``outer_turning_radii``) and the tail radius
(``tail_radius``'s march), and cuts every leg at once (``leg_cuts``).  The
eigensolver builds one state's leg from its cuts (``make_leg``, every piece
in one stacked pass, kept as a row of each of the leg's arrays) right before
that state's search, calls ``integrate_radial`` once per trial energy, and
``Inward.norm2`` once for the root, whose eigenfunction past r_match is this
leg (``leg_values``); ``leg_samples`` gives the signs its nodes are counted
on, for every root of a config at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import DomainError
from .model import MassProfile, PotentialSpec, QuantumNumbers, b_from_energy
from .model import _gauss_legendre

__all__ = [
    "Inward",
    "Leg",
    "integrate_radial",
    "leg_cuts",
    "leg_samples",
    "leg_values",
    "make_leg",
    "outer_turning_radii",
    "place_legs",
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
# WKB exponent of a leg's far end past the outer turning point
_TAIL_EXPONENT = 14.0
# decay lengths 1/b from the match radius to the far end, at least
_TAIL_LENGTHS = 10.0
# the geometric grid whose last sign change of V - e brackets the outer
# turning point, read only
_PROBES = np.geomspace(1e-4, 1e7, 500)
_PROBES.flags.writeable = False


def tail_radius(
    pot: PotentialSpec,
    mass: MassProfile,
    e: float,
    target_exponent: float = _TAIL_EXPONENT,
) -> float:
    """The radius past the outer turning radius at ``e`` where the integral
    of sqrt(2 m (V - e)) reaches ``target_exponent`` (capped for slowly
    decaying tails): the one-energy case of ``_tail_radii``."""
    r_turns = outer_turning_radii(pot, [e])
    return _tail_radii(pot, mass, [e], r_turns, target_exponent)[0]


def _tail_radii(
    pot: PotentialSpec,
    mass: MassProfile,
    energies: list[float],
    r_turns: list[float],
    target_exponent: float = _TAIL_EXPONENT,
) -> list[float]:
    """``tail_radius`` at each energy, from its outer turning radius.  Each
    march to its cap runs on Python floats, in steps of 0.01 max(r, 0.1);
    the steps and the exponent at every march radius of every energy come
    from one stacked evaluation, elementwise, and each energy's running sum
    is taken over its own slice (sequential, as a loop would add it)."""
    marches, x, de = [], [], []
    for e, r_turn in zip(energies, r_turns):
        b = b_from_energy(e, mass.m0)
        r = max(r_turn, 1e-3)
        cap = max(6.0 * r_turn, 40.0 / b)
        radii = [r]
        while r < cap:
            r += 0.01 * (0.1 if 0.1 > r else r)  # max(r, 0.1) without the call
            radii.append(r)
        x += radii[:-1]
        de += [e] * (len(radii) - 1)
        marches.append(radii)
    x = np.asarray(x, float)
    q2 = 2.0 * np.asarray(mass.mass_at(x), float) * (pot.value(x) - np.asarray(de, float))
    terms = np.sqrt(np.where(q2 > 0, q2, 0.0)) * (0.01 * np.maximum(x, 0.1))
    out, start = [], 0
    for radii in marches:
        stop = start + len(radii) - 1
        reached = np.flatnonzero(np.cumsum(terms[start:stop]) >= target_exponent)
        out.append(radii[int(reached[0]) + 1] if reached.size else radii[-1])
        start = stop
    return out


def outer_turning_radii(pot: PotentialSpec, energies: list[float]) -> list[float]:
    """The largest radius where V(r) = e at each energy, or 0.0 where V - e
    never changes sign: V on a geometric grid once, then each energy's last
    sign change of V - e bisected on Python floats.  Used to place the
    legs' far ends and the collocation grid's end in the classically
    forbidden tail."""
    if not energies:
        return []
    v = pot.value(_PROBES)
    return [_turning_radius(pot, e, v - e) for e in energies]


def _turning_radius(pot: PotentialSpec, e: float, diff: np.ndarray) -> float:
    """The outer turning radius at ``e``, with V - e on the probes given."""
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


def _potential_arrays(pot: PotentialSpec, mass: MassProfile, dim_n, k, r: np.ndarray):
    """G = m'/m and the energy-independent parts of w with y'' = w y, where
    R = s y, s'/s = G/2 and R'' = G R' + F R:

        F(r) = -G (N-1)/(2r) + (k-1)(k-3)/(4 r^2) + 2 m (V - e),
        w(r) = F + G^2/4 - G'/2 = w0 - 2 m e,

    with N = ``dim_n`` and k, numbers or columns broadcasting against r."""
    m, g, dg = mass.terms_at(r)
    v = np.asarray(pot.value(r), float)
    f0 = -g * (dim_n - 1) / (2.0 * r) + (k - 1) * (k - 3) / (4.0 * r * r) + 2.0 * m * v
    return g, f0 + (0.25 * g * g - 0.5 * dg), 2.0 * m


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


@lru_cache(maxsize=None)
def _gauss_vander(n: int) -> np.ndarray:
    """T_0 .. T_{n-1} at the n Gauss-Legendre nodes of [-1, 1], read only."""
    t, _ = _gauss_legendre(n)
    vander = npcheb.chebvander(2.0 * t - 1.0, n - 1)
    vander.flags.writeable = False
    return vander


@dataclass(frozen=True, eq=False)
class Leg:
    """Energy-independent parts of the inward solve over [r_match, r_far],
    a row per piece, inner piece first: ``cuts`` from r_match to r_far, and
    on each piece ``scale`` = 2 / (right - left), which maps d/dx to d/dr,
    the collocation rows ``rows0 + e * rows_e`` at energy e from
    y'' = (w0 - m2 e) y on the interior nodes, shape (pieces, n - 2, n), and
    ``weights``, which integrate s^2 y^2 = R^2 over the piece from y at its
    Gauss-Legendre nodes, with s^2 = m / m(r_match).  Then G = m'/m at
    r_match, w0, m2 at r_far for the decay condition there, and the mass.
    Built once per matching geometry, shared by every energy."""

    cuts: np.ndarray
    scale: np.ndarray
    rows0: np.ndarray
    rows_e: np.ndarray
    weights: np.ndarray
    g_match: float
    w0_far: float
    m2_far: float
    mass: MassProfile


@dataclass(frozen=True, eq=False)
class Inward:
    """The decaying solution at one energy: ``R`` and ``dR`` at r_match, up
    to a common positive factor, and a row per piece, inner piece first, of
    its Chebyshev coefficients of y (with y = 1 at the piece's left end),
    ``coeffs``, with its ``signs``, the sign of R on the piece relative to
    y.  ``edges`` are the leg's cuts, and the mass's s = sqrt(m / m(r_match))
    turns y into R: with them ``leg_values`` evaluates R, and a result that
    keeps the solution does not keep the leg's operators."""

    R: float
    dR: float
    coeffs: np.ndarray
    signs: np.ndarray
    edges: np.ndarray
    mass: MassProfile

    def norm2(self, leg: Leg) -> float:
        """The integral of R^2 over ``leg``, the leg solved on, with
        R(r_match) = 1: each piece's y (1 at its left end) times the right-end
        values y(1) = sum(c) of the pieces nearer r_match.  Past r_far R^2 has
        fallen by e^-28 or more.  No BLAS product: the bits do not follow the
        thread count."""
        vander = _gauss_vander(_NODES)
        total, amp2 = 0.0, 1.0
        for weights, c in zip(leg.weights, self.coeffs):
            y = (vander * c).sum(axis=1)
            total += amp2 * float((weights * (y * y)).sum())
            amp2 *= float(c.sum()) ** 2
        return total


def leg_samples(inwards: list[Inward], per_piece: int) -> list[np.ndarray]:
    """Values with the signs of R at ``per_piece`` uniform points of each
    piece of each inward solution, r_match itself left out (their
    magnitudes are on each piece's own scale), every piece of every one a
    row of one product with a cached Chebyshev matrix of the points.
    Callers read only the signs: the product's rounding may follow the BLAS
    and the rows stacked with it, which only a value at rounding level
    could show."""
    if not inwards:
        return []
    coeffs = np.concatenate([inward.coeffs for inward in inwards])
    values = coeffs @ _uniform_vander(per_piece, coeffs.shape[1]).T
    values *= np.concatenate([inward.signs for inward in inwards])[:, None]
    ends = np.cumsum([len(inward.coeffs) for inward in inwards])[:-1]
    return [rows.ravel()[1:] for rows in np.split(values, ends)]


def leg_values(states: list[tuple[Inward, np.ndarray]]) -> list[np.ndarray]:
    """R at radii r >= r_match of each (inward, r), with R(r_match) =
    ``inward.R``: s y on each piece times the right-end values y(1) = sum(c)
    of the pieces nearer r_match, as in ``Inward.norm2``, and 0 past r_far.
    One elementwise Clenshaw pass serves every radius, with no BLAS product:
    the bits do not follow the thread count."""
    outs, parts, xs = [], [], []
    for inward, r in states:
        outs.append(np.zeros(r.shape))
        edges, mass, amp = inward.edges, inward.mass, inward.R
        m_match = mass.mass_at(edges[0])
        for left, right, c in zip(edges[:-1], edges[1:], inward.coeffs):
            inside = np.flatnonzero((r >= left) & (r <= right))
            s = np.sqrt(np.asarray(mass.mass_at(r[inside]), float) / m_match)
            parts.append((outs[-1], inside, amp * s, c))
            xs.append(2.0 / (right - left) * (r[inside] - left) - 1.0)
            amp *= float(c.sum())
    if not parts:
        return outs
    sizes = [x.size for x in xs]
    x2 = 2.0 * np.concatenate(xs)
    rows = np.stack([c for *_, c in parts]).T  # row k: every piece's c_k
    which = np.repeat(np.arange(len(parts)), sizes)
    b1 = b2 = np.zeros(x2.size)
    for ck in rows[:0:-1]:
        b1, b2 = ck[which] + x2 * b1 - b2, b1
    y = rows[0][which] + 0.5 * x2 * b1 - b2
    for (out, inside, scale, _), yi in zip(parts, np.split(y, np.cumsum(sizes)[:-1])):
        out[inside] = scale * yi
    return outs


def leg_cuts(
    pot: PotentialSpec,
    mass: MassProfile,
    legs: list[tuple[QuantumNumbers, float, float, float]],
) -> list[np.ndarray | DomainError]:
    """For each leg (q, r_match, r_far, e_ref), the radii from r_match to
    r_far that cut it where the WKB exponent at ``e_ref`` (the lowest energy
    it will be solved at, where the tail decays fastest) has grown by equal
    shares of at most ``_PIECE_EXPONENT``, or in its place the DomainError
    that refuses the leg.  Every leg's exponent samples come from one
    stacked evaluation, elementwise, and each leg's running sum is its own
    row's: a leg's cuts do not depend on the others."""
    out: list = [None] * len(legs)
    kept = []
    for i, (q, r_match, r_far, e_ref) in enumerate(legs):
        if r_match <= 0:
            out[i] = DomainError("r_match must be positive (the origin is singular)")
        elif r_far <= r_match:
            out[i] = DomainError("r_far must exceed r_match")
        else:
            kept.append(i)
    if not kept:
        return out
    qs, starts, ends, e_refs = zip(*(legs[i] for i in kept))
    dim_n = np.array([[q.dim_n] for q in qs], float)
    k = np.array([[q.k] for q in qs], float)
    r = np.linspace(starts, ends, _CUT_SAMPLES, axis=1)
    _, w0, m2 = _potential_arrays(pot, mass, dim_n, k, r)
    wkb = np.sqrt(np.maximum(w0 - m2 * np.array(e_refs, float)[:, None], 0.0))
    grown = np.cumsum(0.5 * (wkb[:, 1:] + wkb[:, :-1]) * np.diff(r, axis=1), axis=1)
    for i, row, radii, start, end in zip(kept, grown, r, starts, ends):
        growth = np.concatenate(([0.0], row))
        pieces = max(1, math.ceil(growth[-1] / _PIECE_EXPONENT))
        marks = growth[-1] * np.arange(1, pieces) / pieces
        out[i] = np.concatenate(([start], np.interp(marks, growth, radii), [end]))
    return out


def place_legs(
    pot: PotentialSpec,
    mass: MassProfile,
    cells: list[tuple[QuantumNumbers, tuple[float, float]]],
) -> list[np.ndarray | DomainError]:
    """The matching geometry of each (q, cell) state, the cuts of its leg
    (``leg_cuts``) from r_match to r_far, or in its place the DomainError
    that refuses it.  With b at the midpoint of the cell (e_lo, e_hi),
    r_match = 1.5/b; r_far, which must sit in the forbidden tail, is the
    farthest of ``_TAIL_LENGTHS`` decay lengths past r_match and 1.2 times
    the outer turning radius and the tail radius, both at e_hi; the leg is
    cut at e_lo.  The geometry is fixed, so the mismatch stays continuous in
    E; its zeros do not depend on these choices.  A cell where b overflows
    at the midpoint is refused.

    Every state of a config is placed in one pass: each distinct upper
    energy's turning point and tail radius are found once, and every
    state's cuts come from one stacked, elementwise evaluation with each
    state's running sums its own, so a state's geometry does not depend on
    the others."""
    out: list = [None] * len(cells)
    kept = []
    for i, (q, (e_lo, e_hi)) in enumerate(cells):
        e_mid = 0.5 * (e_lo + e_hi)
        b_mid = b_from_energy(e_mid, mass.m0)
        if math.isfinite(b_mid):
            kept.append((i, q, b_mid, e_lo, e_hi))
        else:
            out[i] = DomainError(
                f"the decay rate b = sqrt(-2 m0 E) overflows at E={e_mid}, "
                f"the midpoint of the cell ({e_lo}, {e_hi})"
            )
    tops = list(dict.fromkeys(e_hi for *_, e_hi in kept))
    r_turns = outer_turning_radii(pot, tops)
    radii = dict(zip(tops, zip(r_turns, _tail_radii(pot, mass, tops, r_turns))))
    legs = []
    for _, q, b_mid, e_lo, e_hi in kept:
        r_turn, r_tail = radii[e_hi]
        r_match = 1.5 / b_mid
        r_far = max(r_match + _TAIL_LENGTHS / b_mid, 1.2 * r_turn, r_tail)
        legs.append((q, r_match, r_far, e_lo))
    for (i, *_), cuts in zip(kept, leg_cuts(pot, mass, legs)):
        out[i] = cuts
    return out


def make_leg(pot: PotentialSpec, mass: MassProfile, q: QuantumNumbers,
             cuts: np.ndarray) -> Leg:
    """The pieces of the inward solve over [r_match, r_far], one between
    each pair of neighbouring ``cuts`` (``leg_cuts``, r_match first and
    r_far last), every piece in one stacked pass."""
    x, (val, d2, *_) = _operators(_NODES)
    t, w = _gauss_legendre(_NODES)
    r_match, r_far = float(cuts[0]), float(cuts[-1])
    m_match = mass.mass_at(r_match)
    # every piece at once, a row each: its interior nodes, then r_match and
    # r_far, in one pass; elementwise, so each value has its own bits
    left, right = cuts[:-1, None], cuts[1:, None]
    scale = 2.0 / (right - left)
    r = left + (x + 1.0) / scale
    g, w0, m2 = _potential_arrays(pot, mass, q.dim_n, q.k, np.append(r, [r_match, r_far]))
    s2 = np.asarray(mass.mass_at(left + (right - left) * t), float) / m_match
    w0_nodes, m2_nodes = (a[:-2].reshape(r.shape)[:, :, None] for a in (w0, m2))
    rows0 = (scale * scale)[:, :, None] * d2 - w0_nodes * val
    rows_e = m2_nodes * val
    weights = (right - left) * w * s2
    return Leg(cuts, scale[:, 0], rows0, rows_e, weights,
               float(g[-2]), float(w0[-1]), float(m2[-1]), mass)


def integrate_radial(leg: Leg, e: float) -> Inward:
    """The decaying solution of the radial equation over ``leg`` at energy
    ``e``, solved piece by piece from the far end inward.  DomainError when
    r_far is not in the classically forbidden tail at ``e``."""
    w_far = leg.w0_far - leg.m2_far * e
    if not w_far > 0:
        raise DomainError(
            f"the inward leg's far end r={leg.cuts[-1]:.6g} is not in the "
            f"forbidden tail at E={e!r} (w = {w_far:.3g})"
        )
    _, (_, _, t_left, dt_left, dt_right) = _operators(_NODES)
    rhs = np.zeros(_NODES)
    rhs[0] = 1.0
    a = np.empty((_NODES, _NODES))
    rho, sign = -math.sqrt(w_far), 1.0
    coeffs, signs = np.empty(leg.weights.shape), np.empty(len(leg.scale))
    for i in reversed(range(len(leg.scale))):
        scale = float(leg.scale[i])
        a[0] = t_left
        np.add(leg.rows0[i], e * leg.rows_e[i], out=a[1:-1])
        a[-1] = scale * dt_right - rho
        coeffs[i] = c = np.linalg.solve(a, rhs)
        sign *= math.copysign(1.0, float(c.sum()))  # y(right) = sum of c
        signs[i] = sign
        rho = scale * float(dt_left @ c)
    return Inward(sign, sign * (rho + 0.5 * leg.g_match), coeffs, signs, leg.cuts, leg.mass)
