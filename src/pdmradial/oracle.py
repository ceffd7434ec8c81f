"""Brackets for the series energies and an independent check of them: one
Chebyshev collocation spectrum of the radial equation per channel.

With R = r^p y, p = (k-1)/2 and g = m'/m, the radial equation multiplied by
r reads

    r y'' + (2p - g r) y' - (l g + 2 m rV) y = -E (2 m r) y,

where the centrifugal term has cancelled and rV = -v1 r^(1-alpha)
+ v2 r^(1+beta) + v3 r is regular for alpha <= 1.  It is collocated on the
graded map r = r_max s^2 of s in [0, 1], which needs fewer nodes than a
linear map (80 where that took 120); in s, multiplied by 4 r_max s, it reads

    s y_ss + (2k - 3 - 2 g r) y_s - 4 r_max s (l g + 2 m rV) y
        = -E (8 m r_max^2 s^3) y.

The nodes are Chebyshev-Gauss-Lobatto points mapped linearly onto s, with
y(r_max) = 0 (Trefethen, Spectral Methods in MATLAB, 2000, ``cheb.m``).  The
s = 0 node is kept: there the equation is the regularity condition
(2k - 3) y_s(0) = 0, with a zero right-hand side, which selects the regular
branch r^p without any boundary condition at the singular point (Boyd,
Chebyshev and Fourier Spectral Methods, 2001).  That row is eliminated by
its Schur complement, which leaves the pencil A y = E diag(d) y with row
weights d = -8 m r_max^2 s^3; its real eigenvalues are the levels.

``channel_spectrum`` collocates the channel once, at two resolutions.  The
finer one is solved in full: level n places the bracket (its cell) in
which the series path looks for state n, so one spectrum serves every
state of the channel.  The coarser one only checks the levels, and only
one of its eigenvalues is read per level, so it is never solved in full:
on the first check its pencil is built, and shifted inverse iteration at
each checked level (``_nearest_level``) finds the coarse eigenvalue nearest
it.  A solve that checks nothing builds only the finer one.

This module shares no solver code with the series path: it imports only the
domain types and ``tail_radius``, which places r_max.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    BracketError,
    DegenerateChannelError,
    DomainError,
    ResolutionError,
    UnsupportedExponentError,
)
from .model import MassProfile, PotentialSpec, QuantumNumbers
from .tail import tail_radius

__all__ = [
    "ChannelSpectrum",
    "channel_spectra",
    "channel_spectrum",
    "collocation_levels",
    "collocation_pencil",
    "window_tail_radius",
]

# The two (nodes, r_max in tail radii) collocations of every channel.  The
# levels of the finer one are used; the coarser pencil only checks them, by
# inverse iteration at each level, and is built only when a level is checked.
# On the benchmark workloads (seeds 1-3) the 80-node levels of the
# requested states are within 9.1e-13 relative of their references, and the
# 60-node check is within 3.1e-11 of the 80-node levels.
_RESOLUTIONS = ((60, 1.0), (80, 1.25))
# WKB exponent of the tail radius at the window's upper energy: every level
# in the window has decayed by about e^-30 where y(r_max) = 0 is imposed
_TAIL_EXPONENT = 30.0
# largest relative disagreement of the two solves
_SELF_CHECK_RTOL = 1e-8
# an inverse iterate that still turns by more than this (1 - |cos|, an angle
# of about 1.4e-6) in a step has not converged; below it the gap a check
# reports is good to about that angle, relative
_TURN_RTOL = 1e-12
# most solves of one inverse iteration; two converge on every level of the
# benchmark workloads and demos
_INVERSE_STEPS = 4


@lru_cache(maxsize=None)
def _cheb(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and second Chebyshev differentiation matrices and nodes
    x_j = cos(pi j / n), built once per n and read only: every channel
    shares them.

    The second matrix comes entrywise from the first, D2_ij = 2 D_ij (D_ii
    - 1/(x_i - x_j)) off the diagonal and minus the row sum on it (Welfert,
    SIAM J. Numer. Anal. 34, 1997), not from the product D @ D: a BLAS
    product's rounding depends on its thread count, and so would every
    oracle energy.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    np.fill_diagonal(d, 0.0)
    d2 = 2.0 * d * (-d.sum(axis=1)[:, None] - 1.0 / dx)
    np.fill_diagonal(d, -d.sum(axis=1))
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    for a in (d, d2, x):
        a.flags.writeable = False
    return d, d2, x


def collocation_pencil(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    nodes: int,
    r_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The radial equation collocated on ``nodes`` + 1 Chebyshev points of
    s in [0, 1], r = r_max s^2, as a pencil (A, d): A is the operator with
    the s = 0 row eliminated, d = -8 m r_max^2 s^3 the weight of each row,
    and the levels are the real eigenvalues of A y = E diag(d) y.
    DomainError when m(r) underflows or is negative at a node: the weights
    d, which ``collocation_levels`` divides by, would lose every digit or
    their sign."""
    if q.k < 2:
        raise DegenerateChannelError(
            "collocation needs k = N + 2l >= 2 (k = 1 has no regularity row)"
        )
    if pot.alpha >= 2:
        raise UnsupportedExponentError(
            "collocation needs alpha <= 1 (r V must stay regular)"
        )
    d1, d2, x = _cheb(nodes)
    # y(r_max) = 0: drop the node x = 1, which comes first; s = (1 + x)/2
    s, d1, d2 = 0.5 * (1.0 + x[1:]), 2.0 * d1[1:, 1:], 4.0 * d2[1:, 1:]
    r = r_max * s * s
    m = np.asarray(mass.mass_at(r), float)
    bad = np.flatnonzero(m <= np.finfo(float).tiny)
    if bad.size:
        i = bad[-1]  # the radii fall along the grid: the nearest the origin
        raise DomainError(
            f"the mass {'underflows' if m[i] >= 0 else 'is negative'} on the "
            f"collocation grid of r_max={r_max:.6g}: m={m[i]:.6g} at r={r[i]:.6g}"
        )
    g = np.asarray(mass.logderiv_at(r), float)
    rv = pot.v3 * r
    if pot.v1 != 0.0:
        rv = rv - pot.v1 * r ** (1.0 - pot.alpha)
    if pot.v2 != 0.0:
        rv = rv + pot.v2 * r ** (1.0 + pot.beta)
    a = s[:, None] * d2 + (2.0 * q.k - 3.0 - 2.0 * g * r)[:, None] * d1
    a[np.diag_indices_from(a)] -= 4.0 * r_max * s * (q.ell * g + 2.0 * m * rv)
    # the s = 0 row, last, has a zero right-hand side: eliminate its unknown
    # by the Schur complement
    red = a[:-1, :-1] - np.outer(a[:-1, -1], a[-1, :-1] / a[-1, -1])
    return red, -8.0 * r_max * (m * r * s)[:-1]


def collocation_levels(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    nodes: int,
    r_max: float,
) -> np.ndarray:
    """Every real eigenvalue, ascending, of the radial equation collocated
    on ``nodes`` + 1 graded Chebyshev points of [0, r_max]: the standard
    eigenproblem diag(d)^-1 A, scaled by |d|^(1/2) on both sides.

    The scaling is a similarity, so it keeps the eigenvalues, but the
    weights d ~ s^3 span about eleven decades, and the rows divided by them
    alone leave ``eigvals`` errors of up to 2.8e-12 relative on the
    benchmark channels, against 2.9e-13 scaled (the pencil's own
    eigenvalues, by inverse iteration, are the reference)."""
    red, d = collocation_pencil(pot, mass, q, nodes, r_max)
    w = np.sqrt(np.abs(d))
    red *= (np.sign(d) / w)[:, None]
    red /= w
    ev = np.linalg.eigvals(red)
    return np.sort(ev[ev.imag == 0].real)


def _nearest_level(a: np.ndarray, d: np.ndarray, e: float) -> float:
    """The eigenvalue of the pencil A y = E diag(d) y nearest the shift e,
    by shifted inverse iteration (Trefethen and Bau, Numerical Linear
    Algebra, 1997, Lecture 27) on the pencil itself: from a uniform unit x,
    solve (A - e diag(d)) y = d x, take e + 1/(x . y) and x = y / |y|, and
    repeat until the iterate no longer turns.

    An iterate that still turns after ``_INVERSE_STEPS`` solves has not
    converged, and its estimate is inf, so it never passes a check.  A
    shift that makes its matrix exactly singular is an eigenvalue itself."""
    shifted = a.copy()
    # the diagonal as a strided view, several times cheaper than fancy indexing
    shifted.reshape(-1)[:: d.size + 1] -= e * d
    x = np.full(d.size, 1.0 / np.sqrt(d.size))
    try:
        for step in range(_INVERSE_STEPS):
            y = np.linalg.solve(shifted, d * x)
            # elementwise sums, not BLAS dot products: the same bits at
            # every thread count
            proj = float((x * y).sum())
            norm = math.sqrt(float((y * y).sum()))
            x = y / norm
            converged = abs(proj) >= (1.0 - _TURN_RTOL) * norm
            # the first turn measures only how far the uniform start was
            if step and converged:
                return e + 1.0 / proj
    except np.linalg.LinAlgError:
        return e
    return math.inf


@dataclass(frozen=True)
class ChannelSpectrum:
    """The collocation levels of one (N, l) channel for an energy window:
    ``levels`` from the finer solve, ascending, ``coarse_pencil``, a
    function that builds the coarser solve's pencil (A, d), and ``r_turn``,
    the outer turning radius at the window's upper energy, found with r_max
    (the series path places the leg of a state at the window's top with
    it; None when unknown).  Level n has n nodes (Sturm oscillation), so its
    index is the radial quantum number of the state it approximates."""

    window: tuple[float, float]
    levels: np.ndarray
    coarse_pencil: Callable[[], tuple[np.ndarray, np.ndarray]]
    r_turn: float | None = None

    @cached_property
    def _pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """The coarser pencil, built on the first check."""
        return self.coarse_pencil()

    def cell(self, n: int) -> tuple[tuple[float, float], float]:
        """The cell of level n, from the midpoints to its neighbours clipped
        to the window, and the level itself.  BracketError when level n is
        not inside the window."""
        e_lo, e_hi = self.window
        lv = self.levels.tolist()
        if n < len(lv) and e_lo <= lv[n] <= e_hi:
            lo = 0.5 * (lv[n - 1] + lv[n]) if n > 0 else e_lo
            hi = 0.5 * (lv[n] + lv[n + 1]) if n + 1 < len(lv) else e_hi
            return (max(lo, e_lo), min(hi, e_hi)), lv[n]
        where = (f"its collocation level is at E={lv[n]!r}" if n < len(lv)
                 else f"the channel has only {len(lv)} collocation levels")
        raise BracketError(
            f"state n={n} not found in the window ({e_lo}, {e_hi}): {where}"
        )

    def checked(self, e: float) -> float:
        """``e`` once the coarser pencil has an eigenvalue within 1e-8
        relative of it (``_nearest_level``), else ResolutionError, which
        says so when the inverse iteration at ``e`` did not converge."""
        gap = abs(_nearest_level(*self._pencil, e) - e)
        if gap <= _SELF_CHECK_RTOL * abs(e):
            return e
        (n_check, _), (n_fine, _) = _RESOLUTIONS
        if gap == math.inf:
            raise ResolutionError(
                f"the {n_check}-node inverse iteration at E={e!r} did not "
                f"converge after {_INVERSE_STEPS} solves"
            )
        raise ResolutionError(
            f"collocation levels at {n_fine} and {n_check} nodes differ by "
            f"{gap / abs(e):.3e} relative at E={e!r}, above {_SELF_CHECK_RTOL:g}"
        )


def window_tail_radius(
    pot: PotentialSpec, mass: MassProfile, window: tuple[float, float]
) -> tuple[float, float]:
    """The outer turning radius at the window's upper energy and the WKB
    tail radius past it, which places r_max for every channel of the
    window: neither depends on l."""
    return tail_radius(pot, mass, window[1], _TAIL_EXPONENT)


def channel_spectra(
    pot: PotentialSpec,
    mass: MassProfile,
    channels: list[QuantumNumbers],
    window: tuple[float, float],
) -> list[ChannelSpectrum | DomainError]:
    """The collocation solves of each channel of ``channels`` over one
    window, the coarser one deferred to the first check, or in its place
    the DomainError that refuses the channel.  The window's radii are found
    once, for every channel."""
    e_lo, e_hi = window
    if not (e_lo < e_hi < 0):
        raise DomainError("window must satisfy e_lo < e_hi < 0")
    r_turn, r_tail = window_tail_radius(pot, mass, window)
    (n_check, f_check), (n_fine, f_fine) = _RESOLUTIONS
    out: list = []
    for q in channels:
        try:
            levels = collocation_levels(pot, mass, q, n_fine, f_fine * r_tail)
        except DomainError as exc:
            out.append(exc)
            continue
        out.append(ChannelSpectrum(
            (e_lo, e_hi), levels,
            partial(collocation_pencil, pot, mass, q, n_check, f_check * r_tail),
            r_turn,
        ))
    return out


def channel_spectrum(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    window: tuple[float, float],
) -> ChannelSpectrum:
    """The collocation solves of the channel of ``q``: the one-channel case
    of ``channel_spectra``, which a caller solving several channels of one
    window should call instead."""
    (spectrum,) = channel_spectra(pot, mass, [q], window)
    if isinstance(spectrum, Exception):
        raise spectrum
    return spectrum
