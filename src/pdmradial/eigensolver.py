"""Bound-state energies from the series solution by tail matching.

At a trial energy the origin side is represented by the generated power
series and the infinity side by the decaying solution of the tail leg
(``tail.integrate_radial``), a chain of Chebyshev solves from r_far inward.
The two are compared at a match radius through the normalized Wronskian

    w(E) = (R_s' R_i - R_s R_i') / (|(R_s, R_s')| |(R_i, R_i')|),

which has the same zeros as the log-derivative difference but no poles:
it vanishes exactly when the two directions align, changes sign across every
eigenvalue and stays bounded in between.

The brackets come from the channel's collocation spectrum
(``oracle.channel_spectrum``): state n is sought in the cell of level n,
between the midpoints to its neighbours.  Brent iteration runs first on
E_n +- 1e-9 |E_n| inside the cell and on the whole cell only when that
narrow bracket shows no sign change or does not converge
(``search_root``), on the leg that ``place_legs`` placed for every state
of a config in one pass.  On the narrow bracket Brent returns its current
point once its next step points into the bracket and is shorter than half
its tolerance, without the evaluation that would confirm it, so a state
found there costs three mismatches: the bracket's ends and one step.  The
node count of the converged state is verified, and its norm taken, on one
eigenfunction, the series on (0, r_match] and the inward leg beyond, which
the result carries; ``finish`` does this for a list of roots at once, every state of a config
in one pass, and ``find_eigenvalue`` is its one-state case."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, tail
from .errors import BracketError, DomainError, ResolutionError, WrongStateError
from .model import (
    EigenResult,
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    SeriesSolution,
    _horner,
    b_from_energy,
)
from .recurrence import _stopped_series
from .wavefunction import node_counts, norms2, sign_changes

__all__ = [
    "Root",
    "SolverConfig",
    "brentq",
    "find_eigenvalue",
    "finish",
    "place_legs",
    "search_root",
]

# The ansatz b = sqrt(-2 m0 E) degenerates as E -> 0-.
_E_FLOOR = 1e-12

# half-width of the first Brent bracket around a collocation level, relative
_NARROW = 1e-9

# decay lengths 1/b from the match radius to the inward start, at least
_TAIL_LENGTHS = 10.0

# samples per piece of the inward solution when its nodes are counted
_NODE_SAMPLES = 2048

# Brent's relative energy tolerance and iteration limit
_TOL_E = 1e-13
_MAX_ITER = 200


def brentq(f, xa, xb, args=(), xtol=2e-12, rtol=8.881784197001252e-16,
           maxiter=100, *, accept_short_step=False):
    """Root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Follows scipy.optimize.brentq (its C routine in ``zeros.c``) operation
    for operation, so it evaluates f at the same points and returns the same
    root bit for bit.  ValueError when f(xa) and f(xb) have the same sign or
    an evaluation is NaN; RuntimeError after ``maxiter`` iterations.  The
    tolerances are not checked: scipy requires xtol > 0 and rtol >= 4 eps.

    ``accept_short_step`` is the one departure from scipy, off by default.
    When it is on, and the interpolation or extrapolation step ``stry``
    from the current point x points into the bracket and is shorter than
    delta/2, delta = (xtol + rtol |x|)/2 being Brent's tolerance, x is
    returned at once.  scipy would take a step of delta instead, in the
    same direction, and land farther past the predicted root x + stry than
    x lies before it: its own model predicts a sign change there with a
    larger |f|, after which scipy returns x.  The rule saves that
    confirming evaluation; wherever the model holds that far, the root is
    scipy's and the evaluations are scipy's without the last.
    """

    def call(x):
        fx = float(f(x, *args))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if accept_short_step and 2 * abs(stry) < delta and stry * sbis > 0:
                return xcur
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"failed to converge after {maxiter} iterations, value is {xcur}"
    )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the matching eigensolver.

    ``e_bracket`` is the energy window in which states are sought.  The
    match radius is 1.5/b at the midpoint of the state's cell.  The series
    stops where its terms at r_match are negligible; ``truncation_order``
    caps it, and the root's series must stop below the cap.  It is also
    the length of the coefficient dump.
    The inward integration starts at r_far, the farthest of ten decay
    lengths 1/b past the match radius, and 1.2 times the outer turning
    radius and the tail radius (``tail.tail_radius``), both at the cell's
    upper energy (``place_legs``).
    """

    e_bracket: tuple[float, float]
    truncation_order: int = 64
    run_oracle: bool = False

    def __post_init__(self):
        # every message starts with the name of the offending field
        e_lo, e_hi = self.e_bracket
        for name, ok, need in (
            ("e_lo/e_hi", e_lo < e_hi < 0, "ordered as e_lo < e_hi < 0"),
            ("e_hi", abs(e_hi) >= _E_FLOOR,
             f"below -{_E_FLOOR}: the decay-rate ansatz breaks down near E = 0"),
            ("truncation_order", self.truncation_order >= 4, "at least 4"),
        ):
            if not ok:
                raise DomainError(f"{name}: must be {need}")


def place_legs(
    pot: PotentialSpec,
    mass: MassProfile,
    states: list[tuple[QuantumNumbers, oracle.ChannelSpectrum]],
) -> list[np.ndarray | Exception]:
    """The fixed matching geometry of each (q, spectrum) state, the cuts of
    its inward leg (``tail.leg_cuts``) from r_match = 1.5/b at the midpoint
    of the cell of level q.radial_n to r_far, or in its place the error
    that refuses it: BracketError when the level lies outside the window,
    DomainError when the leg leaves its domain.  The geometry is fixed, so
    the mismatch stays continuous in E; its zeros do not depend on these
    choices.

    The inward start must sit in the forbidden tail: ``_TAIL_LENGTHS`` decay
    lengths out and past the outer turning point and the tail radius of the
    cell's upper energy; the leg is cut into pieces at its lower one.  Every
    state of a config is placed in one pass: each distinct upper energy's
    turning point is searched once, and not at all at a window's top, which
    its spectrum carries; every state's tail radius and cuts come from
    stacked, elementwise evaluations with each state's running sums its
    own, so a state's geometry does not depend on the others."""
    out: list = [None] * len(states)
    cells, turns = [], {}
    for i, (q, spectrum) in enumerate(states):
        try:
            cell, _ = spectrum.cell(q.radial_n)
        except BracketError as exc:
            out[i] = exc
            continue
        cells.append((i, q, cell))
        if spectrum.r_turn is not None:
            turns[spectrum.window[1]] = spectrum.r_turn
    tops = [e_hi for _, _, (_, e_hi) in cells]
    missing = [e for e in dict.fromkeys(tops) if e not in turns]
    turns.update(zip(missing, tail.outer_turning_radii(pot, missing)))
    r_turns = [turns[e] for e in tops]
    legs = []
    for (_, q, (e_lo, e_hi)), r_turn, r_tail in zip(
            cells, r_turns, tail._tail_radii(pot, mass, tops, r_turns)):
        b_mid = b_from_energy(0.5 * (e_lo + e_hi), mass.m0)
        r_match = 1.5 / b_mid
        r_far = max(r_match + _TAIL_LENGTHS / b_mid, 1.2 * r_turn, r_tail)
        legs.append((q, r_match, r_far, e_lo))
    for (i, *_), cuts in zip(cells, tail.leg_cuts(pot, mass, legs)):
        out[i] = cuts
    return out


def _series_direction(
    sol, q: QuantumNumbers, r: float
) -> tuple[float, float]:
    """(R, R') direction of the series solution at r, up to a positive factor."""
    u, up = _horner(sol.coeffs, math.ldexp(r, -sol.x_exp), derivs=1)
    p = (q.k - 1) / 2.0
    g = p / r - sol.b
    return u, math.ldexp(up, -sol.x_exp) + g * u


def _mismatch(
    e: float,
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    cfg: SolverConfig,
    geom: tail.Leg,
):
    """Normalized Wronskian of the series stopped for r_match and the inward
    solution there, returned with both."""
    sol = _stopped_series(pot, mass, q, e, cfg.truncation_order, geom.r_match)
    us, dus = _series_direction(sol, q, geom.r_match)
    inward = tail.integrate_radial(geom, e)
    w = dus * inward.R - us * inward.dR
    norm = math.hypot(us, dus) * math.hypot(inward.R, inward.dR)
    value = w / norm if norm > 0 else 0.0
    return value, sol, inward


def _recorded_mismatch(e: float, evaluated: dict, *args) -> float:
    """``_mismatch`` for brentq, keeping each evaluation's series and inward
    solution under its energy."""
    evaluated[e] = out = _mismatch(e, *args)
    return out[0]


@dataclass(frozen=True)
class Root:
    """One state's converged energy before its checks: the state, the
    settings and channel spectrum it was sought with, its collocation
    ``level``, the match radius, and Brent's evaluation at the root, its
    |mismatch| ``residual``, its series, its inward solution and that
    solution's ``Inward.norm2`` over its leg.  The leg is not kept: its
    stacked pieces would be held for every state of a config until the
    config is finished."""

    q: QuantumNumbers
    cfg: SolverConfig
    spectrum: oracle.ChannelSpectrum
    level: float
    r_match: float
    energy: float
    residual: float
    solution: SeriesSolution
    inward: tail.Inward
    inward_norm2: float


def search_root(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    cfg: SolverConfig,
    spectrum: oracle.ChannelSpectrum,
    cuts: np.ndarray,
) -> Root:
    """The root of the mismatch for state q.radial_n in the cell of its
    collocation level, unchecked (``finish`` checks it).

    ``spectrum`` is the channel's collocation spectrum over the window
    cfg.e_bracket, and ``cuts`` the state's geometry from ``place_legs``,
    which places every state of a config in one pass.  The leg is built
    from the cuts here, and not kept past the search.  On the narrow
    bracket Brent accepts a step shorter than half its tolerance without
    the confirming evaluation (``brentq``'s ``accept_short_step``), so a
    state found there costs three mismatches; on the cell it runs as scipy.
    BracketError when level q.radial_n lies outside the window, the
    mismatch has no sign change in its cell, or Brent's method needs more
    than _MAX_ITER iterations on it; DomainError when the geometry or a
    trial energy leaves its domain (r_far not in the forbidden tail).
    """
    cell, e_c = spectrum.cell(q.radial_n)
    geom = tail.make_leg(pot, mass, q, cuts)

    args = (pot, mass, q, cfg, geom)
    evaluated: dict = {}
    half = _NARROW * abs(e_c)
    narrow = (max(cell[0], e_c - half), min(cell[1], e_c + half))
    for e_lo, e_hi in (narrow, cell):
        try:
            e_star = brentq(
                _recorded_mismatch,
                e_lo,
                e_hi,
                args=(evaluated, *args),
                xtol=abs(e_hi) * 1e-14,
                rtol=_TOL_E,
                maxiter=_MAX_ITER,
                accept_short_step=(e_lo, e_hi) != cell,
            )
            break
        except DomainError:
            raise
        except ValueError:  # no sign change between the ends, or a NaN
            continue
        except RuntimeError:  # brentq's iteration limit: the cell is next
            if (e_lo, e_hi) == cell:
                raise BracketError(
                    f"Brent's method did not converge in {_MAX_ITER} "
                    f"iterations on the cell ({e_lo}, {e_hi}) of level "
                    f"{q.radial_n} at E={e_c!r}"
                ) from None
    else:
        # Brent evaluated the cell's ends, the second unless the first was NaN
        f_lo, f_hi = (evaluated[e][0] if e in evaluated else _mismatch(e, *args)[0]
                      for e in cell)
        raise BracketError(
            f"mismatch does not change sign on the cell ({e_lo}, {e_hi}) of "
            f"level {q.radial_n} at E={e_c!r}: ({f_lo:.3e}, {f_hi:.3e})"
        )

    # brentq returns an energy it has evaluated: that evaluation holds the
    # converged state's inward solution and its series
    residual, sol, inward = evaluated[e_star]
    return Root(q, cfg, spectrum, e_c, geom.r_match, e_star, abs(residual), sol,
                inward, inward.norm2(geom))


def finish(roots: list[Root]) -> list[EigenResult | Exception]:
    """Each root's ``EigenResult``, or the error that refuses it, in order:
    DomainError when its series has not stopped, its terms at r_match
    negligible, before cfg.truncation_order; WrongStateError when its node
    count differs from q.radial_n; DomainError when its norm integral is
    not finite, or when the oracle's coarser pencil cannot be built (its
    ResolutionError is carried on the result instead).  Each step serves
    every root still standing at once (one product counts every series'
    nodes, one every inward leg's, one pass takes every series norm), and
    each value has the bits of its root's own pass: a root's result does
    not depend on the others."""
    out: list = [None] * len(roots)

    # one eigenfunction per root: the series on (0, r_match], and beyond it
    # the inward solution times sigma, the projection of the series'
    # direction (u, u' + g u) onto the inward (R, R'), which a node at
    # r_match leaves well defined
    converged = []
    for i, root in enumerate(roots):
        sol, inward, r = root.solution, root.inward, root.r_match
        if sol.coeffs.size > root.cfg.truncation_order:
            out[i] = DomainError(
                f"truncation_order {root.cfg.truncation_order} is too low for "
                f"r_match={r!r}: the series at E={root.energy!r} has not "
                "converged there"
            )
            continue
        u, du = _series_direction(sol, root.q, r)
        sigma = (u * inward.R + du * inward.dR) / (inward.R**2 + inward.dR**2)
        converged.append((i, root, u, sigma))

    # its nodes: the series' own, then the sign changes from the series
    # value at r_match on (that sample is not counted twice)
    in_series = node_counts([(root.solution, root.r_match)
                             for _, root, *_ in converged], _NODE_SAMPLES)
    legs = tail.leg_samples([root.inward for _, root, *_ in converged], _NODE_SAMPLES)
    counted = []
    for (i, root, u, sigma), nodes, beyond in zip(converged, in_series, legs):
        if isinstance(nodes, DomainError):
            out[i] = nodes
            continue
        nodes += sign_changes(np.append(u, beyond * math.copysign(1.0, sigma)))
        if nodes != root.q.radial_n:
            out[i] = WrongStateError(root.q.radial_n, nodes, root.energy)
            continue
        counted.append((i, root, sigma, nodes))

    # and its norm, with the prefactor r^((k-1)/2) e^(-br) that turns the
    # series' direction into its (R, R'); the series' Gauss-Legendre size
    # follows the order, not where the series stopped
    series_norms = norms2([(root.solution, root.r_match,
                            max(64, root.cfg.truncation_order + 1))
                           for _, root, *_ in counted])
    for (i, root, sigma, nodes), series_norm in zip(counted, series_norms):
        sol, r, e_star = root.solution, root.r_match, root.energy
        p_sigma = math.exp((root.q.k - 1) / 2.0 * math.log(r) - sol.b * r) * sigma
        integral = series_norm + p_sigma * p_sigma * root.inward_norm2
        if not 0.0 < integral < math.inf:
            out[i] = DomainError(
                f"the norm integral of the state at E={e_star!r} is {integral!r}"
            )
            continue

        # an oracle that cannot check the state leaves the series result
        # standing and says why
        oracle_gap = oracle_error = None
        if root.cfg.run_oracle:
            try:
                oracle_gap = abs(e_star - root.spectrum.checked(root.level))
            except ResolutionError as exc:
                oracle_error = f"{type(exc).__name__}: {exc}"
            except DomainError as exc:  # the mass fails on the coarser grid
                out[i] = exc
                continue

        out[i] = EigenResult(
            energy=float(e_star),
            nodes=nodes,
            norm_const=float(1.0 / math.sqrt(integral)),
            tail_residual=root.residual,
            oracle_gap=oracle_gap,
            solution=sol,
            oracle_error=oracle_error,
            inward=root.inward,
            p_sigma=p_sigma,
        )
    return out


def find_eigenvalue(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    cfg: SolverConfig,
    spectrum: oracle.ChannelSpectrum | None = None,
) -> EigenResult:
    """Locate state q.radial_n in the cell of its collocation level and
    verify its node count: ``finish`` of the one root of ``search_root``,
    on the state's leg placed alone.  ``spectrum`` is the channel's over
    cfg.e_bracket, solved here when not given, so a caller solving several
    states of one channel should pass it.  Raises the error that refuses
    the state: ``place_legs``', ``search_root``'s or the one ``finish``
    returns in its place."""
    if spectrum is None:
        spectrum = oracle.channel_spectrum(pot, mass, q, cfg.e_bracket)
    (cuts,) = place_legs(pot, mass, [(q, spectrum)])
    if isinstance(cuts, Exception):
        raise cuts
    (result,) = finish([search_root(pot, mass, q, cfg, spectrum, cuts)])
    if isinstance(result, Exception):
        raise result
    return result
