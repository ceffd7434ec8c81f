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
narrow bracket shows no sign change.  The node count of the converged state
is verified on the series and on the inward pieces past the match radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, tail
from .errors import (
    BracketError,
    ConfigurationError,
    DomainError,
    ResolutionError,
    WrongStateError,
)
from .model import (
    EigenResult,
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    _horner,
    b_from_energy,
)
from .recurrence import generate_coefficients
from .wavefunction import (
    RadialWavefunction,
    count_nodes,
    normalize,
    sign_changes,
    trust_radius,
)

__all__ = [
    "SolverConfig",
    "brentq",
    "find_eigenvalue",
    "coulomb_reference_energy",
]

# The ansatz b = sqrt(-2 m0 E) degenerates as E -> 0-.
_E_FLOOR = 1e-12

# half-width of the first Brent bracket around a collocation level, relative
_NARROW = 1e-9

# decay lengths 1/b from the match radius to the inward start, at least
_TAIL_LENGTHS = 10.0

# samples per piece of the inward solution when its nodes are counted
_NODE_SAMPLES = 2048


def brentq(f, xa, xb, args=(), xtol=2e-12, rtol=8.881784197001252e-16,
           maxiter=100):
    """Root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Follows scipy.optimize.brentq (its C routine in ``zeros.c``) operation
    for operation, so it evaluates f at the same points and returns the same
    root bit for bit.  ValueError when f(xa) and f(xb) have the same sign or
    an evaluation is NaN; RuntimeError after ``maxiter`` iterations.  The
    tolerances are not checked: scipy requires xtol > 0 and rtol >= 4 eps.
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

    ``e_bracket`` is the energy window in which states are sought.
    ``match_radius`` defaults to 1.5/b at the midpoint of the state's cell,
    clamped to the series trust region at the state's collocation level.
    The inward integration starts at r_far, the farthest of ten decay
    lengths 1/b past the match radius, and 1.2 times the outer turning
    radius and ``tail.tail_radius``, both at the cell's upper energy.
    """

    e_bracket: tuple[float, float]
    match_radius: float | None = None
    truncation_order: int = 64
    tol_e: float = 1e-13
    max_iter: int = 200
    run_oracle: bool = False

    def __post_init__(self):
        # every message starts with the name of the offending field
        e_lo, e_hi = self.e_bracket
        for name, ok, need in (
            ("e_lo/e_hi", e_lo < e_hi < 0, "ordered as e_lo < e_hi < 0"),
            ("e_hi", abs(e_hi) >= _E_FLOOR,
             f"below -{_E_FLOOR}: the decay-rate ansatz breaks down near E = 0"),
            ("truncation_order", self.truncation_order >= 4, "at least 4"),
            ("tol_e", self.tol_e > 0, "positive"),
            ("max_iter", self.max_iter >= 10, "at least 10"),
            ("match_radius", self.match_radius is None or self.match_radius > 0,
             "positive"),
        ):
            if not ok:
                raise DomainError(f"{name}: must be {need}")


def _build_geometry(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    cfg: SolverConfig,
    cell: tuple[float, float],
    e_c: float,
) -> tail.Leg:
    """The fixed matching geometry of one root solve, the inward leg from
    r_match to r_far (fixed, it keeps the mismatch continuous in E; its zeros
    do not depend on these choices)."""
    e_lo, e_hi = cell
    b_mid = b_from_energy(0.5 * (e_lo + e_hi), mass.m0)

    # the series at the collocation level bounds the admissible match radius
    sol = generate_coefficients(pot, mass, q, e_c, cfg.truncation_order)
    trust = trust_radius(sol)

    if cfg.match_radius is not None:
        r_match = cfg.match_radius
        if r_match > trust:
            raise ConfigurationError(
                f"match_radius {r_match:.6g} exceeds the series trust region "
                f"{trust:.6g} at the level E={e_c!r}; raise truncation_order"
            )
    else:
        r_match = min(1.5 / b_mid, 0.9 * trust)
    if r_match <= 0:
        raise ConfigurationError("match radius collapsed to zero")

    # the inward start must sit in the forbidden tail: _TAIL_LENGTHS decay
    # lengths out and past the outer turning point of the shallowest cell
    # energy; the leg is cut into pieces at the deepest one
    r_turn = tail.outer_turning_radius(pot, e_hi)
    r_tail = tail.tail_radius(pot, mass, e_hi, r_turn=r_turn)
    r_far = max(r_match + _TAIL_LENGTHS / b_mid, 1.2 * r_turn, r_tail)
    return tail.make_leg(pot, mass, q, r_match, r_far, e_lo)


def _series_direction(
    sol, q: QuantumNumbers, r: float
) -> tuple[float, float]:
    """(R, R') direction of the series solution at r, up to a positive factor."""
    u, up = _horner(sol.coeffs, r, derivs=1)
    p = (q.k - 1) / 2.0
    g = p / r - sol.b
    return u, up + g * u


def _mismatch(
    e: float,
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    cfg: SolverConfig,
    geom: tail.Leg,
    want_solution: bool = False,
):
    """Normalized Wronskian of the series and the inward leg at the match
    radius."""
    sol = generate_coefficients(pot, mass, q, e, cfg.truncation_order)
    us, dus = _series_direction(sol, q, geom.r_match)
    inward = tail.integrate_radial(geom, e)
    w = dus * inward.R - us * inward.dR
    norm = math.hypot(us, dus) * math.hypot(inward.R, inward.dR)
    value = w / norm if norm > 0 else 0.0
    if want_solution:
        return value, sol, inward
    return value


def _recorded_mismatch(e: float, evaluated: dict, *args) -> float:
    """``_mismatch`` for brentq, keeping each evaluation's series and inward
    solution under its energy."""
    evaluated[e] = out = _mismatch(e, *args, want_solution=True)
    return out[0]


def _combined_node_count(sol, q, geom: tail.Leg, inward: tail.Inward) -> int:
    """Nodes of the matched eigenfunction: series side on (0, r_match] plus
    the inward solution's pieces beyond.

    The inward solution is oriented by the sign of the dot product of the
    two (R, R') vectors at the match radius, which stays well defined when a
    node sits there (R ~ 0, R' large).  Its count starts from the series
    value at r_match, so the sample the series already counted is not
    counted again."""
    n_series = count_nodes(sol, geom.r_match, samples=_NODE_SAMPLES)

    u_match, up_match = _series_direction(sol, q, geom.r_match)
    align = math.copysign(1.0, u_match * inward.R + up_match * inward.dR)
    beyond = inward.samples(_NODE_SAMPLES) * align
    return n_series + sign_changes(np.append(u_match, beyond))


def find_eigenvalue(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    cfg: SolverConfig,
    spectrum: oracle.ChannelSpectrum | None = None,
) -> EigenResult:
    """Locate state q.radial_n in the cell of its collocation level and
    verify its node count.

    ``spectrum`` is the channel's collocation spectrum over the window
    cfg.e_bracket; it is solved here when not given, so a caller solving
    several states of one channel should pass it.  BracketError when level
    q.radial_n lies outside the window or the mismatch has no sign change in
    its cell; WrongStateError when the converged state's node count differs
    from q.radial_n.
    """
    if spectrum is None:
        spectrum = oracle.channel_spectrum(pot, mass, q, cfg.e_bracket)
    cell, e_c = spectrum.cell(q.radial_n)
    mass = mass.extended(cfg.truncation_order)
    geom = _build_geometry(pot, mass, q, cfg, cell, e_c)

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
                rtol=max(cfg.tol_e, 1e-15),
                maxiter=cfg.max_iter,
            )
            break
        except DomainError:
            raise
        except ValueError:  # no sign change between the ends, or a NaN
            continue
    else:
        f_lo, f_hi = _mismatch(e_lo, *args), _mismatch(e_hi, *args)
        raise BracketError(
            f"mismatch does not change sign on the cell ({e_lo}, {e_hi}) of "
            f"level {q.radial_n} at E={e_c!r}: ({f_lo:.3e}, {f_hi:.3e})"
        )

    # brentq returns an energy it has evaluated: that evaluation holds the
    # converged state's series and inward solution
    residual, sol, inward = evaluated[e_star]
    nodes = _combined_node_count(sol, q, geom, inward)
    if nodes != q.radial_n:
        raise WrongStateError(q.radial_n, nodes, e_star)

    # Normalize over the physical decay region only: r_far is stretched for
    # boundary-condition suppression, and at the (finitely converged) energy
    # the non-terminating residual coefficients pollute the series out there.
    wave = RadialWavefunction.from_solution(sol)
    b_mid = b_from_energy(0.5 * (cell[0] + cell[1]), mass.m0)
    r_norm = max(
        geom.r_match + _TAIL_LENGTHS / b_mid,
        tail.tail_radius(pot, mass, e_star, target_exponent=12.0),
    )
    r_norm = min(r_norm, 0.9 * wave.eval_cutoff)
    r_norm = max(r_norm, 1.05 * geom.r_match)
    normalized = normalize(wave, r_norm)
    norm_const = normalized.solution.a0 / sol.a0

    # an oracle that cannot check the state leaves the series result
    # standing and says why
    oracle_gap = oracle_error = None
    if cfg.run_oracle:
        try:
            oracle_gap = abs(e_star - spectrum.checked(e_c))
        except ResolutionError as exc:
            oracle_error = f"{type(exc).__name__}: {exc}"

    return EigenResult(
        energy=float(e_star),
        nodes=nodes,
        norm_const=float(norm_const),
        tail_residual=abs(residual),
        oracle_gap=oracle_gap,
        solution=sol,
        oracle_error=oracle_error,
    )


def coulomb_reference_energy(a_coupling: float, m0: float, q: QuantumNumbers) -> float:
    """Constant-mass Coulomb eigenvalue -A^2 m0 / (2 (n + (k-1)/2)^2).

    The decay rate at the terminating series is b = A m0 / (n + (k-1)/2),
    which reduces to the familiar A m0/(n + l + 1) in three dimensions.
    """
    if a_coupling <= 0 or m0 <= 0:
        raise DomainError("requires positive coupling and mass")
    nu = q.radial_n + (q.k - 1) / 2.0
    return -(a_coupling**2) * m0 / (2.0 * nu * nu)
