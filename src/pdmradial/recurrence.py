"""Series-coefficient generation for the radial ansatz R = r^((k-1)/2) e^(-br) u(r).

The master recurrence fixes a_{n+1} from the lower coefficients through three
running convolution tables,

    M_i  = sum_{j+nu=i} a_j b_nu          (wavefunction x mass),
    M'_i = sum_{j+nu=i} a_j b'_nu         (wavefunction x log-derivative),
    T_i  = sum_{j+nu=i} j a_j b'_nu       (T_0 = 0),

with every negative-index entry equal to zero.  Step n sums entry n of each
table once, before a_{n+1} is solved for: an ordered fold from 0.0 over j
ascending, so a series stopped at a radius is, bit for bit, the start of
the one never stopped.  The loop runs in x = r/2^x_exp, with 2^x_exp set by
the radius the series is for: b, the mass series and the couplings take
powers of two, and the coefficients come out as a_n 2^(x_exp n).  A power
of two moves no bit, so each scaled back is a_n as the recurrence in r
computes it, while the coefficients in x are of the size of the terms
a_n r^n, which stay in the float range for a deep state whose a_n alone
leave it: no guard is needed.  The coefficients, the tables and the scaled
mass series are Python sequences and each fold an explicit loop (not
``sum``, whose float rounding changed in Python 3.12): a step reads a
handful of scalars, where numpy's cost per call outweighs its arithmetic.
Every sum and product is the one an array-slice version performs, in the
same order, so the two give the same bits; the tests keep that version as
the reference.  The master recurrence is the only generator the solver
runs.  The paper's own recursion for the exponentially decaying mass and
the closed forms below are derived apart from it and serve as its
references.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import DegenerateChannelError, DomainError, UnsupportedExponentError
from .model import (
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    SeriesSolution,
    _series as _mass_series,
    b_from_energy,
)

__all__ = [
    "generate_coefficients",
    "expmass_cornell_coefficients",
    "coefficient_closed_forms_cornell",
    "coefficient_closed_forms_expmass",
    "coulomb_closed_form_coefficients",
    "coulomb_expmass_closed_forms",
]

# A term |a_n| r^n at or below this fraction of the envelope is negligible.
_STOP_RATIO = 1e-20


def _check_inputs(pot, q, e, order) -> None:
    if order < 1:
        raise DomainError("order must be >= 1")
    if e >= 0:
        raise DomainError("coefficient generation requires a bound-state energy E < 0")
    if pot.alpha >= 2:
        raise UnsupportedExponentError(
            "alpha >= 2 makes the recurrence implicit (a_{n+1} enters M_{n+alpha-1})"
        )
    if q.k == 1:
        raise DegenerateChannelError(
            "k = N + 2l = 1: leading recurrence denominator vanishes at n = 0"
        )


def _finite(sol: SeriesSolution, order: int) -> SeriesSolution:
    """``sol``, or DomainError naming its first coefficient that is not finite."""
    bad = np.flatnonzero(~np.isfinite(sol.coeffs))
    if bad.size:
        raise DomainError(f"the series at E={sol.energy!r} leaves the float range at "
                          f"a_{bad[0]} of truncation_order {order}")
    return sol


def generate_coefficients(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    order: int,
) -> SeriesSolution:
    """Generate a_0 .. a_order (a_0 = 1) in r at trial energy e < 0.

    The coefficient of a_{n+1} in the recurrence is (n+1)(n+k-1); solving for
    a_{n+1} is explicit only while the singular-term convolution M_{n+alpha-1}
    involves no coefficient beyond a_n, which restricts alpha to {0, 1}.
    DomainError when some a_i leaves the float range, as a deep state's do
    at a high order; the solver holds such a series in x = r/2^x_exp.
    """
    return _finite(_series(pot, mass, q, e, order, 0), order)


def _stopped_series(pot, mass, q, e, order, r):
    """The series of :func:`generate_coefficients` in x = r/2^x_exp, with
    2^x_exp the power of two nearest r, stopped after three consecutive
    terms |a_n| r^n at or below _STOP_RATIO of the running envelope
    sum_i |a_i| r^i (n >= 4), before a_order: it has order + 1 coefficients
    only when it has not converged at r."""
    x_exp = round(math.log2(r))
    return _series(pot, mass, q, e, order, x_exp, math.ldexp(r, -x_exp))


# keyed like model._series, and on the power of two as well; bounded, as
# masses come from callers
@lru_cache(maxsize=128, typed=True)
def _reversed_tables(poly: bytes, lam: float, sign: float, order: int, x_exp: int):
    """The mass series and m'/m's series of ``MassProfile.series`` in x =
    r/2^x_exp, m_nu 2^(x_exp(nu+2)) and g_nu 2^(x_exp(nu+1)), without their
    trailing zeros (all of a constant mass's beyond m0 add nothing to the
    tables), reversed so that entry n pairs a_j with the (n-j)-th in one
    forward pass; derived once per (P, lam, order, x_exp)."""
    series = _mass_series(poly, lam, sign, order)
    return tuple(_trimmed(np.ldexp(c, x_exp * np.arange(lift, c.size + lift)))[::-1]
                 for c, lift in zip(series, (2, 1)))


def _series(pot, mass, q, e, order, x_exp, x_stop=math.inf):
    """The recurrence of :func:`generate_coefficients` in x = r/2^x_exp,
    stopped as :func:`_stopped_series` says at x_stop (never at inf)."""
    e = float(e)
    _check_inputs(pot, q, e, order)
    k = q.k

    # in x: with b 2^x_exp, b_nu 2^(x_exp(nu+2)), b'_nu 2^(x_exp(nu+1)),
    # v1 2^(-x_exp alpha) and v2 2^(x_exp beta), every term of step n is
    # 2^(x_exp(n+1)) times its value in r, and a_n comes out times 2^(x_exp n)
    b_r = b_from_energy(e, mass.m0)
    b = math.ldexp(b_r, x_exp)
    ell = q.ell
    alpha, beta = int(pot.alpha), int(pot.beta)
    # the products left to right as the recurrence reads, 2 v1 M = (2 v1) M
    e2, v3_2 = 2.0 * e, 2.0 * pot.v3
    v1_2 = math.ldexp(2.0 * pot.v1, -x_exp * alpha)
    v2_2 = math.ldexp(2.0 * pot.v2, x_exp * beta)
    b2 = b * b

    poly = mass.poly
    rmass, rlog = _reversed_tables(poly.tobytes(), mass.lam, math.copysign(1.0, mass.lam),
                                   max(int(order), poly.size - 1), x_exp)
    lm, lb = len(rmass), len(rlog)

    # table entry i sits at list index i + pad, so the lowest index read,
    # n - beta - 1 at n = 0, lands on a leading zero and none wraps
    pad = beta + 1
    m_tab, mp_tab, t_tab = [[0.0] * pad for _ in range(3)]

    a = [1.0]
    # x_stop^n, sum_i |a_i| x_stop^i and the terms at the cut so far
    power, envelope, small = 1.0, 1.0, 0
    for n in range(order):
        # entry n of M, M' and T: the products a_j b_{n-j} and a_j b'_{n-j}
        # (T takes j times the latter) added to 0.0 for j ascending
        m = mp = t = 0.0
        jm, jw = n + 1 - lm, n + 1 - lb  # the lowest j of each fold, if not negative
        j0 = jm if jm > 0 else 0
        for p in map(mul, a[j0:], rmass[j0 - jm :]):
            m += p
        if lb:
            j0 = jw if jw > 0 else 0
            for j, p in enumerate(map(mul, a[j0:], rlog[j0 - jw :]), j0):
                mp += p
                t += j * p
        m_tab.append(m)
        mp_tab.append(mp)
        t_tab.append(t)
        i = n + pad  # list index of table entry n
        an1 = a[n - 1] if n >= 1 else 0.0
        base = (
            ((k - 1) + 2.0 * n) * b * a[n]
            + ell * mp_tab[i]
            - b * mp_tab[i - 1]
            + t_tab[i]
            - e2 * m_tab[i - 1]
            - b2 * an1
        )
        num = (
            base
            - v1_2 * m_tab[i + alpha - 1]
            + v2_2 * m_tab[i - beta - 1]
            + v3_2 * m_tab[i - 1]
        )
        denom = (n + 1) * (n + k - 1)
        assert denom != 0, "recurrence denominator vanished (k < 2 should be rejected)"
        a.append(num / denom)
        if x_stop < math.inf:
            power *= x_stop
            term = abs(a[-1]) * power
            envelope += term
            small = small + 1 if n >= 3 and term <= _STOP_RATIO * envelope < math.inf else 0
            if small == 3 and n + 1 < order:
                break
    return SeriesSolution(e, b_r, np.array(a), q, x_exp)


def _trimmed(series: np.ndarray) -> tuple[float, ...]:
    """``series`` without its trailing zeros, as a tuple."""
    nonzero = np.flatnonzero(series)
    return tuple(series[: nonzero[-1] + 1].tolist()) if nonzero.size else ()


def expmass_cornell_coefficients(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    order: int,
) -> SeriesSolution:
    """The paper's recursion for the Cornell potential (alpha = beta = 1)
    with the exponentially decaying mass m = m0 e^(-lam r).

    Derived apart from the master recurrence: m'/m = -lam exactly, so the
    log-derivative convolutions collapse to -lam a_n and -lam n a_n and only
    the mass convolution survives as a table.  Kept as the reference the
    master recurrence is checked against; the solver never runs it.
    """
    e = float(e)
    if pot.alpha != 1 or pot.beta != 1:
        raise DomainError("exp-mass Cornell recursion requires alpha = beta = 1")
    if mass.lam <= 0 or np.any(mass.poly[1:]):
        raise DomainError("exp-mass Cornell recursion requires an exponential mass profile")
    _check_inputs(pot, q, e, order)
    k = q.k

    b = b_from_energy(e, mass.m0)
    ell = q.ell
    lam = mass.lam

    a = np.zeros(order + 1)
    a[0] = 1.0

    mseries = mass.series(order)[0]
    conv = np.zeros_like(a)  # running sum_{j+nu=i} m_nu a_j

    def fill_conv(i: int):
        top = min(i, mseries.size - 1)
        s = 0.0
        for nu in range(top + 1):
            s += a[i - nu] * mseries[nu]
        conv[i] = s

    A, B, C = pot.v1, pot.v2, pot.v3
    fill_conv(0)
    for n in range(order):
        an = a[n]
        an1 = a[n - 1] if n >= 1 else 0.0
        cn = conv[n]
        cn1 = conv[n - 1] if n >= 1 else 0.0
        cn2 = conv[n - 2] if n >= 2 else 0.0
        num = (
            (b * (k - 1) + (2.0 * b - lam) * n - ell * lam) * an
            - b * (b - lam) * an1
            - 2.0 * e * cn1
            - 2.0 * A * cn
            + 2.0 * B * cn2
            + 2.0 * C * cn1
        )
        a[n + 1] = num / ((n + 1) * (n + k - 1))
        fill_conv(n + 1)
    return _finite(SeriesSolution(e, b, a, q), order)


def coefficient_closed_forms_cornell(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    a0: float = 1.0,
) -> tuple[float, float, float]:
    """Closed forms for a_1, a_2, a_3 of the Cornell recurrence, general mass.

    Independent evaluation path from :func:`generate_coefficients`, used for
    cross-checking.
    """
    if pot.alpha != 1 or pot.beta != 1:
        raise DomainError("cornell closed forms require alpha = beta = 1")
    k = q.k
    if k == 1:
        raise DegenerateChannelError("closed forms undefined for k = 1")
    b = b_from_energy(e, mass.m0)
    ell = q.ell
    A, B, C = pot.v1, pot.v2, pot.v3
    m0 = mass.m0
    mass_series, logderiv_series = mass.series(2)
    b1, b2 = mass_series[1:3].tolist()
    bp0, bp1, bp2 = logderiv_series[:3].tolist()

    a1 = (b + (ell * bp0 - 2.0 * A * m0) / (k - 1)) * a0
    a2 = ((k + 1) * b + (ell + 1) * bp0 - 2.0 * A * m0) / (2.0 * k) * a1 + (
        ell * bp1 - b * bp0 - 2.0 * A * b1 + 2.0 * C * m0
    ) / (2.0 * k) * a0
    a3 = (
        ((k + 3) * b + (ell + 2) * bp0 - 2.0 * A * m0) / (3.0 * (k + 1)) * a2
        + ((ell + 1) * bp1 - b * bp0 - 2.0 * A * b1 + 2.0 * C * m0)
        / (3.0 * (k + 1))
        * a1
        + (ell * bp2 - b * bp1 + 2.0 * (C - e) * b1 - 2.0 * A * b2 + 2.0 * B * m0)
        / (3.0 * (k + 1))
        * a0
    )
    return a1, a2, a3


def coefficient_closed_forms_expmass(
    pot: PotentialSpec,
    m0: float,
    lam: float,
    q: QuantumNumbers,
    e: float,
    a0: float = 1.0,
) -> tuple[float, float, float]:
    """Closed forms for a_1, a_2, a_3 with the exponentially decaying mass.

    Evaluates the specialization m'/m = -lam, m_nu = m0 (-lam)^nu / nu!
    literally; reduces continuously to the constant-mass Cornell forms as
    lam -> 0+.
    """
    if pot.alpha != 1 or pot.beta != 1:
        raise DomainError("exp-mass closed forms require alpha = beta = 1")
    if lam <= 0:
        raise DomainError("exp-mass closed forms require lam > 0")
    k = q.k
    if k == 1:
        raise DegenerateChannelError("closed forms undefined for k = 1")
    b = b_from_energy(e, m0)
    ell = q.ell
    A, B, C = pot.v1, pot.v2, pot.v3
    m1 = -m0 * lam
    m2 = m0 * lam * lam / 2.0

    a1 = (b - (ell * lam + 2.0 * A * m0) / (k - 1)) * a0
    a2 = ((k + 1) * b - lam * (ell + 1) - 2.0 * A * m0) / (2.0 * k) * a1 + (
        2.0 * C * m0 + lam * b - 2.0 * A * m1
    ) / (2.0 * k) * a0
    a3 = (
        ((k + 3) * b - (ell + 2) * lam - 2.0 * A * m0) / (3.0 * (k + 1)) * a2
        + (lam * b + 2.0 * C * m0 - 2.0 * A * m1) / (3.0 * (k + 1)) * a1
        + (2.0 * B * m0 + 2.0 * (C - e) * m1 - 2.0 * A * m2) / (3.0 * (k + 1)) * a0
    )
    return a1, a2, a3


def coulomb_closed_form_coefficients(
    a_coupling: float,
    m0: float,
    q: QuantumNumbers,
    i: int,
    a0: float = 1.0,
) -> float:
    """Exact coefficient a_i of the constant-mass 3-d Coulomb bound state.

    At the eigenvalue with decay rate b = A m0 / (n + l + 1) the series
    terminates:

        a_i = (-2 A m0 / (n+l+1))^i (2l+1)! n! / ((2l+1+i)! (n-i)! i!) a_0

    and a_i = 0 for i > n.  Factorials are evaluated through log-gamma so
    large n, l stay finite.
    """
    if q.dim_n != 3:
        raise DomainError("closed-form Coulomb coefficients are for N = 3")
    if i < 0:
        raise DomainError("coefficient index must be >= 0")
    n, ell = q.radial_n, q.ell
    if i > n:
        return 0.0
    if i == 0:
        return a0
    if a_coupling <= 0 or m0 <= 0:
        raise DomainError("requires positive coupling and mass")
    ratio = 2.0 * a_coupling * m0 / (n + ell + 1)
    sign = -1.0 if i % 2 else 1.0
    log_mag = (
        i * math.log(ratio)
        + math.lgamma(2 * ell + 2)
        + math.lgamma(n + 1)
        - math.lgamma(2 * ell + 2 + i)
        - math.lgamma(n - i + 1)
        - math.lgamma(i + 1)
    )
    return sign * math.exp(log_mag) * a0


def coulomb_expmass_closed_forms(
    a_coupling: float,
    m0: float,
    lam: float,
    q: QuantumNumbers,
    a0: float = 1.0,
) -> tuple[float, float, float]:
    """First three Coulomb coefficients with the exponentially decaying mass.

    Specializes the exp-mass closed forms to N = 3, B = C = 0 with the
    constant-mass Coulomb decay rate b = A m0 / (n + l + 1) substituted.  The
    a_3 form is evaluated from the same substitution applied to the general
    third coefficient (its a_0 bracket is + [A m1 / (2 (n+l+1)^2) - m2/m0]).
    """
    if q.dim_n != 3:
        raise DomainError("these closed forms are for N = 3")
    if lam <= 0:
        raise DomainError("requires lam > 0")
    A = a_coupling
    n, ell = q.radial_n, q.ell
    nlp = n + ell + 1
    m1 = -m0 * lam
    m2 = m0 * lam * lam / 2.0

    a1 = (A * m0 / (ell + 1)) * (
        (ell + 1) / nlp - ell * lam / (2.0 * m0 * A) - 1.0
    ) * a0
    a2 = (A * m0 / (2 * ell + 3)) * (
        ((ell + 2) / nlp - (ell + 1) * lam / (2.0 * A * m0) - 1.0) * a1
        + (lam / (2.0 * nlp) - m1 / m0) * a0
    )
    a3 = (A * m0 / (3.0 * (ell + 2))) * (
        ((ell + 3) / nlp - (ell + 2) * lam / (2.0 * A * m0) - 1.0) * a2
        + (lam / (2.0 * nlp) - m1 / m0) * a1
        + (A * m1 / (2.0 * nlp * nlp) - m2 / m0) * a0
    )
    return a1, a2, a3
