"""Series-coefficient generation for the radial ansatz R = r^((k-1)/2) e^(-br) u(r).

The master recurrence fixes a_{n+1} from the lower coefficients through three
running convolution tables,

    M_i  = sum_{j+nu=i} a_j b_nu          (wavefunction x mass),
    M'_i = sum_{j+nu=i} a_j b'_nu         (wavefunction x log-derivative),
    T_i  = sum_{j+nu=i} j a_j b'_nu       (T_0 = 0),

with every negative-index entry equal to zero.  As soon as a_j is fixed it
is added into every entry it touches, so entries 0..n are complete when
a_{n+1} is solved for.  The coefficients and the tables are Python lists:
each step reads a handful of scalars and adds one short product into each
table, where numpy's cost per call outweighs its arithmetic.  Every sum and
product is the one an array-slice version performs, in the same order, so
the two give the same bits; the tests keep that version as the reference.
The master recurrence is the only generator the solver runs.  The paper's
own recursion for the exponentially decaying mass and the closed forms below
are derived apart from it and serve as its references.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateChannelError, DomainError, UnsupportedExponentError
from .model import (
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    SeriesSolution,
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

# Per-step renormalization threshold for the coefficient overflow guard.
_RESCALE_LIMIT = 1e150


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


def generate_coefficients(
    pot: PotentialSpec,
    mass: MassProfile,
    q: QuantumNumbers,
    e: float,
    order: int,
) -> SeriesSolution:
    """Generate a_0 .. a_order (a_0 = 1) at trial energy e < 0.

    The coefficient of a_{n+1} in the recurrence is (n+1)(n+k-1); solving for
    a_{n+1} is explicit only while the singular-term convolution M_{n+alpha-1}
    involves no coefficient beyond a_n, which restricts alpha to {0, 1}.
    Coefficients exceeding the overflow guard trigger a homogeneous rescale of
    the whole prefix, recorded in ``scale_log10``.
    """
    e = float(e)
    _check_inputs(pot, q, e, order)
    k = q.k
    mass = mass.extended(order)

    b = b_from_energy(e, mass.m0)
    ell = q.ell
    alpha, beta = int(pot.alpha), int(pot.beta)
    # the products left to right as the recurrence reads, 2 v1 M = (2 v1) M
    e2, v1_2, v2_2, v3_2 = 2.0 * e, 2.0 * pot.v1, 2.0 * pot.v2, 2.0 * pot.v3
    b2 = b * b

    # trailing zeros of the mass series (all of a constant mass's beyond m0)
    # add nothing to the tables, so they are dropped
    bmass, blog = (_trimmed(c) for c in (mass.mass_series, mass.logderiv_series))
    lm, lb = len(bmass), len(blog)
    # table entry i sits at list index i + pad, so the lowest index read,
    # n - beta - 1 at n = 0, lands on a leading zero and none wraps; entries
    # from order on are never read and are not kept
    pad = beta + 1
    m_tab, mp_tab, t_tab = ([0.0] * (order + pad) for _ in range(3))

    a = [1.0]
    scale_log10 = 0.0
    for n in range(order):
        an = a[n]
        i = n + pad  # list index of table entry n
        # a_n enters M_i, M'_i and T_i for i = n .. n + len(series) - 1; T
        # takes n times the product M' takes, n (a_n b'_nu)
        m_tab[i : i + lm] = [x + an * y for x, y in zip(m_tab[i : i + lm], bmass)]
        if lb:
            mp_tab[i : i + lb] = [x + an * y for x, y in zip(mp_tab[i : i + lb], blog)]
            t_tab[i : i + lb] = [x + n * (an * y) for x, y in zip(t_tab[i : i + lb], blog)]
        an1 = a[n - 1] if n >= 1 else 0.0
        base = (
            ((k - 1) + 2.0 * n) * b * an
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
        if abs(a[-1]) > _RESCALE_LIMIT:
            scale_log10 += _guard_overflow(a, n + 1, multiply=(m_tab, mp_tab, t_tab))
            if a[0] == 0.0:
                raise DomainError(
                    f"the series at E={e!r} outgrows the float range: the "
                    f"overflow guard has divided a_0 by 10^{scale_log10:.1f} "
                    f"(scale_log10 = {scale_log10:.1f}) and it underflows to "
                    f"zero at a_{n + 1} of truncation_order {order}"
                )

    return SeriesSolution(e, b, np.array(a), q, scale_log10)


def _trimmed(series: np.ndarray) -> list[float]:
    """``series`` without its trailing zeros, as a list."""
    nonzero = np.flatnonzero(series)
    return series[: nonzero[-1] + 1].tolist() if nonzero.size else []


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
    if mass.kind != "exponential":
        raise DomainError("exp-mass Cornell recursion requires an exponential mass profile")
    _check_inputs(pot, q, e, order)
    k = q.k
    mass = mass.extended(order)

    b = b_from_energy(e, mass.m0)
    ell = q.ell
    lam = mass.lam

    a = np.zeros(order + 1)
    a[0] = 1.0
    scale_log10 = 0.0

    mseries = mass.mass_series
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
        scale_log10 += _guard_overflow(a, n + 1, divide=(conv,))
        fill_conv(n + 1)
    return SeriesSolution(e, b, a, q, scale_log10)


def _guard_overflow(a, i, divide=(), multiply=()) -> float:
    """When a_i exceeds the overflow guard, divide the coefficients and the
    ``divide`` tables by |a_i| and the ``multiply`` tables through the
    reciprocal, in place (lists or arrays); returns log10 of the divisor, or
    0.0."""
    s = abs(float(a[i]))
    if not s > _RESCALE_LIMIT:
        return 0.0
    for seq in (a, *divide):
        seq[:] = [x / s for x in seq]
    inv = 1.0 / s
    for seq in multiply:
        seq[:] = [x * inv for x in seq]
    return math.log10(s)


def _series_at(arr: np.ndarray, i: int) -> float:
    return float(arr[i]) if i < arr.size else 0.0


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
    mass = mass.extended(2)
    b = b_from_energy(e, mass.m0)
    ell = q.ell
    A, B, C = pot.v1, pot.v2, pot.v3
    m0 = mass.m0
    b1 = _series_at(mass.mass_series, 1)
    b2 = _series_at(mass.mass_series, 2)
    bp0 = _series_at(mass.logderiv_series, 0)
    bp1 = _series_at(mass.logderiv_series, 1)
    bp2 = _series_at(mass.logderiv_series, 2)

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
