import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmradial.errors import (
    DegenerateChannelError,
    DomainError,
    UnsupportedExponentError,
)
from pdmradial.model import (
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    b_from_energy,
    make_cornell,
    make_coulomb,
    make_oscillator,
)
from pdmradial.recurrence import (
    _series,
    _stopped_series,
    coefficient_closed_forms_cornell,
    coefficient_closed_forms_expmass,
    coulomb_closed_form_coefficients,
    coulomb_expmass_closed_forms,
    expmass_cornell_coefficients,
    generate_coefficients,
)
from pdmradial.wavefunction import ode_residual


class TestFirstCoefficients:
    def test_cornell_constant_mass_a1(self):
        A, m0, e = 0.9, 1.2, -0.8
        pot = make_cornell(A, 0.4, 0.1)
        q = QuantumNumbers(3, 1, 0)  # k = 5
        sol = generate_coefficients(pot, MassProfile([m0]), q, e, 4)
        b = b_from_energy(e, m0)
        assert sol.coeffs[1] == pytest.approx(b - 2 * A * m0 / (q.k - 1), rel=1e-14)

    def test_cornell_constant_mass_a2(self):
        A, B, C, m0, e = 0.7, 0.3, -0.2, 1.0, -1.1
        pot = make_cornell(A, B, C)
        q = QuantumNumbers(4, 0, 0)  # k = 4
        sol = generate_coefficients(pot, MassProfile([m0]), q, e, 4)
        b = b_from_energy(e, m0)
        k = q.k
        a1 = b - 2 * A * m0 / (k - 1)
        a2 = ((k + 1) * b - 2 * A * m0) / (2 * k) * a1 + (2 * C * m0) / (2 * k)
        assert sol.coeffs[2] == pytest.approx(a2, rel=1e-13)

    def test_expmass_a1(self):
        A, m0, lam, e = 1.1, 0.9, 0.4, -0.6
        pot = make_cornell(A, 0.2, 0.0)
        q = QuantumNumbers(3, 2, 0)  # k = 7, l = 2
        mass = MassProfile([m0], lam)
        sol = expmass_cornell_coefficients(pot, mass, q, e, 4)
        b = b_from_energy(e, m0)
        expected = b - (q.ell * lam + 2 * A * m0) / (q.k - 1)
        assert sol.coeffs[1] == pytest.approx(expected, rel=1e-14)

    def test_free_particle_series_solves_ode(self):
        pot = PotentialSpec.free()
        mass = MassProfile([1.0])
        q = QuantumNumbers(3, 0, 0)
        e = -0.7
        sol = generate_coefficients(pot, mass, q, e, 48)
        for r in (0.1, 0.4, 0.8, 1.0):
            assert ode_residual(sol, pot, mass, e, r) < 1e-10


class TestClosedFormsCornell:
    def test_agrees_with_recurrence_random_mass(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pot = make_cornell(
                rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.5), rng.uniform(-1, 1)
            )
            mass = MassProfile(np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-0.3, 0.3, 3)]))
            q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
            e = -rng.uniform(0.1, 3.0)
            sol = generate_coefficients(pot, mass, q, e, 4)
            closed = coefficient_closed_forms_cornell(pot, mass, q, e)
            for i in range(3):
                assert abs(sol.coeffs[i + 1] - closed[i]) < 1e-12

    def test_a1_reduces_to_b_without_coupling(self):
        # constant mass, A = 0, C = 0: a1 = b a0
        pot = make_cornell(0.0, 0.5, 0.0)
        mass = MassProfile([1.0])
        q = QuantumNumbers(3, 0, 0)
        e = -0.9
        a1, _, _ = coefficient_closed_forms_cornell(pot, mass, q, e)
        assert a1 == pytest.approx(b_from_energy(e, mass.m0))

    def test_degenerate_channel_rejected(self):
        pot = make_cornell(1.0, 0.1, 0.0)
        with pytest.raises(DegenerateChannelError):
            coefficient_closed_forms_cornell(
                pot, MassProfile([1.0]), QuantumNumbers(1, 0, 0), -0.5
            )


class TestClosedFormsExpmass:
    def test_lambda_to_zero_limit(self):
        # continuity in lam: the exp-mass forms approach the constant-mass
        # Cornell forms as lam -> 0+
        pot = make_cornell(0.8, 0.3, -0.4)
        q = QuantumNumbers(4, 1, 0)
        m0, e = 1.3, -0.7
        ref = coefficient_closed_forms_cornell(pot, MassProfile([m0]), q, e)
        got = coefficient_closed_forms_expmass(pot, m0, 1e-9, q, e)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_a3_matches_general_mass_form_term_by_term(self):
        # the exponential-mass a3 equals the general-mass a3 with
        # b'_0 = -lam, b'_1 = b'_2 = 0, b_1 = m1, b_2 = m2 substituted
        pot = make_cornell(0.6, 0.25, 0.15)
        q = QuantumNumbers(3, 1, 0)
        m0, lam, e = 1.1, 0.35, -0.9
        mass = MassProfile([m0], lam)
        ref = coefficient_closed_forms_cornell(pot, mass, q, e)
        got = coefficient_closed_forms_expmass(pot, m0, lam, q, e)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_agrees_with_recursion(self):
        pot = make_cornell(1.4, 0.6, -0.3)
        q = QuantumNumbers(5, 0, 0)
        m0, lam, e = 0.8, 0.22, -1.4
        mass = MassProfile([m0], lam)
        sol = expmass_cornell_coefficients(pot, mass, q, e, 4)
        closed = coefficient_closed_forms_expmass(pot, m0, lam, q, e)
        for i in range(3):
            assert abs(sol.coeffs[i + 1] - closed[i]) < 1e-12


class TestCoulombClosedForm:
    def test_first_two_printed_coefficients(self):
        a_c, m0, n, ell = 1.2, 0.9, 3, 1
        q = QuantumNumbers(3, ell, n)
        ratio = 2 * a_c * m0 / (n + ell + 1)
        a1 = coulomb_closed_form_coefficients(a_c, m0, q, 1)
        assert a1 == pytest.approx(-ratio * n / (2 * ell + 2), rel=1e-14)
        a2 = coulomb_closed_form_coefficients(a_c, m0, q, 2)
        assert a2 == pytest.approx(
            ratio**2 * n * (n - 1) / (2 * (2 * ell + 3) * (2 * ell + 2)), rel=1e-14
        )

    def test_index_zero_and_termination(self):
        q = QuantumNumbers(3, 0, 2)
        assert coulomb_closed_form_coefficients(1.0, 1.0, q, 0) == 1.0
        assert coulomb_closed_form_coefficients(1.0, 1.0, q, 3) == 0.0
        assert coulomb_closed_form_coefficients(1.0, 1.0, q, 7) == 0.0

    def test_series_terminates_at_eigenvalue(self):
        a_c, m0 = 1.0, 1.0
        for n, ell in [(0, 0), (1, 0), (2, 1), (4, 0)]:
            q = QuantumNumbers(3, ell, n)
            e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
            sol = generate_coefficients(make_coulomb(a_c), MassProfile([m0]), q, e, 24)
            scale = np.max(np.abs(sol.coeffs))
            assert np.max(np.abs(sol.coeffs[n + 1 :])) < 1e-10 * scale

    def test_requires_three_dimensions(self):
        with pytest.raises(DomainError):
            coulomb_closed_form_coefficients(1.0, 1.0, QuantumNumbers(4, 0, 1), 1)


class TestPdmCoulombClosedForms:
    def test_matches_expmass_specialization(self):
        a_c, m0, lam = 0.9, 1.2, 0.3
        for n, ell in [(0, 0), (1, 1), (2, 0)]:
            q = QuantumNumbers(3, ell, n)
            e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
            ref = coefficient_closed_forms_expmass(
                make_cornell(a_c, 0.0, 0.0), m0, lam, q, e
            )
            got = coulomb_expmass_closed_forms(a_c, m0, lam, q)
            assert got == pytest.approx(ref, abs=1e-13)


class TestGenerateCoefficients:
    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=100.0))
    def test_homogeneity_in_a0(self, scale):
        pot = make_cornell(1.0, 0.2, 0.0)
        mass = MassProfile([1.0])
        q = QuantumNumbers(3, 0, 0)
        sol = generate_coefficients(pot, mass, q, -0.8, 12)
        scaled = sol.scaled(scale)
        assert scaled.coeffs == pytest.approx(scale * sol.coeffs, rel=1e-15)

    def test_master_recurrence_from_scratch_tables(self):
        # rebuild M, M' and T with np.convolve from the final coefficient
        # vector and check that every generated a_{n+1} satisfies the master
        # recurrence with them
        pot = make_cornell(0.8, 0.4, -0.1)
        mass = MassProfile([1.0, -0.5, 0.125, 0.3])
        q = QuantumNumbers(3, 1, 0)
        e, order = -0.7, 30
        sol = generate_coefficients(pot, mass, q, e, order)
        a = sol.coeffs
        mass_series, logderiv_series = mass.series(order)
        m_tab = np.convolve(a, mass_series)[: order + 1]
        mp_tab = np.convolve(a, logderiv_series)[: order + 1]
        t_tab = np.convolve(np.arange(order + 1) * a, logderiv_series)[
            : order + 1
        ]

        def at(table, i):
            return table[i] if i >= 0 else 0.0

        k, ell, b = q.k, q.ell, sol.b
        running_max = np.maximum.accumulate(np.abs(a))
        for n in range(order):
            num = (
                ((k - 1) + 2.0 * n) * b * a[n]
                + ell * mp_tab[n]
                - b * at(mp_tab, n - 1)
                + t_tab[n]
                - 2.0 * e * at(m_tab, n - 1)
                - b * b * at(a, n - 1)
                - 2.0 * pot.v1 * at(m_tab, n + pot.alpha - 1)
                + 2.0 * pot.v2 * at(m_tab, n - pot.beta - 1)
                + 2.0 * pot.v3 * at(m_tab, n - 1)
            )
            want = num / ((n + 1) * (n + k - 1))
            assert abs(a[n + 1] - want) <= 1e-13 * running_max[n + 1]

    def test_alpha_two_rejected(self):
        pot = PotentialSpec(1.0, 0.0, 0.0, 2, 0)
        with pytest.raises(UnsupportedExponentError):
            generate_coefficients(
                pot, MassProfile([1.0]),
                QuantumNumbers(3, 0, 0), -0.5, 8,
            )

    def test_k_one_rejected(self):
        with pytest.raises(DegenerateChannelError):
            generate_coefficients(
                make_coulomb(1.0), MassProfile([1.0]),
                QuantumNumbers(1, 0, 0), -0.5, 8,
            )

    def test_nonnegative_energy_rejected(self):
        with pytest.raises(DomainError):
            generate_coefficients(
                make_coulomb(1.0), MassProfile([1.0]),
                QuantumNumbers(3, 0, 0), 0.5, 8,
            )

    def test_kind_potential_mismatch_rejected(self):
        # the exp-mass Cornell recursion holds only for alpha = beta = 1 and
        # an exponential mass
        with pytest.raises(DomainError):
            expmass_cornell_coefficients(
                make_coulomb(1.0),
                MassProfile([1.0], 0.2), QuantumNumbers(3, 0, 0), -0.5, 8,
            )
        with pytest.raises(DomainError):
            expmass_cornell_coefficients(
                make_cornell(1.0, 0.5, 0.0),
                MassProfile([1.0]), QuantumNumbers(3, 0, 0), -0.5, 8,
            )

    def test_expmass_consistency_to_order_20(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pot = make_cornell(
                rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.5), rng.uniform(-1, 1)
            )
            m0, lam = rng.uniform(0.5, 2.0), rng.uniform(0.02, 1.0)
            mass = MassProfile([m0], lam)
            q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
            e = -rng.uniform(0.1, 3.0)
            s1 = expmass_cornell_coefficients(pot, mass, q, e, 20)
            s2 = generate_coefficients(pot, mass, q, e, 20)
            scale = np.maximum.accumulate(np.abs(s2.coeffs))
            rel = np.abs(s1.coeffs - s2.coeffs) / np.maximum(scale, 1e-300)
            assert np.max(rel) < 1e-12

    def test_deep_energy_is_refused_in_r_and_held_in_x(self):
        # at E = -1e5 with a decaying mass the coefficients in r pass the
        # float ceiling near exp(2b), b ~ 447, before order 500; in
        # x = r/2^x_exp at the solver's match radius 1.5/b none does
        pot, mass, q, e = make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2), \
            QuantumNumbers(3, 0, 0), -1e5
        with pytest.raises(DomainError, match="leaves the float range"):
            generate_coefficients(pot, mass, q, e, 500)
        whole = _whole(pot, mass, q, e, 500, 1.5 / b_from_energy(e, 1.0))
        assert whole.x_exp == -8 and np.all(np.isfinite(whole.coeffs))

    def test_out_of_range_names_energy_index_and_order(self):
        with pytest.raises(DomainError, match=(
            r"^the series at E=-1000000\.0 leaves the float range at a_\d+ "
            r"of truncation_order 500$"
        )):
            generate_coefficients(make_coulomb(1.0), MassProfile([1.0]),
                                  QuantumNumbers(3, 0, 1), -1e6, 500)


class TestBatchedEnergies:
    def test_scalar_call_reports_floats(self):
        sol = generate_coefficients(
            make_coulomb(1.3), MassProfile([0.9]),
            QuantumNumbers(3, 1, 0), -0.4, 16,
        )
        assert sol.coeffs.shape == (17,)
        for value in (sol.energy, sol.b, sol.a0):
            assert type(value) is float
        assert sol.x_exp == 0 and type(sol.x_exp) is int


def _array_table_recurrence(pot, mass, q, e, order):
    """The master recurrence in r on numpy tables, as the solver ran it
    before it moved to Python lists: (coefficients, b).  Frozen here as the
    reference the list version must match bit for bit; past the float
    ceiling its coefficients are inf or NaN."""
    k, ell = q.k, q.ell
    b = b_from_energy(e, mass.m0)
    a = np.zeros(order + 1)
    a[0] = 1.0
    mass_series, logderiv_series = mass.series(order)
    bmass = np.trim_zeros(mass_series, "b")
    blog = np.trim_zeros(logderiv_series, "b")
    lm, lb = len(bmass), len(blog)
    size = order + 1 + max(lm, lb)
    m_tab, mp_tab, t_tab = (np.zeros(size) for _ in range(3))

    def add_to_tables(j):
        m_tab[j : j + lm] += a[j] * bmass
        if lb:
            ab = a[j] * blog
            mp_tab[j : j + lb] += ab
            t_tab[j : j + lb] += j * ab

    def at(table, i):
        return table[i] if i >= 0 else 0.0

    add_to_tables(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(order):
            an = a[n]
            an1 = a[n - 1] if n >= 1 else 0.0
            num = (
                ((k - 1) + 2.0 * n) * b * an
                + ell * mp_tab[n]
                - b * at(mp_tab, n - 1)
                + t_tab[n]
                - 2.0 * e * at(m_tab, n - 1)
                - b * b * an1
                - 2.0 * pot.v1 * at(m_tab, n + pot.alpha - 1)
                + 2.0 * pot.v2 * at(m_tab, n - pot.beta - 1)
                + 2.0 * pot.v3 * at(m_tab, n - 1)
            )
            a[n + 1] = num / ((n + 1) * (n + k - 1))
            add_to_tables(n + 1)
    return a, b


def _in_r(sol):
    """The coefficients a_i in r of a series held in x = r/2^x_exp."""
    with np.errstate(over="ignore"):
        return np.ldexp(sol.coeffs, -sol.x_exp * np.arange(sol.coeffs.size))


def _reference_stop(a, r, order):
    """The index at which the stop rule of ``_stopped_series`` cuts the
    coefficients ``a`` in r, or ``order`` where it does not."""
    power, envelope, small = 1.0, 1.0, 0
    for n in range(1, order + 1):
        power *= r
        term = abs(a[n]) * power
        envelope += term
        small = small + 1 if n >= 4 and term <= 1e-20 * envelope < math.inf else 0
        if small == 3 and n < order:
            return n
    return order


def _random_case(rng):
    """A potential, mass, channel, energy and order drawn over alpha 0/1,
    beta 0-4, constant, exponential and polynomial masses, orders 4-128 and
    |E| 1e-2 to 3e3."""
    pot = PotentialSpec(
        float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.05, 2.0)),
        float(rng.uniform(-3.0, 3.0)), int(rng.integers(0, 2)), int(rng.integers(0, 5)),
    )
    kind = int(rng.integers(0, 3))
    m0 = float(rng.uniform(0.5, 2.0))
    if kind == 0:
        mass = MassProfile([m0])
    elif kind == 1:
        mass = MassProfile([m0], float(rng.uniform(0.01, 1.0)))
    else:  # a polynomial mass, sometimes with zero entries inside or at the end
        tail = rng.uniform(-0.3, 0.3, int(rng.integers(0, 6)))
        tail[rng.uniform(size=tail.size) < 0.3] = 0.0
        mass = MassProfile([m0, *tail.tolist()])
    q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
    e = -float(10.0 ** rng.uniform(-2.0, math.log10(3e3)))
    return pot, mass, q, e, int(rng.integers(4, 129))


class TestListRecurrenceMatchesArrayTables:
    """The recurrence on Python lists gives the coefficients and decay rate
    of the array-table recurrence bit for bit, in r and, scaled back, in x."""

    @staticmethod
    def _assert_same_bits(pot, mass, q, e, order):
        want, b = _array_table_recurrence(pot, mass, q, e, order)
        sol = generate_coefficients(pot, mass, q, e, order)
        assert np.array_equal(sol.coeffs, want)
        assert sol.b == b and sol.x_exp == 0
        assert type(sol.a0) is float
        return sol

    def test_seeded_random_cases(self):
        rng = np.random.default_rng(20261018)
        shapes, alphas, betas = set(), set(), set()
        for _ in range(320):
            pot, mass, q, e, order = _random_case(rng)
            self._assert_same_bits(pot, mass, q, e, order)
            # (decaying, P of degree >= 1): constant, exponential, polynomial
            shapes.add((mass.lam > 0, bool(np.any(mass.poly[1:]))))
            alphas.add(pot.alpha)
            betas.add(pot.beta)
        assert shapes == {(False, False), (True, False), (False, True)}
        assert alphas == {0, 1} and betas == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize(
        "pot, mass, e",
        [
            (make_coulomb(1.0), MassProfile([1.0]), -16000.0),
            (make_oscillator(1.0), MassProfile([1.0]), -16000.0),
            (make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2), -1e5),
            (make_coulomb(1.0), MassProfile([1.0, 0.5, 0.125]), -16000.0),
            (make_coulomb(1.0), MassProfile([1.0, -0.5, 0.125]), -1e5),
        ],
        ids=["coulomb", "oscillator", "expmass-cornell", "series-mass",
             "series-mass-neg"],
    )
    def test_deep_energy_in_x(self, pot, mass, e):
        # b >= 179 at order 500, held in x at the solver's match radius
        # 1.5/b: no coefficient is out of range, and scaled back each equals
        # the reference in r wherever that is finite, up to where the
        # x-series' own tail, below 1e-300 of its largest term, underflows
        q, order = QuantumNumbers(3, 0, 0), 500
        want, b = _array_table_recurrence(pot, mass, q, e, order)
        sol = _whole(pot, mass, q, e, order, 1.5 / b)
        a = sol.coeffs
        assert sol.b == b and sol.x_exp < 0 and np.all(np.isfinite(a))
        tiny = np.abs(a) < np.finfo(float).tiny
        cut = int(np.argmax(tiny | ~np.isfinite(want)))
        assert cut >= 200
        assert np.array_equal(_in_r(sol)[:cut], want[:cut])
        assert np.max(np.abs(a[cut:]), initial=0.0) < 1e-300 * np.max(np.abs(a))


def _stop_and_whole(pot, mass, q, e, order, r):
    """The series stopped at r, and the whole series in the same x, as the
    coefficient dump regenerates it."""
    stopped = _stopped_series(pot, mass, q, e, order, r)
    return stopped, _series(pot, mass, q, e, order, stopped.x_exp)


def _whole(pot, mass, q, e, order, r):
    """The series generated in the x of the radius r, to full order."""
    return _stop_and_whole(pot, mass, q, e, order, r)[1]


class TestStoppedSeries:
    """A series stopped at a radius is, scaled back to r, a bit-identical
    prefix of the reference series, cut at the reference's stop index, and
    generated whole in the same x it is the whole series."""

    @staticmethod
    def _assert_prefix_and_whole(pot, mass, q, e, order, r):
        want, b = _array_table_recurrence(pot, mass, q, e, order)
        stopped, whole = _stop_and_whole(pot, mass, q, e, order, r)
        assert stopped.coeffs.size - 1 == _reference_stop(want, r, order)
        assert np.array_equal(_in_r(stopped), want[: stopped.coeffs.size])
        assert stopped.b == whole.b == b
        assert stopped.x_exp == whole.x_exp == round(math.log2(r))
        assert np.array_equal(_in_r(whole), want)
        return stopped, whole

    def test_seeded_random_cases(self):
        rng = np.random.default_rng(20261019)
        stops = varying_stops = 0
        exps = set()
        for _ in range(240):
            pot, mass, q, e, _ = _random_case(rng)
            order = int(rng.integers(8, 129))
            r = float(rng.uniform(0.2, 3.0)) / b_from_energy(e, mass.m0)
            stopped, whole = self._assert_prefix_and_whole(pot, mass, q, e, order, r)
            exps.add(whole.x_exp)
            stopped_early = stopped.coeffs.size < order + 1
            stops += stopped_early
            varying_stops += stopped_early and (mass.lam > 0 or bool(np.any(mass.poly[1:])))
        assert 60 < stops < 240  # most series stop, some run whole
        assert varying_stops > 40  # many stop with folds of more than one term
        assert min(exps) < -3 and max(exps) > 3  # radii both sides of 1

    @pytest.mark.parametrize("e, order, rb, stop", [
        (-5e11, 60, 20.0, 60),
        (-2e8, 128, 60.0, 128),
        (-1e5, 200, 30.0, 146),
    ], ids=["unstopped-order-60", "unstopped-order-128", "stopped-at-146"])
    def test_deep_energy_gives_the_same_bits(self, e, order, rb, stop):
        # coefficients in r up to 1e300 (the E = -2e8 series passes the
        # float ceiling past a_120); in x the series is finite, and where
        # the reference is finite it has its bits and its stop
        pot = make_cornell(1.0, 0.2, -3.0)
        mass = MassProfile([1.0], 0.2)
        q = QuantumNumbers(3, 0, 0)
        r = rb / b_from_energy(e, 1.0)
        want, b = _array_table_recurrence(pot, mass, q, e, order)
        stopped, whole = _stop_and_whole(pot, mass, q, e, order, r)
        assert stopped.coeffs.size - 1 == stop == _reference_stop(want, r, order)
        assert np.array_equal(stopped.coeffs, whole.coeffs) == (stop == order)
        assert np.all(np.isfinite(whole.coeffs)) and whole.b == b
        finite = np.isfinite(want)
        assert np.array_equal(_in_r(whole)[finite], want[finite])

    @pytest.mark.parametrize("r", [0.016, 0.75, 25.0], ids=["x_exp-6", "x_exp0", "x_exp5"])
    def test_every_power_of_two_gives_the_same_bits(self, r):
        # a slowly decaying mass series pairs every earlier coefficient with
        # a term that sets bits in each later fold: held in x at radii
        # below, near and above 1, the series scaled back is the reference
        pot = make_cornell(1.0, 0.2, -3.0)
        mass = MassProfile([1.0], 3.0)
        q, e = QuantumNumbers(3, 0, 0), -600.0
        want, b = _array_table_recurrence(pot, mass, q, e, 64)
        whole = _whole(pot, mass, q, e, 64, r)
        assert whole.x_exp == {0.016: -6, 0.75: 0, 25.0: 5}[r]
        assert np.array_equal(_in_r(whole), want) and whole.b == b

    def test_never_stopping_radius_gives_the_whole_series(self):
        # the terms at r = 50/b still grow at order 96: the whole series, all
        # order + 1 coefficients, which is how the solver tells it apart
        pot, mass, q = make_oscillator(1.0), MassProfile([1.0]), QuantumNumbers(3, 1, 0)
        e = -17.0
        sol = _stopped_series(pot, mass, q, e, 96, 50.0 / b_from_energy(e, 1.0))
        want, _ = _array_table_recurrence(pot, mass, q, e, 96)
        assert sol.coeffs.size == 97
        assert np.array_equal(_in_r(sol), want)
