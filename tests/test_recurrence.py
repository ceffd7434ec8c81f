import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmradial.errors import (
    DegenerateChannelError,
    DomainError,
    UnsupportedExponentError,
)
from pdmradial.mass_expansion import constant_mass, expand_exponential, mass_from_series
from pdmradial.model import (
    PotentialSpec,
    QuantumNumbers,
    b_from_energy,
    make_cornell,
    make_coulomb,
)
from pdmradial.recurrence import (
    coefficient_closed_forms_cornell,
    coefficient_closed_forms_expmass,
    coulomb_closed_form_coefficients,
    coulomb_expmass_closed_forms,
    expmass_cornell_coefficients,
    generate_coefficients,
)
from pdmradial.wavefunction import RadialWavefunction, ode_residual


class TestFirstCoefficients:
    def test_cornell_constant_mass_a1(self):
        A, m0, e = 0.9, 1.2, -0.8
        pot = make_cornell(A, 0.4, 0.1)
        q = QuantumNumbers(3, 1, 0)  # k = 5
        sol = generate_coefficients(pot, constant_mass(m0), q, e, 4)
        b = b_from_energy(e, m0)
        assert sol.coeffs[1] == pytest.approx(b - 2 * A * m0 / (q.k - 1), rel=1e-14)

    def test_cornell_constant_mass_a2(self):
        A, B, C, m0, e = 0.7, 0.3, -0.2, 1.0, -1.1
        pot = make_cornell(A, B, C)
        q = QuantumNumbers(4, 0, 0)  # k = 4
        sol = generate_coefficients(pot, constant_mass(m0), q, e, 4)
        b = b_from_energy(e, m0)
        k = q.k
        a1 = b - 2 * A * m0 / (k - 1)
        a2 = ((k + 1) * b - 2 * A * m0) / (2 * k) * a1 + (2 * C * m0) / (2 * k)
        assert sol.coeffs[2] == pytest.approx(a2, rel=1e-13)

    def test_expmass_a1(self):
        A, m0, lam, e = 1.1, 0.9, 0.4, -0.6
        pot = make_cornell(A, 0.2, 0.0)
        q = QuantumNumbers(3, 2, 0)  # k = 7, l = 2
        mass = expand_exponential(m0, lam, 8)
        sol = expmass_cornell_coefficients(pot, mass, q, e, 4)
        b = b_from_energy(e, m0)
        expected = b - (q.ell * lam + 2 * A * m0) / (q.k - 1)
        assert sol.coeffs[1] == pytest.approx(expected, rel=1e-14)

    def test_free_particle_series_solves_ode(self):
        pot = PotentialSpec.free()
        mass = constant_mass(1.0)
        q = QuantumNumbers(3, 0, 0)
        e = -0.7
        sol = generate_coefficients(pot, mass, q, e, 48)
        wave = RadialWavefunction.from_solution(sol)
        for r in (0.1, 0.4, 0.8, 1.0):
            assert ode_residual(wave, pot, mass, e, r) < 1e-10


class TestClosedFormsCornell:
    def test_agrees_with_recurrence_random_mass(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pot = make_cornell(
                rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.5), rng.uniform(-1, 1)
            )
            mass = mass_from_series(
                np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-0.3, 0.3, 3)])
            )
            q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
            e = -rng.uniform(0.1, 3.0)
            sol = generate_coefficients(pot, mass, q, e, 4)
            closed = coefficient_closed_forms_cornell(pot, mass, q, e)
            for i in range(3):
                assert abs(sol.coeffs[i + 1] - closed[i]) < 1e-12

    def test_a1_reduces_to_b_without_coupling(self):
        # constant mass, A = 0, C = 0: a1 = b a0
        pot = make_cornell(0.0, 0.5, 0.0)
        mass = constant_mass(1.0)
        q = QuantumNumbers(3, 0, 0)
        e = -0.9
        a1, _, _ = coefficient_closed_forms_cornell(pot, mass, q, e)
        assert a1 == pytest.approx(b_from_energy(e, mass.m0))

    def test_degenerate_channel_rejected(self):
        pot = make_cornell(1.0, 0.1, 0.0)
        with pytest.raises(DegenerateChannelError):
            coefficient_closed_forms_cornell(
                pot, constant_mass(1.0), QuantumNumbers(1, 0, 0), -0.5
            )


class TestClosedFormsExpmass:
    def test_lambda_to_zero_limit(self):
        # continuity in lam: the exp-mass forms approach the constant-mass
        # Cornell forms as lam -> 0+
        pot = make_cornell(0.8, 0.3, -0.4)
        q = QuantumNumbers(4, 1, 0)
        m0, e = 1.3, -0.7
        ref = coefficient_closed_forms_cornell(pot, constant_mass(m0), q, e)
        got = coefficient_closed_forms_expmass(pot, m0, 1e-9, q, e)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_a3_matches_general_mass_form_term_by_term(self):
        # the exponential-mass a3 equals the general-mass a3 with
        # b'_0 = -lam, b'_1 = b'_2 = 0, b_1 = m1, b_2 = m2 substituted
        pot = make_cornell(0.6, 0.25, 0.15)
        q = QuantumNumbers(3, 1, 0)
        m0, lam, e = 1.1, 0.35, -0.9
        mass = expand_exponential(m0, lam, 4)
        ref = coefficient_closed_forms_cornell(pot, mass, q, e)
        got = coefficient_closed_forms_expmass(pot, m0, lam, q, e)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_agrees_with_recursion(self):
        pot = make_cornell(1.4, 0.6, -0.3)
        q = QuantumNumbers(5, 0, 0)
        m0, lam, e = 0.8, 0.22, -1.4
        mass = expand_exponential(m0, lam, 8)
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
            sol = generate_coefficients(make_coulomb(a_c), constant_mass(m0), q, e, 24)
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
        mass = constant_mass(1.0)
        q = QuantumNumbers(3, 0, 0)
        sol = generate_coefficients(pot, mass, q, -0.8, 12)
        scaled = sol.scaled(scale)
        assert scaled.coeffs == pytest.approx(scale * sol.coeffs, rel=1e-15)

    def test_master_recurrence_from_scratch_tables(self):
        # rebuild M, M' and T with np.convolve from the final coefficient
        # vector and check that every generated a_{n+1} satisfies the master
        # recurrence with them
        pot = make_cornell(0.8, 0.4, -0.1)
        mass = mass_from_series([1.0, -0.5, 0.125, 0.3])
        q = QuantumNumbers(3, 1, 0)
        e, order = -0.7, 30
        sol = generate_coefficients(pot, mass, q, e, order)
        a = sol.coeffs
        m_tab = np.convolve(a, mass.mass_series)[: order + 1]
        mp_tab = np.convolve(a, mass.logderiv_series)[: order + 1]
        t_tab = np.convolve(np.arange(order + 1) * a, mass.logderiv_series)[
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
                pot, constant_mass(1.0),
                QuantumNumbers(3, 0, 0), -0.5, 8,
            )

    def test_k_one_rejected(self):
        with pytest.raises(DegenerateChannelError):
            generate_coefficients(
                make_coulomb(1.0), constant_mass(1.0),
                QuantumNumbers(1, 0, 0), -0.5, 8,
            )

    def test_nonnegative_energy_rejected(self):
        with pytest.raises(DomainError):
            generate_coefficients(
                make_coulomb(1.0), constant_mass(1.0),
                QuantumNumbers(3, 0, 0), 0.5, 8,
            )

    def test_kind_potential_mismatch_rejected(self):
        # the exp-mass Cornell recursion holds only for alpha = beta = 1 and
        # an exponential mass
        with pytest.raises(DomainError):
            expmass_cornell_coefficients(
                make_coulomb(1.0),
                expand_exponential(1.0, 0.2, 8), QuantumNumbers(3, 0, 0), -0.5, 8,
            )
        with pytest.raises(DomainError):
            expmass_cornell_coefficients(
                make_cornell(1.0, 0.5, 0.0),
                constant_mass(1.0), QuantumNumbers(3, 0, 0), -0.5, 8,
            )

    def test_expmass_consistency_to_order_20(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pot = make_cornell(
                rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.5), rng.uniform(-1, 1)
            )
            m0, lam = rng.uniform(0.5, 2.0), rng.uniform(0.02, 1.0)
            mass = expand_exponential(m0, lam, 20)
            q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
            e = -rng.uniform(0.1, 3.0)
            s1 = expmass_cornell_coefficients(pot, mass, q, e, 20)
            s2 = generate_coefficients(pot, mass, q, e, 20)
            scale = np.maximum.accumulate(np.abs(s2.coeffs))
            rel = np.abs(s1.coeffs - s2.coeffs) / np.maximum(scale, 1e-300)
            assert np.max(rel) < 1e-12

    def test_overflow_guard_rescales(self):
        # a deep trial energy makes coefficients peak around exp(2b) >> 1e150
        pot = make_coulomb(1.0)
        mass = constant_mass(1.0)
        e = -16000.0  # b ~ 179, peak coefficient ~ e^358
        sol = generate_coefficients(pot, mass, QuantumNumbers(3, 0, 0), e, 500)
        assert np.all(np.isfinite(sol.coeffs))
        assert sol.scale_log10 > 0


class TestBatchedEnergies:
    def test_scalar_call_reports_floats(self):
        sol = generate_coefficients(
            make_coulomb(1.3), constant_mass(0.9),
            QuantumNumbers(3, 1, 0), -0.4, 16,
        )
        assert sol.coeffs.shape == (17,)
        for value in (sol.energy, sol.b, sol.a0, sol.scale_log10):
            assert type(value) is float
