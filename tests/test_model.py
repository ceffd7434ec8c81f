import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmradial.errors import DomainError
from pdmradial.model import (
    EigenResult,
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    SeriesSolution,
    _horner,
    b_from_energy,
    make_cornell,
    make_coulomb,
    make_linear,
    make_oscillator,
)


class TestPotentialConstructors:
    def test_cornell_fields(self):
        pot = make_cornell(0.5, 0.2, -0.1)
        assert (pot.v1, pot.v2, pot.v3, pot.alpha, pot.beta) == (0.5, 0.2, -0.1, 1, 1)

    def test_cornell_degenerates_to_coulomb(self):
        pot = make_cornell(1.0, 0.0, 0.0)
        assert pot.v1 == 1.0 and pot.v2 == 0.0 and pot.alpha == 1

    def test_cornell_rejects_negative_couplings(self):
        with pytest.raises(DomainError):
            make_cornell(-1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            make_cornell(1.0, -0.5, 0.0)

    def test_coulomb_fields(self):
        pot = make_coulomb(2.5)
        assert (pot.v1, pot.v2, pot.v3, pot.alpha, pot.beta) == (2.5, 0.0, 0.0, 1, 0)

    def test_oscillator_fields(self):
        pot = make_oscillator(3.0)
        assert (pot.v1, pot.v2, pot.v3, pot.alpha, pot.beta) == (0.0, 9.0, 0.0, 0, 2)

    def test_linear_fields(self):
        pot = make_linear(0.7)
        assert (pot.v1, pot.v2, pot.v3, pot.alpha, pot.beta) == (0.0, 0.7, 0.0, 0, 1)

    @pytest.mark.parametrize("ctor", [make_coulomb, make_oscillator, make_linear])
    def test_named_constructors_reject_nonpositive(self, ctor):
        with pytest.raises(DomainError):
            ctor(0.0)
        with pytest.raises(DomainError):
            ctor(-1.0)

    def test_both_couplings_zero_needs_free(self):
        with pytest.raises(DomainError):
            PotentialSpec(0.0, 0.0, 1.0, 1, 1)
        pot = PotentialSpec.free(v3=1.0)
        assert pot.v3 == 1.0

    @pytest.mark.parametrize("fields", [
        (math.nan, 1.0, 0.0), (1.0, math.inf, 0.0), (1.0, 1.0, -math.inf),
        (1.0, math.nan, 0.0), (0.0, 1.0, math.nan),
    ], ids=["nan-v1", "inf-v2", "inf-v3", "nan-v2", "nan-v3"])
    def test_couplings_and_offset_must_be_finite(self, fields):
        # a NaN or infinite term would reach the collocation eigensolve
        # and fail there with numpy's LinAlgError
        with pytest.raises(DomainError, match=r"potential v[123] must be finite"):
            PotentialSpec(*fields, 1, 1)

    def test_exponents_must_be_nonnegative_integers(self):
        with pytest.raises(DomainError):
            PotentialSpec(1.0, 0.0, 0.0, -1, 0)
        with pytest.raises(DomainError):
            PotentialSpec(1.0, 0.0, 0.0, 1.5, 0)

    def test_value_evaluates_all_terms(self):
        pot = make_cornell(2.0, 0.5, -1.0)
        assert pot.value(2.0) == pytest.approx(-1.0 + 1.0 - 1.0)
        arr = pot.value(np.array([1.0, 2.0]))
        assert arr == pytest.approx([-2.5, -1.0])


# every potential kind of the config reader; the `general` ones include
# beta = 3, a power numpy takes through pow (the array path), and alpha = 0
# with v1 != 0, a constant term
VALUE_SPECS = [
    make_coulomb(1.3),
    make_cornell(0.7, 0.3, -1.1),
    make_oscillator(1.7),
    make_linear(0.9),
    PotentialSpec(0.5, 0.2, 0.1, 1, 3),
    PotentialSpec(0.5, 0.2, 0.1, 0, 1),
    PotentialSpec(0.4, 0.6, -0.2, 1, 2),
    PotentialSpec(0.8, 0.0, 0.3, 0, 0),
]


class TestValueOnFloats:
    @settings(max_examples=400)
    @given(
        pot=st.sampled_from(VALUE_SPECS),
        r=st.floats(min_value=0.0, allow_nan=False) | st.floats(1e-3, 1e3),
    )
    def test_float_equals_array_bit_for_bit(self, pot, r):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = pot.value(np.array([r]))[0]
            got = pot.value(r)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()

    def test_coulomb_at_the_origin_is_minus_infinity(self):
        pot = make_coulomb(1.0)
        assert pot.value(0.0) == -math.inf
        with np.errstate(divide="ignore"):
            assert pot.value(np.array([0.0]))[0] == -math.inf


class TestQuantumNumbers:
    def test_k_combination(self):
        assert QuantumNumbers(3, 1, 0).k == 5
        assert QuantumNumbers(2, 0, 4).k == 2

    def test_invalid_values(self):
        with pytest.raises(DomainError):
            QuantumNumbers(0, 0, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(3, -1, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(3, 0, -2)


class TestBFromEnergy:
    def test_simple_values(self):
        assert b_from_energy(-0.5, 1.0) == pytest.approx(1.0)
        assert b_from_energy(-2.0, 1.0) == pytest.approx(2.0)

    def test_coulomb_decay_rate(self):
        # E = -A^2 m0 / (2 (n+l+1)^2)  =>  b = A m0 / (n+l+1)
        a_c, m0, n, ell = 1.3, 0.8, 2, 1
        e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
        assert b_from_energy(e, m0) == pytest.approx(a_c * m0 / (n + ell + 1))

    def test_rejects_nonnegative_energy(self):
        with pytest.raises(DomainError):
            b_from_energy(0.0, 1.0)
        with pytest.raises(DomainError):
            b_from_energy(1.0, 1.0)

    @given(
        b=st.floats(min_value=1e-3, max_value=1e3),
        m0=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_roundtrip_on_decay_rates(self, b, m0):
        e = -b * b / (2.0 * m0)
        assert b_from_energy(e, m0) == pytest.approx(b, rel=1e-14)


class TestMassProfile:
    def test_constant_profile(self):
        mass = MassProfile([1.5])
        mass_series, logderiv_series = mass.series(4)
        assert mass.m0 == 1.5 and type(mass.m0) is float
        assert np.all(mass_series[1:] == 0.0)
        assert np.all(logderiv_series == 0.0)
        assert mass.mass_at(3.0) == 1.5
        assert mass.logderiv_at(3.0) == 0.0

    def test_exponential_profile_coefficients(self):
        mass_series, logderiv_series = MassProfile([2.0], 0.5).series(4)
        nu = np.arange(5)
        expected = 2.0 * (-0.5) ** nu / np.array([1, 1, 2, 6, 24])
        assert mass_series == pytest.approx(expected, rel=1e-14)
        assert logderiv_series[0] == -0.5
        assert np.all(logderiv_series[1:] == 0.0)

    def test_inconsistent_series_rejected(self):
        # the derived series of m0 e^(-50 r) at order 64 miss the Cauchy
        # identity by more than its tolerance
        with pytest.raises(DomainError, match="does not match"):
            MassProfile([1.0], 50.0).series(64)

    def test_non_finite_series_rejected(self):
        # the residual of an overflowed series is NaN, which passes any
        # tolerance comparison; the series itself is refused
        with pytest.raises(DomainError, match="not finite"):
            MassProfile([1.0], 1e300).series(64)
        with pytest.raises(DomainError, match="not finite"):
            MassProfile([1.0, np.inf])
        with pytest.raises(DomainError, match="not finite"):
            MassProfile([1.0, 1e5]).series(64)

    def test_custom_profile_consistency(self):
        b, bp = MassProfile([1.0, 0.3, -0.2, 0.05]).series(0)
        order = b.size - 1
        prod = np.convolve(bp, b)[:order]
        deriv = np.arange(1, order + 1) * b[1:]
        assert prod == pytest.approx(deriv, abs=1e-12)

    def test_extended_is_exact_for_closed_forms(self):
        mass_series, _ = MassProfile([1.0], 0.3).series(10)
        assert mass_series.size == 11
        assert mass_series[7] == pytest.approx((-0.3) ** 7 / math.factorial(7))

    def test_custom_is_used_as_given(self):
        # a polynomial mass keeps P and carries P'/P = 0.2 / (1 + 0.2 r) to
        # the new order
        mass = MassProfile([1.0, 0.2])
        mass_series, logderiv_series = mass.series(5)
        assert mass_series.size == 6
        assert np.array_equal(mass.poly, [1.0, 0.2])
        assert np.array_equal(mass_series, [1.0, 0.2, 0.0, 0.0, 0.0, 0.0])
        assert logderiv_series == pytest.approx(
            0.2 * (-0.2) ** np.arange(6), rel=1e-14)

    def test_closed_forms_are_exact_for_a_polynomial(self):
        mass = MassProfile([1.0, 0.2, 0.01])
        r = np.array([0.0, 0.5, 3.0, 40.0])
        p, dp, d2p = 1.0 + 0.2 * r + 0.01 * r * r, 0.2 + 0.02 * r, 0.02
        np.testing.assert_allclose(mass.mass_at(r), p, rtol=1e-15)
        np.testing.assert_allclose(mass.logderiv_at(r), dp / p, rtol=1e-15)
        np.testing.assert_allclose(mass.terms_at(r)[2], d2p / p - (dp / p) ** 2,
                                   rtol=1e-14)
        assert mass.logderiv_at(3.0) == mass.logderiv_at(np.array([3.0]))[0]

    @pytest.mark.parametrize("poly, lam", [([1.3], 0.0), ([1.0, 0.2, 0.01], 0.0),
                                           ([0.9], 0.25), ([1.0, -0.1, 0.03], 0.4)])
    def test_terms_in_one_pass_keep_the_bits(self, poly, lam):
        # m and m'/m from the one pass over P are the bits of mass_at and
        # logderiv_at, and (m'/m)' is P''/P - (P'/P)^2, lam dropping out
        mass = MassProfile(np.array(poly), lam)
        r = np.linspace(0.01, 30.0, 97)
        m, g, dg = mass.terms_at(r)
        assert m.tobytes() == mass.mass_at(r).tobytes()
        assert g.tobytes() == mass.logderiv_at(r).tobytes()
        p = np.polyval(poly[::-1], r)
        dp = np.polyval(np.polyder(poly[::-1]), r)
        d2p = np.polyval(np.polyder(poly[::-1], 2), r)
        np.testing.assert_allclose(dg, d2p / p - (dp / p) ** 2, rtol=1e-12, atol=1e-15)


    @pytest.mark.parametrize("poly, lam", [([1.3], 0.0), ([0.9], 0.25),
                                           ([1.0, 0.2, 0.01], 0.0),
                                           ([1.0, -0.1, 0.03], 0.4)],
                             ids=["constant", "exponential", "polynomial",
                                  "polynomial-exponential"])
    def test_series_is_a_prefix_of_a_longer_one(self, poly, lam):
        # a lower order is the same entries, bit for bit, not a re-rounding
        mass = MassProfile(poly, lam)
        for n, m in ((0, 1), (1, 2), (2, 5), (5, 64), (0, 128)):
            for short, long in zip(mass.series(n), mass.series(m)):
                assert short.size == max(n, len(poly) - 1) + 1
                assert long.size == max(m, len(poly) - 1) + 1
                assert short.tobytes() == long[: short.size].tobytes()

    def test_series_is_read_only_and_derived_once(self):
        mass = MassProfile([1.0, 0.2], 0.5)
        mass_series, logderiv_series = mass.series(8)
        for a in (mass_series, logderiv_series):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 2.0
        # an equal mass shares the entry; one whose lam differs only in the
        # sign of zero or in its type has its own
        assert MassProfile(np.array([1.0, 0.2]), 0.5).series(8)[0] is mass_series
        assert MassProfile([1.0], 0.0).series(3)[1] is not MassProfile([1.0], -0.0).series(3)[1]
        assert MassProfile([1.0], 1).series(3)[0] is not MassProfile([1.0], 1.0).series(3)[0]
        with pytest.raises(DomainError, match="order must be an integer >= 0"):
            mass.series(-1)


class TestSeriesSolution:
    def _solution(self):
        return SeriesSolution(
            energy=-0.5,
            b=1.0,
            coeffs=np.array([1.0, -1.0, 0.25]),
            quantum=QuantumNumbers(3, 0, 0),
        )

    def test_invariants(self):
        sol = self._solution()
        assert sol.coeffs[0] == sol.a0 != 0
        assert type(sol.a0) is float

    def test_scaling_is_homogeneous(self):
        sol = self._solution()
        scaled = sol.scaled(3.0)
        assert scaled.coeffs == pytest.approx(3.0 * sol.coeffs)
        assert scaled.a0 == pytest.approx(3.0)

    def test_rejects_positive_energy(self):
        with pytest.raises(DomainError):
            SeriesSolution(0.5, 1.0, np.array([1.0]), QuantumNumbers(3, 0, 0))

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(DomainError):
            SeriesSolution(-0.5, 1.0, np.array([0.0, 1.0]), QuantumNumbers(3, 0, 0))


def test_eigenresult_requires_positive_norm():
    with pytest.raises(DomainError):
        EigenResult(energy=-1.0, nodes=0, norm_const=0.0, tail_residual=0.0)


class TestHorner:
    COEFFS = np.array([0.7, -1.3, 0.25, 2.0, -0.4, 0.05])

    @pytest.mark.parametrize("r", [0.0, 0.37, 1.9, np.linspace(0.0, 3.0, 7)])
    def test_value_and_derivatives_match_polyval(self, r):
        from numpy.polynomial import polynomial as P

        for derivs in (0, 1, 2):
            got = _horner(self.COEFFS, r, derivs=derivs)
            values = (got,) if derivs == 0 else got
            assert len(values) == derivs + 1
            for d, value in enumerate(values):
                want = P.polyval(r, P.polyder(self.COEFFS, d))
                assert np.shape(value) == np.shape(r)
                np.testing.assert_allclose(value, want, rtol=1e-13, atol=1e-13)

    def test_scalar_radius_gives_python_float(self):
        assert type(_horner(self.COEFFS, np.float64(0.5))) is float
        assert all(type(v) is float for v in _horner(self.COEFFS, 0.5, derivs=2))
