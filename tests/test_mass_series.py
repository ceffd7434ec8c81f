import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmradial import cli
from pdmradial.errors import DomainError, SeriesDivisionError
from pdmradial.model import MassProfile, _horner, logderiv_from_series


class TestExponentialMassSeries:
    # the series of the exponential mass m0 e^(-lam r), MassProfile([m0], lam)
    def test_taylor_of_exp_minus_r(self):
        mass_series, _ = MassProfile([1.0], 1.0).series(3)
        assert mass_series == pytest.approx([1.0, -1.0, 0.5, -1.0 / 6.0])

    def test_order_zero_keeps_logderiv(self):
        mass_series, logderiv_series = MassProfile([1.0], 0.1).series(0)
        assert mass_series == pytest.approx([1.0])
        assert logderiv_series == pytest.approx([-0.1])

    def test_linear_term(self):
        mass_series, _ = MassProfile([2.0], 1.0).series(1)
        assert mass_series == pytest.approx([2.0, -2.0])

    def test_rejects_nonpositive_lambda(self):
        # a mass block of kind exponential needs lam > 0; MassProfile itself
        # takes lam = 0 as the constant mass and refuses lam < 0
        with pytest.raises(cli.ConfigError, match="mass.lambda: .*lam > 0"):
            cli._mass({"kind": "exponential", "m0": 1.0, "lambda": 0.0})
        with pytest.raises(DomainError):
            MassProfile([1.0], -0.3)


class TestLogderivFromSeries:
    def test_constant_mass_is_zero(self):
        assert logderiv_from_series([2.0]) == pytest.approx([0.0])

    def test_exponential_series_gives_constant(self):
        lam = 0.37
        mass_series, _ = MassProfile([1.0], lam).series(4)
        logd = logderiv_from_series(mass_series)
        expected = np.zeros(4)
        expected[0] = -lam
        assert logd == pytest.approx(expected, abs=1e-12)

    def test_one_plus_r(self):
        # m = 1 + r: m'/m = 1/(1+r) = 1 - r + r^2 - ... by long division
        logd = logderiv_from_series([1.0, 1.0], order=2)
        assert logd == pytest.approx([1.0, -1.0, 1.0])

    def test_rejects_degenerate_leading_coefficient(self):
        with pytest.raises(SeriesDivisionError):
            logderiv_from_series([0.0, 1.0])
        with pytest.raises(SeriesDivisionError):
            logderiv_from_series([-1.0, 1.0])

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=6),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_division_roundtrip(self, rest, lead):
        # Cauchy(mass, logderiv)[nu] == (nu+1) mass[nu+1] for all retained nu
        coeffs = np.array([lead] + rest)
        order = coeffs.size - 1
        logd = logderiv_from_series(coeffs)
        if order == 0:
            assert logd == pytest.approx([0.0])
            return
        prod = np.convolve(logd, coeffs)[:order]
        deriv = np.arange(1, order + 1) * coeffs[1:]
        scale = max(1.0, float(np.max(np.abs(coeffs))), float(np.max(np.abs(logd))))
        assert prod == pytest.approx(deriv, abs=1e-12 * scale)


class TestHornerOnMassSeries:
    # the one series evaluator, model._horner, on mass series
    def test_constant_term_at_origin(self):
        assert _horner(np.array([1.0, -1.0, 0.5]), 0.0) == 1.0

    def test_exponential_partial_sum(self):
        mass_series, _ = MassProfile([1.0], 1.0).series(20)
        assert _horner(mass_series, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_degree_zero(self):
        for r in (0.0, 1.0, 17.3):
            assert _horner(np.array([5.0]), r) == 5.0

    def test_exponential_profile_matches_closed_form(self):
        lam = 0.8
        mass_series, _ = MassProfile([1.3], lam).series(40)
        for r in np.linspace(0.1, 5.0 / lam, 7):
            assert _horner(mass_series, r) == pytest.approx(
                1.3 * math.exp(-lam * r), rel=1e-10
            )


class TestMassCoefficientShape:
    def test_validates_shape(self):
        # mass coefficients come from a config: a 2-d or empty array is refused
        with pytest.raises(DomainError):
            MassProfile(np.ones((2, 2)))
        with pytest.raises(DomainError):
            MassProfile([])
        assert MassProfile([1.0, 2.0]).series(0)[0].size == 2


def test_profile_requires_positive_leading_coefficient():
    with pytest.raises(DomainError):
        MassProfile([0.0, 1.0])


def test_zero_constant_mass_rejected():
    with pytest.raises(DomainError):
        MassProfile([0.0])
