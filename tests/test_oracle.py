import math

import numpy as np
import pytest

import pdmradial.oracle as oracle_mod
import pdmradial.tail as tail_mod
from pdmradial.eigensolver import SolverConfig, find_eigenvalue
from pdmradial.errors import BracketError, DomainError, ResolutionError
from pdmradial.mass_expansion import constant_mass, expand_exponential
from pdmradial.model import PotentialSpec, QuantumNumbers, make_cornell, make_coulomb
from pdmradial.oracle import channel_spectrum, collocation_eigenvalue
from pdmradial.tail import (
    integrate_radial,
    make_leg,
    outer_turning_radius,
)


def test_oracle_imports_no_series_machinery():
    # the oracle must stay an independent check: domain types, and from the
    # tail leg only the radius that places r_max
    import ast
    from pathlib import Path

    tree = ast.parse(Path(oracle_mod.__file__).read_text())
    modules, from_tail = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            modules.update(alias.name for alias in node.names)
            if node.module == "tail":
                from_tail.update(alias.name for alias in node.names)
    assert not any(
        name in m for m in modules
        for name in ("recurrence", "wavefunction", "eigensolver")
    )
    assert from_tail == {"tail_radius"}


COULOMB = make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0)


class TestMakeLeg:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_leg(*COULOMB, 0.0, 10.0, 2000)
        with pytest.raises(DomainError):
            make_leg(*COULOMB, 1e-6, 10.0, 500)
        with pytest.raises(DomainError):
            make_leg(*COULOMB, 1.0, 0.5, 2000)

    def test_step_is_uniform(self):
        leg = make_leg(*COULOMB, 1e-6, 10.0, 10001)
        assert leg.r[0] == 1e-6 and leg.r[-1] == 10.0
        assert np.allclose(np.diff(leg.r), leg.h)


class TestOuterTurningRadius:
    def test_coulomb(self):
        pot = make_coulomb(1.0)
        mass = constant_mass(1.0)
        assert outer_turning_radius(pot, mass, -0.5) == pytest.approx(2.0, rel=1e-9)

    def test_no_turning_point(self):
        # energy below the potential everywhere: no classical region at all
        pot = PotentialSpec(0.0, 1.0, 0.0, 0, 2)
        assert outer_turning_radius(pot, constant_mass(1.0), -1.0) == 0.0


class TestIntegrateRadial:
    def test_constant_mass_drops_first_derivative_term(self):
        from pdmradial.tail import _potential_arrays

        r = np.linspace(0.1, 5.0, 50)
        g, _, _ = _potential_arrays(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0), r
        )
        assert np.all(g == 0.0)

    def test_inward_decays_toward_large_r(self):
        R, _ = integrate_radial(make_leg(*COULOMB, 2.0, 30.0, 4001), -0.5)
        assert abs(R[-1]) < abs(R[0])


class TestInwardKernel:
    @staticmethod
    def _loop_reference(w, h, start):
        # the per-point long-double recurrence the banded solve replaced
        n = w.size
        h12 = np.longdouble(h) ** 2 / 12.0
        wl = w.astype(np.longdouble)
        c, d = 1.0 - h12 * wl, 2.0 + 10.0 * h12 * wl
        y = np.zeros(n, dtype=np.longdouble)
        y[n - 1], y[n - 2] = start
        for i in range(n - 3, -1, -1):
            y[i] = (d[i + 1] * y[i + 1] - c[i + 2] * y[i + 2]) / c[i]
        return y.astype(float)

    def test_matches_long_double_loop(self):
        # float64 against 80-bit on a stable inward run: agreement to a
        # few thousand float64 roundings, up to the arbitrary overall scale.
        # w is the Liouville form of the l = 0 exponential-mass Cornell
        # channel (m0 = 1, lambda = 0.2; a = 1, b = 0.2, c = -3) at E = -3.
        from pdmradial.tail import _numerov_inward

        r, h = np.linspace(0.3, 30.0, 4001), (30.0 - 0.3) / 4000
        w = 0.2 / r + 0.01 + 2.0 * np.exp(-0.2 * r) * (0.2 * r - 1.0 / r)
        start = (1.0, 1.01)
        ratio = _numerov_inward(w, 0.0, 0.0, r, h, start) / self._loop_reference(
            w, h, start
        )
        assert np.max(np.abs(ratio / ratio[-1] - 1.0)) < 1e-9

    def test_coulomb_ground_state_tail(self):
        # R = r e^{-r} at E = -1/2: R / (r e^{-r}) flat over the inward run
        leg = make_leg(*COULOMB, 0.5, 40.0, 8001)
        R, _ = integrate_radial(leg, -0.5)
        r = leg.r
        sel = r <= 30.0
        ratio = R[sel] / (r[sel] * np.exp(-r[sel]))
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_oscillator_growth_spans_several_segments(self):
        # omega = 1, v3 = -20: the inward solution grows by about e^1131, far
        # beyond float64, so the solve must be cut into rescaled segments.
        # The ground state is R = r e^{-r^2/sqrt(2)} at E = 3/sqrt(2) - 20.
        leg = make_leg(
            PotentialSpec(0.0, 1.0, -20.0, 0, 2), constant_mass(1.0),
            QuantumNumbers(3, 0, 0), 0.5, 40.0, 16001,
        )
        R, Rp = integrate_radial(leg, 3.0 / math.sqrt(2.0) - 20.0)
        assert np.all(np.isfinite(R)) and np.all(np.isfinite(Rp))
        r = leg.r
        sel = r <= 30.0
        shape = np.log(np.abs(R[sel])) + r[sel] ** 2 / math.sqrt(2.0) - np.log(r[sel])
        drift = np.abs(shape - shape[0])
        assert np.max(drift[r[sel] <= 6.0]) < 1e-8
        # segments are cut near r = 18 and 27: a wrong rescale there would
        # show as a jump of order 300 in the log
        assert np.max(drift) < 1e-3

    def test_overflow_names_the_radius(self, monkeypatch):
        # without segment cuts the same run overflows float64; the solver
        # must say where instead of returning non-finite values
        monkeypatch.setattr(tail_mod, "_SEGMENT_EXPONENT", 1e9)
        leg = make_leg(
            PotentialSpec(0.0, 1.0, -20.0, 0, 2), constant_mass(1.0),
            QuantumNumbers(3, 0, 0), 0.5, 40.0, 16001,
        )
        with pytest.raises(DomainError, match=r"not finite at r="):
            integrate_radial(leg, 3.0 / math.sqrt(2.0) - 20.0)


class TestBatchedInwardLeg:
    """The inward leg's energy-independent arrays, built once and shared."""

    POT = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
    Q = QuantumNumbers(3, 0, 0)
    GRID = 0.5, 30.0, 12001

    def _check(self, mass, energies):
        # one leg serves every trial energy of a root solve; each run on it
        # must equal a run on a leg built for that energy alone, and leave
        # the leg as it was
        leg = make_leg(self.POT, mass, self.Q, *self.GRID)
        before = [np.copy(a) for a in (leg.r, leg.w0, leg.m2, leg.s, leg.g)]
        for e in energies:
            shared = integrate_radial(leg, float(e))
            single = integrate_radial(make_leg(self.POT, mass, self.Q, *self.GRID), float(e))
            assert all(np.array_equal(a, b) for a, b in zip(shared, single)), e
        after = (leg.r, leg.w0, leg.m2, leg.s, leg.g)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_match_values_equal_single_runs(self):
        self._check(constant_mass(1.0), np.linspace(-19.0, -9.0, 11))

    def test_varying_mass(self):
        self._check(expand_exponential(1.0, 0.05, 64), np.linspace(-19.0, -12.0, 5))


@pytest.mark.parametrize("n", [8, 80, 120])
def test_second_derivative_matrix(n):
    # entrywise D2 equals D @ D up to rounding and differentiates a cubic
    d, d2, x = oracle_mod._cheb(n)
    assert np.max(np.abs(d2 - d @ d)) < 1e-13 * np.max(np.abs(d2))
    assert np.max(np.abs(d2 @ x**3 - 6.0 * x)) < 1e-15 * n**4


class TestNumerovEigenvalue:
    """The oracle's eigenvalue, ``collocation_eigenvalue``."""

    def test_hydrogen_ground_state(self):
        e = collocation_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
            (-0.6, -0.4),
        )
        assert e == pytest.approx(-0.5, rel=1e-10)

    @pytest.mark.parametrize("dim,ell", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
    def test_coulomb_closed_form(self, dim, ell):
        # k = 2 and k = 4 included: the regularity row at r = 0 selects the
        # regular branch however weakly the two origin branches separate
        for n in range(3):
            nu = n + (dim + 2 * ell - 1) / 2.0
            e_ref = -1.0 / (2.0 * nu * nu)
            e = collocation_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(dim, ell, n),
                (1.05 * e_ref, 0.95 * e_ref),
            )
            assert abs(e - e_ref) < 1e-10 * abs(e_ref), (n, e)

    @pytest.mark.parametrize("dim,ell", [(2, 0), (2, 1), (4, 0)])
    def test_expmass_cornell_agrees_with_series(self, dim, ell):
        # the demo's exponential-mass Cornell channels with k <= 4, against
        # series energies at a fine inward leg (error about 1e-12)
        pot = make_cornell(1.0, 0.2, -3.0)
        mass = expand_exponential(1.0, 0.2, 64)
        cfg = SolverConfig(e_bracket=(-8.0, -0.8), leg_step=0.0025)
        spectrum = channel_spectrum(
            pot, mass, QuantumNumbers(dim, ell, 0), cfg.e_bracket
        )
        for n in range(2):
            q = QuantumNumbers(dim, ell, n)
            series = find_eigenvalue(pot, mass, q, cfg, spectrum).energy
            e = collocation_eigenvalue(pot, mass, q, spectrum.cell(n)[0])
            assert abs(e - series) < 1e-9 * abs(series), (n, e, series)

    def test_oscillator_spacing_is_constant(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        mass = constant_mass(1.0)
        energies = []
        for n in range(4):
            e_ref = math.sqrt(2.0) * (2 * n + 1.5) - 20.0
            energies.append(
                collocation_eigenvalue(
                    pot, mass, QuantumNumbers(3, 0, n), (e_ref - 0.9, e_ref + 0.9)
                )
            )
        spacings = np.diff(energies)
        assert np.max(np.abs(spacings / spacings[0] - 1.0)) < 1e-6

    def test_cornell_agrees_with_series(self):
        # illustrative couplings; the energy offset only shifts the spectrum
        # (E and V3 enter the equation through E - V3 alone), so the
        # comparison at a bound-state-friendly offset covers the zero-offset
        # claim exactly
        pot = make_cornell(0.52, 0.18, -5.0)
        mass = constant_mass(1.0)
        q = QuantumNumbers(3, 0, 0)
        (ea, eb), _ = channel_spectrum(pot, mass, q, (-4.95, -2.0)).cell(0)
        res = find_eigenvalue(pot, mass, q, SolverConfig(e_bracket=(-4.95, -2.0)))
        e_oracle = collocation_eigenvalue(pot, mass, q, (ea, eb))
        assert abs(res.energy - e_oracle) < 1e-6 * abs(e_oracle)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            collocation_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
                (-0.45, -0.35),
            )

    def test_bracket_with_two_levels(self):
        with pytest.raises(BracketError, match="2 collocation levels"):
            collocation_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
                (-0.6, -0.1),
            )

    def test_resolution_error_with_too_few_nodes(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_RESOLUTIONS", ((20, 1.0), (24, 1.25)))
        with pytest.raises(ResolutionError, match="24 and 20 nodes"):
            collocation_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
                (-0.6, -0.4),
            )

    def test_invalid_bracket(self):
        with pytest.raises(DomainError):
            collocation_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
                (-0.4, -0.6),
            )

    @pytest.mark.parametrize(
        "pot,q",
        [
            (make_coulomb(1.0), QuantumNumbers(1, 0, 0)),  # k = 1
            (PotentialSpec(1.0, 0.0, 0.0, 2, 0), QuantumNumbers(3, 0, 0)),
        ],
        ids=["k1", "alpha2"],
    )
    def test_outside_the_domain(self, pot, q):
        with pytest.raises(DomainError):
            collocation_eigenvalue(pot, constant_mass(1.0), q, (-0.6, -0.4))
