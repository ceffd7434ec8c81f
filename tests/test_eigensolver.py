import math
from dataclasses import replace

import numpy as np
import pytest

from pdmradial.eigensolver import (
    SolverConfig,
    coulomb_reference_energy,
    find_eigenvalue,
)
from pdmradial.errors import (
    BracketError,
    ConfigurationError,
    DomainError,
    WrongStateError,
)
from pdmradial.mass_expansion import constant_mass, expand_exponential
from pdmradial.model import PotentialSpec, QuantumNumbers, make_cornell, make_coulomb
import pdmradial.oracle as oracle_mod
from pdmradial.oracle import ChannelSpectrum, channel_spectrum, collocation_eigenvalue


def bracket_around(e_ref, width=0.15):
    return (e_ref * (1.0 + width), e_ref * (1.0 - width))


class TestCoulombReference:
    def test_three_dimensional_ground_state(self):
        assert coulomb_reference_energy(1.0, 1.0, QuantumNumbers(3, 0, 0)) == -0.5

    def test_nu_four_state(self):
        assert coulomb_reference_energy(1.0, 1.0, QuantumNumbers(3, 1, 2)) == pytest.approx(
            -1.0 / 32.0
        )

    def test_five_dimensional_ground_state(self):
        assert coulomb_reference_energy(1.0, 1.0, QuantumNumbers(5, 0, 0)) == pytest.approx(
            -0.125
        )


class TestFindEigenvalueCoulomb:
    def test_ground_state(self):
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
            SolverConfig(e_bracket=(-0.6, -0.4)),
        )
        assert res.energy == pytest.approx(-0.5, rel=1e-8)
        assert res.nodes == 0
        assert res.norm_const > 0
        assert res.tail_residual < 1e-10

    def test_first_excited_state(self):
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 1),
            SolverConfig(e_bracket=(-0.14, -0.11)),
        )
        assert res.energy == pytest.approx(-0.125, rel=1e-8)
        assert res.nodes == 1

    def test_five_dimensions(self):
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(5, 0, 0),
            SolverConfig(e_bracket=(-0.15, -0.11)),
        )
        assert res.energy == pytest.approx(-0.125, rel=1e-8)

    def test_two_dimensions_half_integer_prefactor(self):
        # k = 2: R ~ sqrt(r) near the origin; E = -2 A^2 m0 for the ground state
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(2, 0, 0),
            SolverConfig(e_bracket=(-2.3, -1.7)),
        )
        assert res.energy == pytest.approx(-2.0, rel=1e-8)
        assert res.nodes == 0

    def test_oracle_gap_populated(self):
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
            SolverConfig(e_bracket=(-0.6, -0.4), run_oracle=True),
        )
        assert res.oracle_gap is not None
        assert res.oracle_gap <= 1e-6 * 0.5


class TestNodeAtMatchRadius:
    # for k = 4, n = 1 the Coulomb node lies at (k-1)/(2b) = 1.5/b, which is
    # the default match radius: the node must be counted once
    @pytest.mark.parametrize("dim,ell", [(4, 0), (2, 1)])
    def test_node_on_the_match_radius_counted_once(self, dim, ell):
        q = QuantumNumbers(dim, ell, 1)
        e_ref = coulomb_reference_energy(1.0, 1.0, q)
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), q,
            SolverConfig(e_bracket=bracket_around(e_ref)),
        )
        assert res.nodes == 1
        assert abs(res.energy - e_ref) < 1e-10 * abs(e_ref)


class TestFindEigenvalueErrors:
    def test_bracket_without_sign_change(self):
        # a level placed where the series has no root: neither the narrow
        # bracket nor the whole cell shows a sign change
        spectrum = ChannelSpectrum((-0.45, -0.2), np.array([-0.3, 0.1]),
                                   lambda: pytest.fail("nothing is checked"))
        with pytest.raises(BracketError, match="does not change sign on the cell"):
            find_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
                SolverConfig(e_bracket=(-0.45, -0.2)), spectrum,
            )

    def test_level_outside_the_window(self):
        with pytest.raises(BracketError, match=r"state n=0 not found in the window"):
            find_eigenvalue(
                make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
                SolverConfig(e_bracket=(-0.45, -0.35)),
            )

    def test_wrong_state_reports_found_nodes(self):
        # three spurious levels below the spectrum label the ground state 3;
        # the series side counts its nodes on its own and refuses it
        pot, mass = make_coulomb(1.0), constant_mass(1.0)
        real = channel_spectrum(pot, mass, QuantumNumbers(3, 0, 0), (-0.6, -0.4))
        mislabelled = replace(
            real, levels=np.concatenate(([-3.0, -2.0, -1.0], real.levels))
        )
        with pytest.raises(WrongStateError) as exc:
            find_eigenvalue(
                pot, mass, QuantumNumbers(3, 0, 3),
                SolverConfig(e_bracket=(-0.6, -0.4)), mislabelled,
            )
        assert exc.value.found == 0
        assert exc.value.expected == 3

    def test_narrow_bracket_miss_widens_to_the_cell(self, monkeypatch):
        # every level 1e-4 relative too deep: the narrow bracket around it
        # holds no root, Brent refuses it, and must still find the state in
        # the cell
        import pdmradial.eigensolver as es_mod

        pot, mass = make_coulomb(1.0), constant_mass(1.0)
        real = channel_spectrum(pot, mass, QuantumNumbers(3, 0, 0), (-0.6, -0.03))
        off = replace(real, levels=real.levels * (1.0 + 1e-4))
        brackets = []
        original = es_mod.brentq

        def recording(f, a, b, **kwargs):
            brackets.append((a, b))
            return original(f, a, b, **kwargs)

        monkeypatch.setattr(es_mod, "brentq", recording)
        for n in range(3):
            q = QuantumNumbers(3, 0, n)
            res = find_eigenvalue(
                pot, mass, q, SolverConfig(e_bracket=(-0.6, -0.03)), off
            )
            e_ref = coulomb_reference_energy(1.0, 1.0, q)
            assert abs(res.energy - e_ref) < 1e-10 * abs(e_ref)
            assert res.nodes == n
            (lo, hi), e_c = off.cell(n)
            half = es_mod._NARROW * abs(e_c)
            narrow = (max(lo, e_c - half), min(hi, e_c + half))
            assert brackets[-2:] == [narrow, (lo, hi)]
        assert len(brackets) == 6

    def test_match_radius_beyond_trust_region(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e0 = math.sqrt(2.0) * 1.5 - 20.0
        with pytest.raises(ConfigurationError):
            find_eigenvalue(
                pot, constant_mass(1.0), QuantumNumbers(3, 0, 0),
                SolverConfig(
                    e_bracket=bracket_around(e0, 0.02),
                    match_radius=50.0,
                    truncation_order=16,
                ),
            )

    def test_invalid_brackets_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(e_bracket=(-0.1, -0.4))
        with pytest.raises(DomainError):
            SolverConfig(e_bracket=(-0.4, 0.1))
        with pytest.raises(DomainError):
            SolverConfig(e_bracket=(-0.4, -1e-14))

    @pytest.mark.parametrize(
        "field, value",
        [("match_radius", 0.0), ("match_radius", -0.01)],
    )
    def test_nonpositive_lengths_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            SolverConfig(e_bracket=(-0.6, -0.4), **{field: value})


class TestScanSpectrum:
    """Brackets from the channel's collocation spectrum: the cell of each
    level."""

    def test_coulomb_brackets(self):
        spectrum = channel_spectrum(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
            (-0.6, -0.01),
        )
        for n, target in enumerate((-0.5, -0.125, -1.0 / 18.0, -1.0 / 32.0)):
            (ea, eb), e_c = spectrum.cell(n)
            assert ea <= target <= eb, target
            assert abs(e_c - target) < 1e-10 * abs(target)

    def test_range_below_spectrum_is_empty(self):
        spectrum = channel_spectrum(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 0),
            (-5.0, -1.0),
        )
        assert not np.any((spectrum.levels >= -5.0) & (spectrum.levels <= -1.0))
        with pytest.raises(BracketError):
            spectrum.cell(0)

    def test_cornell_bracket_exists_and_matches_oracle(self):
        pot = make_cornell(0.52, 0.18, -5.0)
        mass = constant_mass(1.0)
        spectrum = channel_spectrum(pot, mass, QuantumNumbers(3, 0, 0), (-4.9, -0.5))
        (ea, eb), _ = spectrum.cell(0)
        e_oracle = collocation_eigenvalue(pot, mass, QuantumNumbers(3, 0, 0), (ea, eb))
        assert ea <= e_oracle <= eb

    def test_every_bracket_contains_exactly_one_eigenvalue(self):
        # each Coulomb cell holds exactly one level of the known spectrum,
        # and levels inside the range are not missed
        a_c = 1.3
        spectrum = channel_spectrum(
            make_coulomb(a_c), constant_mass(1.0), QuantumNumbers(3, 1, 0),
            (-0.5, -0.02),
        )
        levels = [
            coulomb_reference_energy(a_c, 1.0, QuantumNumbers(3, 1, n))
            for n in range(12)
        ]
        covered = [e for e in levels if -0.5 <= e <= -0.02]
        for n, e in enumerate(covered):
            (ea, eb), _ = spectrum.cell(n)
            inside = [x for x in levels if ea <= x <= eb]
            assert inside == [e], (ea, eb, inside)
        with pytest.raises(BracketError):
            spectrum.cell(len(covered))

    def test_batched_mismatch_equals_single_energies(self):
        # Brent's trial energies share one geometry; on a Cornell problem
        # whose mass varies, the mismatch it gives at every energy equals
        # the one from a geometry built for that energy alone
        from pdmradial.eigensolver import _build_geometry, _mismatch

        pot = make_cornell(1.0, 0.2, -3.0)
        mass = expand_exponential(1.0, 0.2, 64)
        q = QuantumNumbers(3, 1, 0)
        cfg = SolverConfig(e_bracket=(-3.4, -0.85))
        e_c = -2.0  # stands for the level; it only sets the trust radius
        geom = _build_geometry(pot, mass, q, cfg, cfg.e_bracket, e_c)
        energies = np.linspace(-3.4, -0.85, 40)
        batch = np.array([_mismatch(float(e), pot, mass, q, cfg, geom) for e in energies])
        single = np.array([
            _mismatch(
                float(e), pot, mass, q, cfg,
                _build_geometry(pot, mass, q, cfg, cfg.e_bracket, e_c),
            )
            for e in energies
        ])
        assert np.max(np.abs(batch - single)) < 1e-12
        assert np.count_nonzero(np.diff(np.sign(single))) >= 2  # levels inside

    def test_trust_radius_only_where_it_is_read(self, monkeypatch):
        # one for the geometry, at the level, and one for the
        # normalization; the node count reads the series alone
        import pdmradial.eigensolver as es_mod
        import pdmradial.wavefunction as wf_mod

        calls = []
        trust = wf_mod.trust_radius

        def counting(sol, *args):
            calls.append(sol.energy)
            return trust(sol, *args)

        monkeypatch.setattr(es_mod, "trust_radius", counting)
        monkeypatch.setattr(wf_mod, "trust_radius", counting)
        find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 1),
            SolverConfig(e_bracket=(-0.14, -0.11)),
        )
        assert len(calls) == 2

    def test_one_evaluation_outside_brent_per_state(self, monkeypatch):
        # a narrow-bracket hit: no mismatch past Brent's own evaluations
        # (the converged state's solution is Brent's evaluation at the root)
        # and, past the mismatches, one series (the trust radius at the
        # level)
        import pdmradial.eigensolver as es_mod

        # seen[name]: calls of name made while no call of `inside` is open
        seen = {"brent": 0, "mismatch": 0, "series": 0}
        depth = {"brent": 0, "mismatch": 0}

        def counting(name, fn, inside):
            def wrapper(*args, **kwargs):
                if not depth[inside]:
                    seen[name] += 1
                depth[name] = depth.get(name, 0) + 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[name] -= 1
            return wrapper

        monkeypatch.setattr(es_mod, "brentq", counting("brent", es_mod.brentq, "brent"))
        monkeypatch.setattr(es_mod, "_mismatch", counting("mismatch", es_mod._mismatch, "brent"))
        monkeypatch.setattr(
            es_mod, "generate_coefficients",
            counting("series", es_mod.generate_coefficients, "mismatch"),
        )
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 1),
            SolverConfig(e_bracket=(-0.14, -0.11)),
        )
        assert abs(res.energy + 0.125) < 1e-10 * 0.125
        assert seen == {"brent": 1, "mismatch": 0, "series": 1}

    def test_one_turning_point_per_energy(self, monkeypatch):
        # the geometry finds the turning point at the cell's upper energy
        # once and hands it to tail_radius; the normalization's tail radius
        # at the root is the only other search
        import pdmradial.eigensolver as es_mod
        import pdmradial.tail as tail_mod

        pot, mass, q = make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(3, 0, 1)
        cfg = SolverConfig(e_bracket=(-0.14, -0.11))
        spectrum = channel_spectrum(pot, mass, q, cfg.e_bracket)
        calls = []
        search = tail_mod.outer_turning_radius

        def counting(pot, e):
            calls.append(e)
            return search(pot, e)

        monkeypatch.setattr(tail_mod, "outer_turning_radius", counting)
        cell, e_c = spectrum.cell(q.radial_n)
        es_mod._build_geometry(pot, mass.extended(64), q, cfg, cell, e_c)
        assert calls == [cell[1]]
        calls.clear()
        res = find_eigenvalue(pot, mass, q, cfg, spectrum)
        assert calls == [cell[1], res.energy]


class TestOrdering:
    def test_cornell_states_ordered_with_exact_node_counts(self):
        pot = make_cornell(1.0, 0.3, -5.0)
        mass = constant_mass(1.0)
        spectrum = channel_spectrum(pot, mass, QuantumNumbers(3, 0, 0), (-5.4, -0.3))
        energies = []
        for n in range(3):
            res = find_eigenvalue(
                pot, mass, QuantumNumbers(3, 0, n),
                SolverConfig(e_bracket=(-5.4, -0.3)), spectrum,
            )
            assert res.nodes == n
            energies.append(res.energy)
        assert energies[0] < energies[1] < energies[2]


class TestKDegeneracy:
    @pytest.mark.parametrize("k,pairs", [
        (5, [(5, 0), (3, 1), (1, 2)]),
        (7, [(7, 0), (5, 1), (3, 2), (1, 3)]),
    ])
    def test_constant_mass_energies_depend_only_on_k(self, k, pairs):
        pot = make_cornell(1.0, 0.25, -4.0)
        mass = constant_mass(1.0)
        energies = []
        for dim, ell in pairs:
            assert dim + 2 * ell == k
            res = find_eigenvalue(
                pot, mass, QuantumNumbers(dim, ell, 0),
                SolverConfig(e_bracket=(-3.9, -0.3)),
            )
            energies.append(res.energy)
        spread = max(energies) - min(energies)
        assert spread <= 1e-8 * abs(energies[0])


class TestPdm:
    def test_lambda_continuity(self):
        pot = make_cornell(1.0, 0.2, -3.0)
        mass0 = constant_mass(1.0)
        window = SolverConfig(e_bracket=(-3.4, -2.5))
        res0 = find_eigenvalue(pot, mass0, QuantumNumbers(3, 0, 0), window)
        gaps = []
        for lam in (0.1, 0.01, 0.001):
            mass = expand_exponential(1.0, lam, 64)
            res = find_eigenvalue(pot, mass, QuantumNumbers(3, 0, 0), window)
            gaps.append(abs(res.energy - res0.energy))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05 * gaps[0]

    def test_pdm_matches_oracle(self):
        pot = make_cornell(1.0, 0.2, -3.0)
        mass = expand_exponential(1.0, 0.2, 64)
        res = find_eigenvalue(
            pot, mass, QuantumNumbers(3, 0, 0),
            SolverConfig(e_bracket=(-3.2, -1.0), run_oracle=True),
        )
        assert res.oracle_gap <= 1e-6 * abs(res.energy)

    def test_custom_polynomial_mass_matches_oracle(self):
        # a linearly growing mass, exact as a polynomial everywhere
        from pdmradial.mass_expansion import mass_from_series

        pot = make_cornell(1.0, 0.2, -2.0)
        mass = mass_from_series([1.0, 0.1])
        q = QuantumNumbers(3, 0, 0)
        res = find_eigenvalue(
            pot, mass, q,
            SolverConfig(e_bracket=(-2.6, -1.0), run_oracle=True),
        )
        assert res.oracle_gap <= 1e-6 * abs(res.energy)


    def test_curved_logderivative_matches_oracle(self):
        # m = 1 + 0.2 r + 0.01 r^2 has log-derivative series (0.2, -0.02), so
        # the oracle's Liouville term -G'/2 is nonzero; dropping it moves the
        # oracle energy by about 5e-4 relative
        from pdmradial.mass_expansion import mass_from_series

        pot = make_cornell(1.0, 0.2, -2.0)
        mass = mass_from_series([1.0, 0.2, 0.01])
        assert mass.logderiv_series[:2] == pytest.approx([0.2, -0.02], rel=1e-12)
        q = QuantumNumbers(3, 0, 0)
        res = find_eigenvalue(
            pot, mass, q,
            SolverConfig(e_bracket=(-2.6, -1.0), run_oracle=True),
        )
        assert res.oracle_error is None
        assert res.oracle_gap <= 1e-8 * abs(res.energy)


class TestOracleUnavailable:
    def test_two_dimensional_ground_state_keeps_series_energy(self, monkeypatch):
        # an oracle too coarse to pass its own check leaves the series energy
        # standing, and the result says why the check is missing
        monkeypatch.setattr(oracle_mod, "_RESOLUTIONS", ((12, 1.0), (16, 1.25)))
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), QuantumNumbers(2, 0, 0),
            SolverConfig(e_bracket=(-2.4, -1.6), run_oracle=True),
        )
        assert abs(res.energy + 2.0) <= 1e-8 * 2.0
        assert res.oracle_gap is None
        assert res.oracle_error.startswith("ResolutionError: ")

    def test_solution_is_the_series_at_the_energy(self):
        from pdmradial.recurrence import generate_coefficients

        pot, mass, q = make_coulomb(1.0), constant_mass(1.0, 64), QuantumNumbers(3, 0, 1)
        res = find_eigenvalue(pot, mass, q, SolverConfig(e_bracket=(-0.15, -0.1)))
        again = generate_coefficients(pot, mass, q, res.energy, 64)
        assert res.solution.energy == res.energy
        assert list(res.solution.coeffs) == list(again.coeffs)
        assert res.oracle_gap is None and res.oracle_error is None


class TestHigherStates:
    def test_eighth_coulomb_state(self):
        q = QuantumNumbers(3, 0, 8)
        e_ref = coulomb_reference_energy(1.0, 1.0, q)  # -1/162
        res = find_eigenvalue(
            make_coulomb(1.0), constant_mass(1.0), q,
            SolverConfig(e_bracket=(1.1 * e_ref, 0.9 * e_ref)),
        )
        assert res.energy == pytest.approx(e_ref, rel=1e-7)
        assert res.nodes == 8


def _brent_trace(solver, f, a, b, **kwargs):
    """Root or exception type of ``solver`` with every x it evaluated."""
    xs = []

    def traced(x, *args):
        xs.append(x)
        return f(x, *args)

    try:
        out = solver(traced, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        out = type(exc)
    return out, xs


class TestBrentPort:
    # the port must evaluate exactly where scipy.optimize.brentq does and
    # return its root bit for bit, errors included
    @pytest.mark.parametrize("f, a, b, kwargs", [
        (lambda x: x - 1.0, 0.0, 1.0, {}),  # root at the upper end
        (lambda x: x, 0.0, 1.0, {}),  # root at the lower end
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, {}),  # takes extrapolation steps
        (lambda x: math.exp(x) - 3.0, 0.0, 5.0, {"xtol": 1e-14, "rtol": 1e-15}),
        (lambda x: math.atan(50 * (x - 0.123)), -3.0, 7.0, {}),
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, {"maxiter": 3}),  # RuntimeError
        (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # no sign change
        (lambda x: 1e-200, 0.0, 1.0, {}),  # same sign, product underflows
        # NaN at the first secant step
        (lambda x: math.nan if 0.45 < x < 0.55 else x - 0.5, 0.0, 1.5, {}),
    ], ids=["root-at-b", "root-at-a", "extrapolating", "tight", "steep",
            "maxiter", "no-sign-change", "tiny-same-sign", "nan"])
    def test_same_steps_as_scipy(self, f, a, b, kwargs):
        from scipy.optimize import brentq as scipy_brentq

        import pdmradial.eigensolver as es_mod

        ours = _brent_trace(es_mod.brentq, f, a, b, **kwargs)
        theirs = _brent_trace(scipy_brentq, f, a, b, **kwargs)
        assert ours == theirs

    def test_same_steps_on_random_functions(self):
        # polynomials plus a sine, with random ends, tolerances and
        # iteration caps: they reach what the cases above miss, such as a
        # step refused against 3 |sbis| - delta
        from scipy.optimize import brentq as scipy_brentq

        import pdmradial.eigensolver as es_mod

        rng = np.random.default_rng(7)
        for _ in range(500):
            c = rng.uniform(-3.0, 3.0, 5)

            def f(x, c=c):
                return float(np.polynomial.polynomial.polyval(x, c)
                             + math.sin(7.0 * c[0] * x))

            a, b = rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)
            kwargs = {"xtol": 10.0 ** rng.uniform(-15.0, -3.0),
                      "maxiter": int(rng.integers(1, 60))}
            ours = _brent_trace(es_mod.brentq, f, a, b, **kwargs)
            theirs = _brent_trace(scipy_brentq, f, a, b, **kwargs)
            assert ours == theirs

    def test_same_steps_on_a_coulomb_mismatch(self):
        from scipy.optimize import brentq as scipy_brentq

        import pdmradial.eigensolver as es_mod

        pot, mass = make_coulomb(1.0), constant_mass(1.0)
        cfg = SolverConfig(e_bracket=(-0.6, -0.03))
        for n in range(3):
            q = QuantumNumbers(3, 0, n)
            cell, e_c = channel_spectrum(pot, mass, q, cfg.e_bracket).cell(n)
            geom = es_mod._build_geometry(
                pot, mass.extended(64), q, cfg, cell, e_c
            )
            kwargs = dict(args=(pot, mass.extended(64), q, cfg, geom),
                          xtol=abs(cell[1]) * 1e-14, rtol=cfg.tol_e,
                          maxiter=cfg.max_iter)
            ours = _brent_trace(es_mod.brentq, es_mod._mismatch, *cell, **kwargs)
            theirs = _brent_trace(scipy_brentq, es_mod._mismatch, *cell, **kwargs)
            assert ours == theirs
            assert len(ours[1]) > 5
