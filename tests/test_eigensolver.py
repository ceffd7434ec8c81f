import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coulomb_reference import coulomb_norm_reference, coulomb_reference_energy
from pdmradial import cli
from pdmradial.eigensolver import SolverConfig, find_eigenvalue, place_legs
from pdmradial.errors import BracketError, DomainError, WrongStateError
from pdmradial.model import MassProfile, QuantumNumbers, make_cornell, make_coulomb
import pdmradial.oracle as oracle_mod
from pdmradial.oracle import ChannelSpectrum, channel_spectrum
from pdmradial.recurrence import generate_coefficients
from pdmradial.tail import make_leg
from pdmradial.wavefunction import trusted


def _centre(potential, mass, quantum, solver, output=None):
    return {"potential": potential, "mass": mass, "quantum": quantum,
            "solver": solver,
            "output": output or {"formats": ["csv", "json"], "coefficients": False}}


_COULOMB = ({"kind": "coulomb", "z": 1.0}, {"kind": "constant", "m0": 1.0})

# the configs of each benchmark workload at the centre of its coupling range
BENCHMARK_CENTRES = {
    "coulomb_oracle": [
        _centre(*_COULOMB, {"dim": 3, "ell": [0, 1], "n": [0, 1, 2]},
                {"e_lo": -0.6, "e_hi": -0.027, "truncation_order": 64, "oracle": True}),
        _centre(*_COULOMB, {"dim": 2, "ell": [0, 1], "n": [0, 1]},
                {"e_lo": -2.4, "e_hi": -0.06, "truncation_order": 64, "oracle": True}),
    ],
    "expmass_cornell": [
        _centre({"kind": "cornell", "a": 1.0, "b_lin": 0.2, "c": -3.0},
                {"kind": "exponential", "m0": 1.0, "lambda": 0.2},
                {"dim": 3, "ell": [0, 1], "n": [0, 1, 2]},
                {"e_lo": -3.4, "e_hi": -0.8, "truncation_order": 64, "oracle": True}),
    ],
    "oscillator_series": [
        _centre({"kind": "oscillator", "omega": 1.0, "v3_offset": -20.0},
                {"kind": "constant", "m0": 1.0},
                {"dim": 3, "ell": [0, 1, 2], "n": [0, 1, 2]},
                {"e_lo": -19.5, "e_hi": -8.7, "truncation_order": 128,
                 "oracle": False},
                {"formats": ["csv", "json"], "coefficients": True,
                 "wavefunction_grid": {"r_max": 5.0, "points": 201}}),
    ],
}


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "coulomb_demo.json"

# the Coulomb and exp-mass demo configs, one each
DEMOS = {name: [json.loads((DEMO_CONFIG.parent / f"{name}.json").read_text())]
         for name in ("coulomb_demo", "expmass_cornell_demo")}


def _placed_leg(pot, mass, q, spectrum):
    """State q's leg, placed and built as ``search_root`` places and builds
    it."""
    (cuts,) = place_legs(pot, mass, [(q, spectrum)])
    return make_leg(pot, mass, q, cuts)


def bracket_around(e_ref, width=0.15):
    return (e_ref * (1.0 + width), e_ref * (1.0 - width))


def _solve_centres(tmp_path, workload):
    """One `solve` of each of the workload's centre configs, or of a demo
    config, writers included."""
    for i, data in enumerate({**BENCHMARK_CENTRES, **DEMOS}[workload]):
        data = {**data, "output": {**data["output"],
                                   "directory": str(tmp_path / f"out{i}")}}
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(data))
        assert cli.main(["solve", str(path)]) == 0


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
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
            SolverConfig(e_bracket=(-0.6, -0.4)),
        )
        assert res.energy == pytest.approx(-0.5, rel=1e-8)
        assert res.nodes == 0
        assert res.norm_const > 0
        assert res.tail_residual < 1e-10

    def test_first_excited_state(self):
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 1),
            SolverConfig(e_bracket=(-0.14, -0.11)),
        )
        assert res.energy == pytest.approx(-0.125, rel=1e-8)
        assert res.nodes == 1

    def test_five_dimensions(self):
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(5, 0, 0),
            SolverConfig(e_bracket=(-0.15, -0.11)),
        )
        assert res.energy == pytest.approx(-0.125, rel=1e-8)

    def test_two_dimensions_half_integer_prefactor(self):
        # k = 2: R ~ sqrt(r) near the origin; E = -2 A^2 m0 for the ground state
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(2, 0, 0),
            SolverConfig(e_bracket=(-2.3, -1.7)),
        )
        assert res.energy == pytest.approx(-2.0, rel=1e-8)
        assert res.nodes == 0

    def test_oracle_gap_populated(self):
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
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
            make_coulomb(1.0), MassProfile([1.0]), q,
            SolverConfig(e_bracket=bracket_around(e_ref)),
        )
        assert res.nodes == 1
        assert abs(res.energy - e_ref) < 1e-10 * abs(e_ref)
        # the inward leg is scaled onto the series there by projection,
        # which a zero of R leaves well defined
        ref = coulomb_norm_reference(1.0, 1.0, q)
        assert abs(res.norm_const / ref - 1.0) < 1e-11


def _oscillator_norm_reference(q: QuantumNumbers) -> float:
    """norm_const of the 3-d state of V = r^2 - 20, m = 1: R = N r^(l+1)
    e^(-beta r^2/2) L_n^(l+1/2)(beta r^2) with beta = sqrt(2), normalized under
    the integral of R^2 dr, tends to N L_n^(l+1/2)(0) r^(l+1) at the origin;
    N^2 = 2 beta^(l+3/2) n! / Gamma(n+l+3/2)."""
    n, ell, beta = q.radial_n, q.ell, math.sqrt(2.0)
    log_n2 = (math.log(2.0) + (ell + 1.5) * math.log(beta) + math.lgamma(n + 1)
              - math.lgamma(n + ell + 1.5))
    log_l0 = math.lgamma(n + ell + 1.5) - math.lgamma(n + 1) - math.lgamma(ell + 1.5)
    return math.exp(0.5 * log_n2 + log_l0)


# norm_const of the exp-mass Cornell centre (a = 1, b = 0.2, c = -3,
# m = e^(-0.2 r), N = 3), by (l, n), computed without pdmradial: at the
# levels of bench/reference.py, the regular solution with R / r -> 1 (l = 0)
# or R / r^2 -> 1 (l = 1) integrated outward from r = 1e-8 and the decaying
# one inward from a WKB exponent of 20 past the turning point, both by
# DOP853 at rtol 1e-13 with the integral of R^2 as a third component, the
# inward one scaled onto the outward one at the turning point; moving the
# match radius in by 20 %, the outer radius to an exponent of 26 and the
# start to 1e-9 changes none by more than 9e-14
EXPMASS_NORM_REFERENCE = {
    (0, 0): 2.217919212898468, (0, 1): 1.6263240461199506, (0, 2): 1.5563222727584525,
    (1, 0): 0.6709890073620183, (1, 1): 0.8542555442222091, (1, 2): 1.0265910923392605,
}


class TestNormConst:
    """norm_const of every state of the Coulomb demo and of the benchmark
    centres against references computed without the series: the closed
    forms, and the frozen shooting norms for the exp-mass centre."""

    @staticmethod
    def _solve(data):
        """(q, result) of every state of a config dict, as `solve` brackets
        them, with the oracle off (the norm does not read it)."""
        cfg = cli.parse_config({**data, "output": {"directory": "unused"}})
        solver = replace(cfg.solver, run_oracle=False)
        for ell in cfg.quantum.ell:
            spectrum = channel_spectrum(cfg.potential, cfg.mass,
                                        QuantumNumbers(cfg.quantum.dim, ell, 0),
                                        solver.e_bracket)
            for n in cfg.quantum.n:
                q = QuantumNumbers(cfg.quantum.dim, ell, n)
                yield q, find_eigenvalue(cfg.potential, cfg.mass, q, solver, spectrum)

    @pytest.mark.parametrize("configs, reference, states", [
        ([json.loads(DEMO_CONFIG.read_text())],
         lambda q: coulomb_norm_reference(1.0, 1.0, q), 3),
        (BENCHMARK_CENTRES["coulomb_oracle"],
         lambda q: coulomb_norm_reference(1.0, 1.0, q), 10),
        (BENCHMARK_CENTRES["oscillator_series"], _oscillator_norm_reference, 9),
        (BENCHMARK_CENTRES["expmass_cornell"],
         lambda q: EXPMASS_NORM_REFERENCE[q.ell, q.radial_n], 6),
    ], ids=["coulomb_demo", "coulomb", "oscillator", "expmass"])
    def test_against_reference(self, configs, reference, states):
        errors = {(q.dim_n, q.ell, q.radial_n): res.norm_const / reference(q) - 1.0
                  for data in configs for q, res in self._solve(data)}
        assert len(errors) == states
        assert max(map(abs, errors.values())) < 1e-11, errors

    def test_deep_coulomb_state(self):
        # the order-500 series runs in x = r/2^x_exp, where a_0 = 1 and no
        # term leaves the float range; norm_const is the closed form
        # 2 (Z/2)^(3/2)
        q = QuantumNumbers(3, 0, 1)
        res = find_eigenvalue(make_coulomb(1414.0), MassProfile([1.0]), q,
                              SolverConfig(e_bracket=(-1.1e6, -1e4), truncation_order=500))
        assert res.energy == pytest.approx(-249924.5, rel=1e-15)
        assert res.solution.a0 == 1.0
        assert res.norm_const * res.solution.a0 == pytest.approx(
            coulomb_norm_reference(1414.0, 1.0, q), rel=1e-14)
        assert res.norm_const * res.solution.a0 == pytest.approx(2.0 * 707.0**1.5,
                                                                 rel=1e-14)


class TestFindEigenvalueErrors:
    def test_bracket_without_sign_change(self):
        # a level placed where the series has no root: neither the narrow
        # bracket nor the whole cell shows a sign change
        spectrum = ChannelSpectrum((-0.45, -0.2), np.array([-0.3, 0.1]),
                                   lambda: pytest.fail("nothing is checked"))
        with pytest.raises(BracketError, match="does not change sign on the cell"):
            find_eigenvalue(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
                SolverConfig(e_bracket=(-0.45, -0.2)), spectrum,
            )

    @staticmethod
    def _no_sign_change(monkeypatch, nan_at=None):
        """find_eigenvalue on a cell with no sign change: the BracketError's
        message, the energies evaluated outside brentq, the cell and the
        mismatch at its ends; ``nan_at`` makes the mismatch NaN there."""
        import pdmradial.eigensolver as es_mod

        pot, mass, q = make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0)
        cfg = SolverConfig(e_bracket=(-0.45, -0.2))
        spectrum = ChannelSpectrum(cfg.e_bracket, np.array([-0.3, 0.1]), None)
        mismatch, brentq = es_mod._mismatch, es_mod.brentq
        outside, depth = [], [0]

        def recording(e, *args):
            if not depth[0]:
                outside.append(e)
            out = mismatch(e, *args)
            return (math.nan, *out[1:]) if e == nan_at else out

        def nested(*args, **kwargs):
            depth[0] += 1
            try:
                return brentq(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(es_mod, "_mismatch", recording)
        monkeypatch.setattr(es_mod, "brentq", nested)
        with pytest.raises(BracketError) as exc:
            find_eigenvalue(pot, mass, q, cfg, spectrum)
        (cell, _) = spectrum.cell(0)
        leg = _placed_leg(pot, mass, q, spectrum)
        ends = [mismatch(e, pot, mass, q, cfg, leg)[0] for e in cell]
        return str(exc.value), outside, cell, ends

    def test_no_sign_change_reports_the_ends_brent_evaluated(self, monkeypatch):
        # the message's values at the cell's ends are Brent's own
        # evaluations there: no mismatch is evaluated again to report them
        message, outside, (lo, hi), (f_lo, f_hi) = self._no_sign_change(monkeypatch)
        assert outside == []
        assert message == (f"mismatch does not change sign on the cell ({lo}, {hi}) "
                           f"of level 0 at E=-0.3: ({f_lo:.3e}, {f_hi:.3e})")

    def test_an_end_brent_never_reached_is_evaluated_for_the_report(self, monkeypatch):
        # a NaN at the cell's lower end stops Brent before the upper end:
        # that end alone is evaluated for the message
        message, outside, (lo, hi), (_, f_hi) = self._no_sign_change(monkeypatch, -0.45)
        assert outside == [hi]
        assert message.endswith(f"of level 0 at E=-0.3: (nan, {f_hi:.3e})")

    def test_level_outside_the_window(self):
        with pytest.raises(BracketError, match=r"state n=0 not found in the window"):
            find_eigenvalue(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
                SolverConfig(e_bracket=(-0.45, -0.35)),
            )

    def test_wrong_state_reports_found_nodes(self):
        # three spurious levels below the spectrum label the ground state 3;
        # the series side counts its nodes on its own and refuses it
        pot, mass = make_coulomb(1.0), MassProfile([1.0])
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

        pot, mass = make_coulomb(1.0), MassProfile([1.0])
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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_norm_is_a_domain_error(self, monkeypatch, value):
        import pdmradial.tail as tail_mod

        monkeypatch.setattr(tail_mod.Inward, "norm2", lambda self, leg: value)
        with pytest.raises(DomainError, match="the norm integral of the state at E="):
            find_eigenvalue(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 1),
                SolverConfig(e_bracket=(-0.14, -0.11)),
            )

    def test_iteration_limit_is_a_bracket_error(self, monkeypatch):
        # every level 1e-3 relative too shallow: the narrow bracket holds no
        # root, and ten Brent iterations do not converge on the cell
        import pdmradial.eigensolver as es_mod

        monkeypatch.setattr(es_mod, "_MAX_ITER", 10)
        pot, mass = make_coulomb(1.0), MassProfile([1.0])
        q = QuantumNumbers(3, 1, 0)
        real = channel_spectrum(pot, mass, q, (-0.6, -0.01))
        off = replace(real, levels=real.levels * (1.0 + 1e-3))
        cfg = SolverConfig(e_bracket=(-0.6, -0.01))
        with pytest.raises(BracketError, match=r"converge in 10 iterations on the cell"):
            find_eigenvalue(pot, mass, q, cfg, off)

    def test_invalid_brackets_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(e_bracket=(-0.1, -0.4))
        with pytest.raises(DomainError):
            SolverConfig(e_bracket=(-0.4, 0.1))
        with pytest.raises(DomainError):
            SolverConfig(e_bracket=(-0.4, -1e-14))


class TestScanSpectrum:
    """Brackets from the channel's collocation spectrum: the cell of each
    level."""

    def test_coulomb_brackets(self):
        spectrum = channel_spectrum(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
            (-0.6, -0.01),
        )
        for n, target in enumerate((-0.5, -0.125, -1.0 / 18.0, -1.0 / 32.0)):
            (ea, eb), e_c = spectrum.cell(n)
            assert ea <= target <= eb, target
            assert abs(e_c - target) < 1e-10 * abs(target)

    def test_range_below_spectrum_is_empty(self):
        spectrum = channel_spectrum(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
            (-5.0, -1.0),
        )
        assert not np.any((spectrum.levels >= -5.0) & (spectrum.levels <= -1.0))
        with pytest.raises(BracketError):
            spectrum.cell(0)

    def test_cornell_bracket_exists_and_matches_oracle(self):
        pot = make_cornell(0.52, 0.18, -5.0)
        mass = MassProfile([1.0])
        spectrum = channel_spectrum(pot, mass, QuantumNumbers(3, 0, 0), (-4.9, -0.5))
        (ea, eb), _ = spectrum.cell(0)
        alone = channel_spectrum(pot, mass, QuantumNumbers(3, 0, 0), (ea, eb))
        e_oracle = alone.checked(alone.cell(0)[1])
        assert ea <= e_oracle <= eb

    def test_every_bracket_contains_exactly_one_eigenvalue(self):
        # each Coulomb cell holds exactly one level of the known spectrum,
        # and levels inside the range are not missed
        a_c = 1.3
        spectrum = channel_spectrum(
            make_coulomb(a_c), MassProfile([1.0]), QuantumNumbers(3, 1, 0),
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
        from pdmradial.eigensolver import _mismatch

        pot = make_cornell(1.0, 0.2, -3.0)
        mass = MassProfile([1.0], 0.2)
        q = QuantumNumbers(3, 1, 0)
        cfg = SolverConfig(e_bracket=(-3.4, -0.85))
        # one level inside the window: its cell is the whole window
        spectrum = ChannelSpectrum(cfg.e_bracket, np.array([-2.0]), None)
        geom = _placed_leg(pot, mass, q, spectrum)
        energies = np.linspace(-3.4, -0.85, 40)
        batch = np.array([_mismatch(float(e), pot, mass, q, cfg, geom)[0]
                          for e in energies])
        single = np.array([
            _mismatch(
                float(e), pot, mass, q, cfg, _placed_leg(pot, mass, q, spectrum),
            )[0]
            for e in energies
        ])
        assert np.max(np.abs(batch - single)) < 1e-12
        assert np.count_nonzero(np.diff(np.sign(single))) >= 2  # levels inside

    def test_trust_radius_only_where_it_is_read(self, monkeypatch):
        # the solve takes no trust test: the root's series stopped below
        # its cap, its last three terms at r_match negligible, and that is
        # the trust rule; only evaluate, which warns, reads `trusted`
        import pdmradial.wavefunction as wf_mod

        def forbidden(*args):
            raise AssertionError("trusted called")

        monkeypatch.setattr(wf_mod, "trusted", forbidden)
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 1),
            SolverConfig(e_bracket=(-0.14, -0.11)),
        )
        sol, r = res.solution, res.inward.edges[0]
        assert sol.coeffs.size <= 64
        terms = np.abs(sol.coeffs) * math.ldexp(r, -sol.x_exp) ** np.arange(sol.coeffs.size)
        assert np.all(terms[-3:] <= 1e-20 * terms.sum())
        assert trusted(sol, r / 0.9)

    @pytest.mark.parametrize("workload, states", [
        ("coulomb_oracle", 10), ("expmass_cornell", 6), ("oscillator_series", 9),
    ])
    def test_one_trust_test_per_benchmark_centre_state(
        self, tmp_path, monkeypatch, workload, states
    ):
        # one `solve` of each benchmark workload's centre configs: every
        # root's series stopped below the truncation order, which is its
        # trust rule, and the solve takes no trust test; the oscillator's
        # samples test the series once per state, at the largest sample
        # radius not past r_match, and it is trusted there
        import pdmradial.cli as cli_mod
        import pdmradial.wavefunction as wf_mod

        roots, samples = [], []
        trusted, finish = wf_mod.trusted, cli_mod.finish

        def recording_finish(found):
            results = finish(found)
            roots.extend((res, root.cfg.truncation_order)
                         for res, root in zip(results, found))
            return results

        def recording(sol, r):
            samples.append((sol, r, trusted(sol, r)))
            return samples[-1][2]

        monkeypatch.setattr(cli_mod, "finish", recording_finish)
        monkeypatch.setattr(wf_mod, "trusted", recording)
        _solve_centres(tmp_path, workload)
        assert len(roots) == states
        assert all(res.solution.coeffs.size <= order for res, order in roots)
        assert len(samples) == (states if workload == "oscillator_series" else 0)
        assert all(ok for _, _, ok in samples)

    @pytest.mark.parametrize("workload, checks, channels", [
        ("coulomb_oracle", 10, 4), ("expmass_cornell", 6, 2),
    ])
    def test_one_inverse_iteration_per_checked_state(
        self, tmp_path, monkeypatch, workload, checks, channels
    ):
        # the oracle iterates at each checked state's level alone, never at
        # a level nobody asked for, and builds each channel's coarser
        # pencil once
        shifts, coarse = [], []
        nearest, pencil = oracle_mod._nearest_level, oracle_mod.collocation_pencil

        def counting_nearest(a, d, e):
            shifts.append(e)
            return nearest(a, d, e)

        def counting_pencil(pot, mass, q, nodes, r_max):
            if nodes == oracle_mod._RESOLUTIONS[0][0]:
                coarse.append(q)
            return pencil(pot, mass, q, nodes, r_max)

        monkeypatch.setattr(oracle_mod, "_nearest_level", counting_nearest)
        monkeypatch.setattr(oracle_mod, "collocation_pencil", counting_pencil)
        _solve_centres(tmp_path, workload)
        assert len(shifts) == checks
        assert len(coarse) == len(set(coarse)) == channels

    def test_one_evaluation_outside_brent_per_state(self, monkeypatch):
        # a narrow-bracket hit: no mismatch past Brent's own evaluations
        # (the converged state's solution is Brent's evaluation at the root)
        # and no series past the mismatches
        import pdmradial.eigensolver as es_mod
        import pdmradial.recurrence as rec_mod

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
        # the stopped series, in its module and where the eigensolver reads it
        series = counting("series", rec_mod._stopped_series, "mismatch")
        for module in (rec_mod, es_mod):
            monkeypatch.setattr(module, "_stopped_series", series)
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 1),
            SolverConfig(e_bracket=(-0.14, -0.11)),
        )
        assert abs(res.energy + 0.125) < 1e-10 * 0.125
        assert seen == {"brent": 1, "mismatch": 0, "series": 0}

    @pytest.mark.parametrize("workload, states", [
        ("coulomb_oracle", 10), ("expmass_cornell", 6), ("oscillator_series", 9),
        ("coulomb_demo", 3), ("expmass_cornell_demo", 4),
    ])
    def test_three_mismatches_per_state(self, tmp_path, monkeypatch, workload, states):
        # Brent's two ends of the narrow bracket and one step: the short
        # step from there is accepted without the confirming evaluation
        import pdmradial.eigensolver as es_mod

        calls, mismatch = [], es_mod._mismatch

        def counting(e, pot, mass, q, *args):
            calls.append(q)
            return mismatch(e, pot, mass, q, *args)

        monkeypatch.setattr(es_mod, "_mismatch", counting)
        _solve_centres(tmp_path, workload)
        per_state = {q: calls.count(q) for q in calls}
        assert len(per_state) == states
        assert set(per_state.values()) == {3}, per_state

    def test_short_step_acceptance_leaves_every_row(self, monkeypatch):
        # every row of the benchmark centres, the demos and the sweep's
        # 25-problem draw, with the narrow bracket's early return and with
        # scipy's confirming evaluation: the same texts and the same bits
        import pdmradial.eigensolver as es_mod
        from test_sweep import _problems

        def bits(row):
            res = row.result
            if res is None:
                return row.q, row.message
            return (row.q, row.message, res.nodes, res.oracle_error,
                    *(repr(getattr(res, c)) for c in (
                        "energy", "norm_const", "p_sigma", "tail_residual",
                        "oracle_gap")),
                    res.solution.coeffs.tobytes(),
                    b"".join(c.tobytes() for c in res.inward.coeffs))

        configs = [data for group in (*BENCHMARK_CENTRES.values(), *DEMOS.values())
                   for data in group] + list(_problems(25))
        parsed = [cli.parse_config({**data, "output": {"directory": "unused"}})
                  for data in configs]
        early = [bits(row) for cfg in parsed for row in cli.solve_states(cfg)]
        brentq = es_mod.brentq

        def confirming(*args, **kwargs):
            return brentq(*args, **{**kwargs, "accept_short_step": False})

        monkeypatch.setattr(es_mod, "brentq", confirming)
        scipy_path = [bits(row) for cfg in parsed for row in cli.solve_states(cfg)]
        assert len(early) == 10 + 6 + 9 + 3 + 4 + 75
        assert early == scipy_path

    @pytest.mark.parametrize("workload", [*BENCHMARK_CENTRES])
    def test_no_whole_series_per_benchmark_centre_solve(
        self, tmp_path, monkeypatch, workload
    ):
        # one `solve` of each benchmark workload's centre configs generates
        # no series without a radius while it solves: every series is a
        # mismatch's own, stopped for r_match; only the coefficient dump,
        # which the oscillator writes, generates a whole series, one per
        # state at its energy in the x of its root's series
        import pdmradial.cli as cli_mod
        import pdmradial.eigensolver as es_mod
        import pdmradial.recurrence as rec_mod

        radii, mismatches, dumped = [], [], []
        stopped, mismatch, whole = (rec_mod._stopped_series, es_mod._mismatch,
                                    cli_mod._series)

        def recording_whole(pot, mass, q, e, order, x_exp):
            dumped.append((q, e, order, x_exp))
            return whole(pot, mass, q, e, order, x_exp)

        def recording_series(pot, mass, q, e, order, r):
            radii.append(r)
            return stopped(pot, mass, q, e, order, r)

        def counting_mismatch(e, *args):
            mismatches.append(e)
            return mismatch(e, *args)

        for module in (rec_mod, es_mod):
            monkeypatch.setattr(module, "_stopped_series", recording_series)
        monkeypatch.setattr(es_mod, "_mismatch", counting_mismatch)
        monkeypatch.setattr(cli_mod, "_series", recording_whole)
        _solve_centres(tmp_path, workload)
        assert mismatches and len(radii) == len(mismatches)
        assert all(r < math.inf for r in radii)
        if workload == "oscillator_series":
            assert len(dumped) == 9 and {order for *_, order, _ in dumped} == {128}
            assert all(e in mismatches for _, e, _, _ in dumped)
        else:
            assert dumped == []

    @staticmethod
    def _recorded_mismatches(monkeypatch):
        """Every mismatch evaluated from here on, as (energy, the other
        arguments, value, series)."""
        import pdmradial.eigensolver as es_mod

        seen, mismatch = [], es_mod._mismatch

        def recording(e, *args):
            out = mismatch(e, *args)
            seen.append((e, args, out[0], out[1]))
            return out

        monkeypatch.setattr(es_mod, "_mismatch", recording)
        return seen

    @pytest.mark.parametrize("workload", [*BENCHMARK_CENTRES, *DEMOS])
    def test_each_mismatch_value_is_the_whole_series_value(
        self, tmp_path, monkeypatch, workload
    ):
        # the mismatch stops its series once the terms at r_match no longer
        # move it: every value Brent evaluates is, bit for bit, the one the
        # series to full order gives
        import pdmradial.eigensolver as es_mod

        mismatch = es_mod._mismatch
        seen = self._recorded_mismatches(monkeypatch)
        _solve_centres(tmp_path, workload)

        def whole(pot, mass, q, e, order, r):
            return generate_coefficients(pot, mass, q, e, order)

        monkeypatch.setattr(es_mod, "_stopped_series", whole)
        assert seen
        for e, args, value, _ in seen:
            assert float(mismatch(e, *args)[0]).hex() == float(value).hex(), e

    def test_exp_mass_mismatch_series_stop_early(self, tmp_path, monkeypatch):
        # the saving: on the exp-mass centre no mismatch generates more than
        # 40 of the 65 coefficients of its order-64 series
        seen = self._recorded_mismatches(monkeypatch)
        _solve_centres(tmp_path, "expmass_cornell")
        assert seen
        for e, args, _, sol in seen:
            assert args[3].truncation_order == 64
            assert sol.coeffs.size <= 40, e

    def test_one_turning_point_per_energy(self, monkeypatch):
        # the geometry searches the turning point at the cell's upper energy
        # once, and not at all at the window's top, whose spectrum carries
        # the one found with r_max; the norm comes from the leg the geometry
        # built, so the solve searches no other
        import pdmradial.eigensolver as es_mod
        import pdmradial.tail as tail_mod

        pot, mass, q = make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 1)
        cfg = SolverConfig(e_bracket=(-0.14, -0.11))
        spectrum = channel_spectrum(pot, mass, q, cfg.e_bracket)
        cell, _ = spectrum.cell(q.radial_n)
        assert cell[1] == cfg.e_bracket[1]
        assert spectrum.r_turn == tail_mod.outer_turning_radius(pot, cell[1])
        calls = []
        search = tail_mod._turning_radius

        def counting(pot, e, diff):
            calls.append(e)
            return search(pot, e, diff)

        monkeypatch.setattr(tail_mod, "_turning_radius", counting)
        (searched,) = es_mod.place_legs(pot, mass, [(q, replace(spectrum, r_turn=None))])
        assert calls == [cell[1]]
        calls.clear()
        (carried,) = es_mod.place_legs(pot, mass, [(q, spectrum)])
        assert calls == [] and np.array_equal(carried, searched)
        find_eigenvalue(pot, mass, q, cfg, spectrum)
        assert calls == []


class TestOrdering:
    def test_cornell_states_ordered_with_exact_node_counts(self):
        pot = make_cornell(1.0, 0.3, -5.0)
        mass = MassProfile([1.0])
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
        mass = MassProfile([1.0])
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
        mass0 = MassProfile([1.0])
        window = SolverConfig(e_bracket=(-3.4, -2.5))
        res0 = find_eigenvalue(pot, mass0, QuantumNumbers(3, 0, 0), window)
        gaps = []
        for lam in (0.1, 0.01, 0.001):
            mass = MassProfile([1.0], lam)
            res = find_eigenvalue(pot, mass, QuantumNumbers(3, 0, 0), window)
            gaps.append(abs(res.energy - res0.energy))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05 * gaps[0]

    def test_pdm_matches_oracle(self):
        pot = make_cornell(1.0, 0.2, -3.0)
        mass = MassProfile([1.0], 0.2)
        res = find_eigenvalue(
            pot, mass, QuantumNumbers(3, 0, 0),
            SolverConfig(e_bracket=(-3.2, -1.0), run_oracle=True),
        )
        assert res.oracle_gap <= 1e-6 * abs(res.energy)

    def test_custom_polynomial_mass_matches_oracle(self):
        # a linearly growing mass, exact as a polynomial everywhere
        pot = make_cornell(1.0, 0.2, -2.0)
        mass = MassProfile([1.0, 0.1])
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
        pot = make_cornell(1.0, 0.2, -2.0)
        mass = MassProfile([1.0, 0.2, 0.01])
        assert mass.series(1)[1][:2] == pytest.approx([0.2, -0.02], rel=1e-12)
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
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(2, 0, 0),
            SolverConfig(e_bracket=(-2.4, -1.6), run_oracle=True),
        )
        assert abs(res.energy + 2.0) <= 1e-8 * 2.0
        assert res.oracle_gap is None
        assert res.oracle_error.startswith("ResolutionError: ")

    def test_solution_is_the_series_at_the_energy(self):
        from pdmradial.recurrence import generate_coefficients

        pot, mass, q = make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 1)
        res = find_eigenvalue(pot, mass, q, SolverConfig(e_bracket=(-0.15, -0.1)))
        again = generate_coefficients(pot, mass, q, res.energy, 64)
        assert res.solution.energy == res.energy and res.solution.b == again.b
        # the solver's series in x = r/2^x_exp, scaled back, is the start of
        # the series in r, up to where it stopped below the order
        sol = res.solution
        in_r = np.ldexp(sol.coeffs, -sol.x_exp * np.arange(sol.coeffs.size))
        assert 4 < in_r.size <= 64
        assert list(in_r) == list(again.coeffs[: in_r.size])
        assert res.oracle_gap is None and res.oracle_error is None


class TestHigherStates:
    def test_eighth_coulomb_state(self):
        q = QuantumNumbers(3, 0, 8)
        e_ref = coulomb_reference_energy(1.0, 1.0, q)  # -1/162
        res = find_eigenvalue(
            make_coulomb(1.0), MassProfile([1.0]), q,
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

        pot, mass = make_coulomb(1.0), MassProfile([1.0])
        cfg = SolverConfig(e_bracket=(-0.6, -0.03))
        for n in range(3):
            q = QuantumNumbers(3, 0, n)
            spectrum = channel_spectrum(pot, mass, q, cfg.e_bracket)
            cell, _ = spectrum.cell(n)
            geom = _placed_leg(pot, mass, q, spectrum)
            kwargs = dict(args=(pot, mass, q, cfg, geom),
                          xtol=abs(cell[1]) * 1e-14, rtol=es_mod._TOL_E,
                          maxiter=es_mod._MAX_ITER)

            def value(e, *args):
                return es_mod._mismatch(e, *args)[0]

            ours = _brent_trace(es_mod.brentq, value, *cell, **kwargs)
            theirs = _brent_trace(scipy_brentq, value, *cell, **kwargs)
            assert ours == theirs
            assert len(ours[1]) > 5

    def test_narrow_bracket_drops_only_scipys_confirming_evaluation(self):
        # with the short step accepted, Brent on the narrow bracket of each
        # Coulomb state evaluates where scipy does, without scipy's last
        # evaluation, and returns scipy's root bit for bit
        from scipy.optimize import brentq as scipy_brentq

        import pdmradial.eigensolver as es_mod

        pot, mass = make_coulomb(1.0), MassProfile([1.0])
        cfg = SolverConfig(e_bracket=(-0.6, -0.03))
        for n in range(3):
            q = QuantumNumbers(3, 0, n)
            spectrum = channel_spectrum(pot, mass, q, cfg.e_bracket)
            (lo, hi), e_c = spectrum.cell(n)
            half = es_mod._NARROW * abs(e_c)
            narrow = (max(lo, e_c - half), min(hi, e_c + half))
            geom = _placed_leg(pot, mass, q, spectrum)
            kwargs = dict(args=(pot, mass, q, cfg, geom),
                          xtol=abs(narrow[1]) * 1e-14, rtol=es_mod._TOL_E,
                          maxiter=es_mod._MAX_ITER)

            def value(e, *args):
                return es_mod._mismatch(e, *args)[0]

            root, xs = _brent_trace(es_mod.brentq, value, *narrow,
                                    accept_short_step=True, **kwargs)
            scipy_root, scipy_xs = _brent_trace(scipy_brentq, value, *narrow, **kwargs)
            assert len(xs) == 3
            assert xs == scipy_xs[:-1]
            assert root.hex() == scipy_root.hex()
