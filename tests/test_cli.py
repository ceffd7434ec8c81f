import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmradial.cli import (
    ConfigError,
    load_config,
    main,
    parse_config,
    run_solve,
    run_verify,
)
from pdmradial.model import make_coulomb

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO / "configs" / "coulomb_demo.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "coulomb_demo_energies.csv"
EXPMASS_CONFIG = REPO / "configs" / "expmass_cornell_demo.json"
EXPMASS_GOLDEN = GOLDEN.parent / "expmass_cornell_energies.csv"
# a constant-mass Coulomb series terminates at its converged energy and is
# trusted everywhere; this mass keeps it infinite
DECAYING_MASS = {"kind": "exponential", "m0": 1.0, "lambda": 0.02}


def demo_config_dict():
    return json.loads(DEMO_CONFIG.read_text())


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """Run the Coulomb demo once per module; several tests inspect it."""
    outdir = tmp_path_factory.mktemp("demo_out")
    data = demo_config_dict()
    data["output"]["directory"] = str(outdir)
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(data, indent=2))
    rc = run_solve(str(cfg_path))
    return rc, outdir


class TestConfigParsing:
    def test_demo_config_parses(self):
        cfg = load_config(DEMO_CONFIG)
        assert cfg.potential == make_coulomb(1.0)
        assert cfg.quantum.n == (0, 1, 2)

    def test_unknown_potential_kind_names_field(self, tmp_path, capsys):
        data = demo_config_dict()
        data["potential"] = {"kind": "yukawa", "z": 1.0}
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 2
        err = capsys.readouterr().err
        assert "potential.kind" in err and "yukawa" in err

    def test_missing_block_rejected(self):
        with pytest.raises(ConfigError, match="solver"):
            parse_config({"potential": {"kind": "coulomb", "z": 1}, "mass": {},
                          "quantum": {"dim": 3, "ell": [0], "n": [0]}})

    def test_unknown_mass_parameter_rejected(self):
        data = demo_config_dict()
        data["mass"]["bogus"] = 1
        with pytest.raises(ConfigError, match="mass"):
            parse_config(data)

    def test_output_directory_must_be_a_string(self):
        data = demo_config_dict()
        data["output"]["directory"] = 7
        with pytest.raises(ConfigError, match="output.directory: must be a string"):
            parse_config(data)

    def test_bad_bracket_rejected(self):
        data = demo_config_dict()
        data["solver"]["e_lo"] = -0.01
        data["solver"]["e_hi"] = -0.6
        with pytest.raises(ConfigError, match="e_lo"):
            parse_config(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("truncation_order", 2),
            ("scan_steps", 5),
            ("tol_e", -1),
            ("max_iter", 3),
            ("match_radius", -1.0),
            ("oracle_points", 10),
            ("tol_e", None),
            ("truncation_order", 64.5),
            ("e_lo", float("-inf")),
            ("max_iter", 200.5),
        ],
    )
    def test_bad_solver_value_is_config_error(self, tmp_path, capsys, field, value):
        data = demo_config_dict()
        data["solver"][field] = value
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 2
        assert f"solver.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, changes, field",
        [
            ("potential", {"z": -1}, "potential.z"),
            ("potential", {"kind": "cornell", "a": -1.0, "b_lin": 0.2, "c": -3.0},
             "potential.a/b_lin"),
            ("mass", {"kind": "exponential", "lambda": -0.2}, "mass.lambda"),
            ("mass", {"kind": "constant", "m0": -1}, "mass.m0"),
            ("mass", {"kind": "exponential", "m0": -1, "lambda": 0.2}, "mass.m0"),
            # a field the kind does not read, the default kind included
            ("mass", {"kind": "constant", "m0": 1.0, "lambda": 0.2}, "mass.lambda"),
            ("mass", {"m0": 1.0, "lambda": 0.2}, "mass.lambda"),
            ("mass", {"kind": "constant", "coeffs": [1.0]}, "mass.coeffs"),
            ("mass", {"kind": "exponential", "m0": 1.0, "lambda": 0.2,
                      "coeffs": [1.0, -0.2]}, "mass.coeffs"),
            ("mass", {"kind": "series", "m0": 1.0, "coeffs": [1.0, -0.2]}, "mass.m0"),
            # a series that fails only at the solver's truncation order
            ("mass", {"kind": "exponential", "m0": 1.0, "lambda": 50.0}, "mass.lambda"),
            # a series that overflows: its residual is NaN, which no
            # tolerance comparison refuses
            ("mass", {"kind": "exponential", "m0": 1.0, "lambda": 1e300}, "mass.lambda"),
            ("mass", {"kind": "series", "coeffs": [1.0, 1e300, 1e300]}, "mass.coeffs"),
            # values of the wrong JSON type: a block that is not an object,
            # strings and lists for numbers, and fractions or booleans for
            # integers, which int() would truncate
            ("potential", "coulomb", "potential"),
            ("potential", {"z": "abc"}, "potential.z"),
            ("potential", {"z": float("nan")}, "potential.z"),
            ("potential", {"kind": "general", "v1": 1.0, "v2": 0.0, "v3": 0.0,
                           "alpha": 1.5, "beta": 0}, "potential.alpha"),
            ("mass", {"m0": "heavy"}, "mass.m0"),
            ("mass", {"kind": "series", "coeffs": "ab"}, "mass.coeffs"),
            ("mass", {"kind": "series", "coeffs": [1.0, "x"]}, "mass.coeffs"),
            ("quantum", {"n": ["x"]}, "quantum.n"),
            ("quantum", {"ell": 0}, "quantum.ell"),
            ("quantum", {"ell": [0.5]}, "quantum.ell"),
            ("quantum", {"dim": 3.7}, "quantum.dim"),
            ("quantum", {"dim": True}, "quantum.dim"),
        ],
        ids=["coulomb-z", "cornell-a", "exponential-lambda", "constant-m0",
             "exponential-m0", "constant-lambda", "default-kind-lambda",
             "constant-coeffs", "exponential-coeffs", "series-m0",
             "exponential-lambda-at-order", "exponential-lambda-overflow",
             "series-overflow", "potential-string", "z-string", "z-nan", "general-alpha-fraction",
             "m0-string", "coeffs-string", "coeffs-entry-string", "n-string",
             "ell-integer-not-list", "ell-fraction", "dim-fraction", "dim-boolean"],
    )
    def test_bad_model_value_is_config_error(self, tmp_path, capsys, block, changes,
                                             field):
        data = demo_config_dict()
        if not isinstance(changes, dict):
            data[block] = changes
        elif "kind" in changes or block == "mass":  # the whole mass block
            data[block] = dict(changes)
        else:
            data[block].update(changes)
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "block, changes, field",
        [
            ("output", {"wavefunction_grid": {"r_max": 10.0, "points": -3}},
             "output.wavefunction_grid.points"),
            ("output", {"wavefunction_grid": {"r_max": 10.0, "points": 20.5}},
             "output.wavefunction_grid.points"),
            ("output", {"wavefunction_grid": {"r_max": -5, "points": 201}},
             "output.wavefunction_grid.r_max"),
            ("output", {"wavefunction_grid": {"r_max": 10.0}},
             "output.wavefunction_grid"),
            ("solver", {"oracle": "false"}, "solver.oracle"),
            ("output", {"coefficients": 1}, "output.coefficients"),
            ("output", {"formats": "csv"}, "output.formats"),
            ("output", {"wavefunction_grid": {"r_max": 5, "points": 11, "pts": 3}},
             "output.wavefunction_grid.pts"),
        ],
        ids=["points-negative", "points-fraction", "r_max-negative", "r_max-missing",
             "oracle-string", "coefficients-integer", "formats-string",
             "grid-unknown-field"],
    )
    def test_bad_output_or_flag_is_config_error(self, tmp_path, capsys, block,
                                                changes, field):
        # refused at load, before any solve and before the output directory
        # is made
        data = demo_config_dict()
        data[block].update(changes)
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "block, key",
        [("quantum", "nn"), ("solver", "tol_E"), ("output", "coeficients")],
    )
    def test_unknown_field_is_config_error(self, tmp_path, capsys, block, key):
        data = demo_config_dict()
        data[block][key] = 1
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 2
        err = capsys.readouterr().err
        assert f"config error: {block}.{key}: unknown field" in err
        assert not (tmp_path / "out").exists()

    def test_scan_steps_is_accepted_and_ignored(self, tmp_path):
        # older configs still name scan_steps; the brackets come from the
        # collocation spectrum, so its value changes no byte of the output
        outputs = []
        for steps in (10, 400):
            data = demo_config_dict()
            data["solver"]["scan_steps"] = steps
            data["output"]["directory"] = str(tmp_path / f"steps{steps}")
            assert run_solve(str(write_config(tmp_path, data))) == 0
            outputs.append((tmp_path / f"steps{steps}" / "energies.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("no/such/config.json")


class TestSolveDemo:
    def test_exit_code_and_files(self, demo_run):
        rc, outdir = demo_run
        assert rc == 0
        assert (outdir / "energies.csv").exists()
        assert (outdir / "energies.json").exists()

    def test_energies_match_reference(self, demo_run):
        _, outdir = demo_run
        rows = json.loads((outdir / "energies.json").read_text())
        refs = {0: -0.5, 1: -0.125, 2: -1.0 / 18.0}
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            ref = refs[row["radial_n"]]
            assert abs(row["energy"] - ref) <= 1e-8 * abs(ref)
            assert row["nodes"] == row["radial_n"]
            assert row["oracle_gap"] is not None and row["oracle_gap"] < 1e-8

    def test_determinism_byte_identical(self, demo_run, tmp_path):
        _, outdir = demo_run
        data = demo_config_dict()
        data["output"]["directory"] = str(tmp_path / "again")
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 0
        for name in ("energies.csv", "energies.json"):
            assert (tmp_path / "again" / name).read_bytes() == (
                outdir / name
            ).read_bytes()

    def test_golden_energies_file(self, demo_run):
        _, outdir = demo_run
        assert GOLDEN.exists(), "golden file missing from the repository"
        assert (outdir / "energies.csv").read_bytes() == GOLDEN.read_bytes()

    def test_stops_once_every_state_is_found(self, tmp_path, monkeypatch):
        import pdmradial.cli as cli_mod

        solved = []
        original = cli_mod.find_eigenvalue

        def counting(pot, mass, q, cfg, spectrum):
            solved.append(q.radial_n)
            return original(pot, mass, q, cfg, spectrum)

        monkeypatch.setattr(cli_mod, "find_eigenvalue", counting)
        data = demo_config_dict()
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        assert solved == [0, 1, 2]

    def test_csv_header_is_stable(self, demo_run):
        _, outdir = demo_run
        header = (outdir / "energies.csv").read_text().splitlines()[0]
        assert header == (
            "dim,ell,radial_n,k,energy,nodes,norm_const,"
            "tail_residual,oracle_gap,status"
        )


class TestArtifacts:
    def test_coefficients_and_samples(self, tmp_path):
        data = demo_config_dict()
        data["quantum"]["n"] = [0]
        data["solver"]["oracle"] = False
        data["output"]["directory"] = str(tmp_path / "art")
        data["output"]["coefficients"] = True
        data["output"]["wavefunction_grid"] = {"r_max": 8.0, "points": 41}
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 0
        coeff_rows = (tmp_path / "art" / "coefficients.csv").read_text().splitlines()
        assert coeff_rows[0] == "dim,ell,radial_n,i,a_i"
        assert len(coeff_rows) == 2 + 64  # header + a_0..a_64
        wf = json.loads((tmp_path / "art" / "wavefunctions.json").read_text())
        assert wf[0]["r"][0] == 0.0
        assert wf[0]["R"][0] == 0.0  # R(0) = 0 for k > 1

    def test_writers_match_golden_files(self, tmp_path):
        # a small Coulomb run whose samples reach past the trust radius, so
        # the omitted CSV rows and the JSON nulls are pinned too: a slowly
        # decaying mass keeps the series from terminating, as it does at a
        # converged constant-mass Coulomb energy
        data = demo_config_dict()
        data["mass"] = DECAYING_MASS
        data["quantum"]["n"] = [0, 1]
        data["solver"]["truncation_order"] = 24
        data["output"]["directory"] = str(tmp_path / "out")
        data["output"]["coefficients"] = True
        data["output"]["wavefunction_grid"] = {"r_max": 40.0, "points": 41}
        assert run_solve(str(write_config(tmp_path, data))) == 0
        for name in ("coefficients.csv", "coefficients.json",
                     "wavefunctions.csv", "wavefunctions.json"):
            golden = GOLDEN.parent / f"coulomb_demo_{name}"
            assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes(), name
        waves = json.loads((tmp_path / "out" / "wavefunctions.json").read_text())
        assert all(None in w["R"] for w in waves)

    @pytest.mark.parametrize("command, name", [("coefficients", "coefficients.csv"),
                                               ("sample", "wavefunctions.csv")])
    def test_demo_coefficients_and_samples_match_golden_files(self, tmp_path, command,
                                                              name):
        # the files the command line writes for the demo config itself, as
        # CI compares them
        data = demo_config_dict()
        data["output"]["directory"] = str(tmp_path / "out")
        assert main([command, str(write_config(tmp_path, data))]) == 0
        golden = GOLDEN.parent / f"coulomb_demo_cli_{name}"
        assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes()

    def test_solve_runs_on_the_parsed_objects(self, monkeypatch):
        # the config is built once: every state of every channel is solved
        # with the very potential, mass and solver settings parse_config made
        import pdmradial.cli as cli_mod

        seen = []
        original = cli_mod.find_eigenvalue

        def recording(pot, mass, q, cfg, spectrum):
            seen.append((pot, mass, cfg))
            return original(pot, mass, q, cfg, spectrum)

        monkeypatch.setattr(cli_mod, "find_eigenvalue", recording)
        data = json.loads(EXPMASS_CONFIG.read_text())
        data["solver"]["oracle"] = False
        cfg = parse_config(data)
        rows = cli_mod.solve_states(cfg)
        assert len(seen) == len(rows) == 4
        for pot, mass, solver in seen:
            assert pot is cfg.potential
            assert mass is cfg.mass
            assert solver is cfg.solver

    def test_coarse_collocation_solve_only_when_the_oracle_checks(self, monkeypatch):
        # each channel makes one full eigensolve, of the 80-node operator,
        # whether the oracle is on or off; the 60-node pencil is built only
        # when the oracle checks a level, and the energies are the same bits
        # either way
        import pdmradial.cli as cli_mod
        import pdmradial.oracle as oracle_mod

        pencils, eigensolves = [], []
        build, eigvals = oracle_mod.collocation_pencil, np.linalg.eigvals

        def counting_pencil(pot, mass, q, n, r_max):
            pencils.append(n)
            return build(pot, mass, q, n, r_max)

        def counting_eigvals(a):
            eigensolves.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(oracle_mod, "collocation_pencil", counting_pencil)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        energies = {}
        for run_oracle in (False, True):
            data = json.loads(EXPMASS_CONFIG.read_text())
            data["solver"]["oracle"] = run_oracle
            pencils.clear()
            eigensolves.clear()
            rows = cli_mod.solve_states(parse_config(data))
            assert all(row.ok for row in rows)
            assert all((row.result.oracle_gap is not None) == run_oracle for row in rows)
            channels = len(data["quantum"]["ell"])
            assert eigensolves == [(79, 79)] * channels
            assert sorted(pencils) == ([80] * channels if not run_oracle
                                       else [60] * channels + [80] * channels)
            energies[run_oracle] = [row.result.energy for row in rows]
        assert energies[False] == energies[True]

    def test_solver_failure_writes_partial_results(self, tmp_path, capsys):
        data = demo_config_dict()
        data["quantum"]["n"] = [0, 9]  # level 9 lies above the window
        data["solver"]["oracle"] = False
        data["output"]["directory"] = str(tmp_path / "part")
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 1
        rows = json.loads((tmp_path / "part" / "energies.json").read_text())
        by_n = {r["radial_n"]: r for r in rows}
        assert by_n[0]["status"] == "ok"
        assert by_n[9]["status"] == "error"
        assert by_n[9]["message"].startswith(
            "BracketError: state n=9 not found in the window (-0.6, -0.03): "
            "its collocation level is at E="
        )

    def test_series_out_of_float_range_names_energy_and_order(self, tmp_path, capsys):
        data = demo_config_dict()
        data["potential"] = {"kind": "coulomb", "z": 1414.0}
        data["quantum"]["n"] = [0]
        data["solver"].update(e_lo=-1.1e6, e_hi=-0.9e6, truncation_order=500)
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 1
        err = capsys.readouterr().err
        assert "state dim=3 ell=0 n=0 failed: DomainError: the series at E=" in err
        assert "scale_log10 = " in err and "truncation_order 500" in err

    def test_failed_row_names_the_last_failure(self, tmp_path, monkeypatch):
        import pdmradial.cli as cli_mod
        from pdmradial.errors import BracketError

        def failing(pot, mass, q, cfg, spectrum):
            raise BracketError(f"no sign change for n={q.radial_n}")

        monkeypatch.setattr(cli_mod, "find_eigenvalue", failing)
        data = demo_config_dict()
        data["quantum"]["n"] = [0]
        data["output"]["directory"] = str(tmp_path / "fail")
        assert run_solve(str(write_config(tmp_path, data))) == 1
        rows = json.loads((tmp_path / "fail" / "energies.json").read_text())
        assert rows[0]["status"] == "error"
        assert rows[0]["message"] == "BracketError: no sign change for n=0"
        csv_rows = (tmp_path / "fail" / "energies.csv").read_text().splitlines()
        assert csv_rows[1] == "3,0,0,3,,,,,,error"


class TestPdmConfig:
    def test_exponential_mass_cornell_solves(self, tmp_path):
        data = {
            "potential": {"kind": "cornell", "a": 1.0, "b_lin": 0.2, "c": -3.0},
            "mass": {"kind": "exponential", "m0": 1.0, "lambda": 0.2},
            "quantum": {"dim": 3, "ell": [0, 1], "n": [0, 1]},
            "solver": {"e_lo": -3.4, "e_hi": -0.8, "oracle": False},
            "output": {"directory": str(tmp_path / "pdm"), "formats": ["json"]},
        }
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 0
        rows = json.loads((tmp_path / "pdm" / "energies.json").read_text())
        assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
        by_channel = {}
        for r in rows:
            by_channel.setdefault(r["ell"], []).append(r["energy"])
        for ell, energies in by_channel.items():
            assert energies[0] < energies[1] < 0


    def test_golden_energies_file(self, tmp_path):
        # the only golden file with a varying mass
        data = json.loads(EXPMASS_CONFIG.read_text())
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        got = (tmp_path / "out" / "energies.csv").read_bytes()
        assert got == EXPMASS_GOLDEN.read_bytes()

    @pytest.mark.parametrize("command, name", [("coefficients", "coefficients.csv"),
                                               ("sample", "wavefunctions.csv")])
    def test_golden_coefficients_and_samples(self, tmp_path, command, name):
        # the demo's series at order 64 with its whole exp-mass table, and its
        # samples on the default grid, cut at each state's trust radius
        data = json.loads(EXPMASS_CONFIG.read_text())
        data["output"]["directory"] = str(tmp_path / "out")
        assert main([command, str(write_config(tmp_path, data))]) == 0
        golden = EXPMASS_GOLDEN.parent / f"expmass_cornell_{name}"
        assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes()


class TestTwoDimensionalChannels:
    @staticmethod
    def _solve(tmp_path):
        data = {
            "potential": {"kind": "coulomb", "z": 1.0},
            "mass": {"kind": "constant", "m0": 1.0},
            "quantum": {"dim": 2, "ell": [0, 1], "n": [0, 1]},
            "solver": {"e_lo": -2.4, "e_hi": -0.06, "oracle": True},
            "output": {"directory": str(tmp_path / "n2"), "formats": ["csv", "json"]},
        }
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 0
        rows = json.loads((tmp_path / "n2" / "energies.json").read_text())
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == "ok"
            nu = row["radial_n"] + (row["k"] - 1) / 2.0
            assert abs(row["energy"] + 1.0 / (2.0 * nu * nu)) <= 1e-8
        return rows

    def test_states_survive_an_unavailable_oracle(self, tmp_path, monkeypatch):
        # an oracle that fails its own check for every state: the series
        # energies must still be reported, with the oracle's exception in
        # the message
        import pdmradial.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_RESOLUTIONS", ((12, 1.0), (16, 1.25)))
        for row in self._solve(tmp_path):
            assert row["oracle_gap"] is None
            assert row["message"].startswith("ResolutionError: ")

    def test_oracle_checks_every_state(self, tmp_path):
        for row in self._solve(tmp_path):
            assert row["message"] == ""
            assert row["oracle_gap"] <= 1e-8 * abs(row["energy"])


class TestWavefunctionSamples:
    def test_samples_are_normalized(self, tmp_path):
        data = {
            "potential": {"kind": "oscillator", "omega": 1.0, "v3_offset": -20.0},
            "mass": {"kind": "constant", "m0": 1.0},
            "quantum": {"dim": 3, "ell": [0, 1, 2], "n": [0, 1, 2]},
            "solver": {"e_lo": -19.5, "e_hi": -8.7, "truncation_order": 128,
                       "oracle": False},
            "output": {"directory": str(tmp_path / "osc"), "formats": ["json"],
                       "wavefunction_grid": {"r_max": 5.0, "points": 201}},
        }
        rc = run_solve(str(write_config(tmp_path, data)))
        assert rc == 0
        waves = json.loads((tmp_path / "osc" / "wavefunctions.json").read_text())
        assert len(waves) == 9
        for w in waves:
            r = np.array(w["r"])
            R = np.array(w["R"], dtype=float)
            assert np.all(np.isfinite(R))
            assert abs(np.trapezoid(R * R, r) - 1.0) < 1e-3

    def test_one_evaluation_per_state_and_none_past_trust(self, tmp_path, monkeypatch):
        # the trusted radii of each state are evaluated in one array call,
        # and radii past the series trust radius read None (the decaying
        # mass keeps the series from terminating)
        import pdmradial.cli as cli_mod

        calls = []
        evaluate = cli_mod.evaluate

        def counting(wave, r):
            calls.append(np.size(r))
            return evaluate(wave, r)

        monkeypatch.setattr(cli_mod, "evaluate", counting)
        data = demo_config_dict()
        data["mass"] = DECAYING_MASS
        data["quantum"]["n"] = [0, 1]
        data["solver"]["oracle"] = False
        data["solver"]["truncation_order"] = 24
        data["output"]["directory"] = str(tmp_path / "wf")
        data["output"]["wavefunction_grid"] = {"r_max": 60.0, "points": 121}
        assert run_solve(str(write_config(tmp_path, data))) == 0
        assert len(calls) == 2
        waves = json.loads((tmp_path / "wf" / "wavefunctions.json").read_text())
        for w, n_trusted in zip(waves, calls):
            assert 0 < n_trusted < 121
            assert all(v is None for v in w["R"][n_trusted:])
            assert w["R"][0] == 0.0


class TestVerify:
    def test_verify_passes(self, capsys):
        assert run_verify() == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "expmass-recursion-vs-general" in out

    def test_seed_override_same_verdicts(self, capsys):
        assert run_verify(seed=4242) == 0


class TestMain:
    def test_main_verify(self):
        assert main(["verify", "--seed", "11"]) == 0

    def test_main_unknown_config(self, capsys):
        assert main(["solve", "does/not/exist.json"]) == 2

    def test_main_sample_subcommand(self, tmp_path):
        data = demo_config_dict()
        data["quantum"]["n"] = [0]
        data["solver"]["oracle"] = False
        data["output"]["directory"] = str(tmp_path / "s")
        data["output"]["wavefunction_grid"] = {"r_max": 6.0, "points": 31}
        rc = main(["sample", str(write_config(tmp_path, data))])
        assert rc == 0
        assert (tmp_path / "s" / "wavefunctions.csv").exists()
        assert not (tmp_path / "s" / "energies.csv").exists()

    def test_solve_loads_no_scipy_optimize_or_integrate(self, tmp_path):
        # a fresh interpreter, so modules other tests imported do not count
        data = demo_config_dict()
        data["output"]["directory"] = str(tmp_path / "out")
        config = write_config(tmp_path, data)
        script = (
            "import sys\n"
            "from pdmradial.cli import main\n"
            f"assert main(['solve', {str(config)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'optimize'], ['scipy', 'integrate'])))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "energies.csv").exists()

    def test_solve_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with every scipy import made
        # to fail, both demo configs still solve, checked by the oracle
        configs = []
        for source in (DEMO_CONFIG, EXPMASS_CONFIG):
            data = json.loads(source.read_text())
            data["output"]["directory"] = str(tmp_path / source.stem)
            configs.append(str(write_config(tmp_path, data, f"{source.stem}.json")))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pdmradial.cli import main\n"
            f"for config in {configs!r}:\n"
            "    assert main(['solve', config]) == 0, config\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        for source in (DEMO_CONFIG, EXPMASS_CONFIG):
            rows = json.loads((tmp_path / source.stem / "energies.json").read_text())
            assert rows and all(r["status"] == "ok" for r in rows)
