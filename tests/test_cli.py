import json
import math
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
from pdmradial import eigensolver
from pdmradial.model import make_coulomb
import pdmradial.oracle as oracle

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO / "configs" / "coulomb_demo.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "coulomb_demo_energies.csv"
EXPMASS_CONFIG = REPO / "configs" / "expmass_cornell_demo.json"
EXPMASS_GOLDEN = GOLDEN.parent / "expmass_cornell_energies.csv"
OSCILLATOR_CONFIG = REPO / "configs" / "oscillator_demo.json"
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
        "field, value, problem",
        [
            ("truncation_order", 2, "must be at least 4"),
            ("scan_steps", 5, "must be at least 10"),
            # Brent's tolerance and iteration limit are constants now
            ("tol_e", -1, "unknown field"),
            ("max_iter", 3, "unknown field"),
            ("match_radius", -1.0, "unknown field"),
            ("oracle_points", 10, "unknown field"),
            ("tol_e", None, "unknown field"),
            ("truncation_order", 64.5, "must be an integer"),
            ("e_lo", float("-inf"), "must be a number"),
            ("max_iter", 200.5, "unknown field"),
        ],
        ids=["truncation_order-2", "scan_steps-5", "tol_e--1", "max_iter-3",
             "match_radius--1.0", "oracle_points-10", "tol_e-None",
             "truncation_order-64.5", "e_lo--inf", "max_iter-200.5"],
    )
    def test_bad_solver_value_is_config_error(self, tmp_path, capsys, field, value,
                                              problem):
        data = demo_config_dict()
        data["solver"][field] = value
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 2
        assert f"config error: solver.{field}: {problem}" in capsys.readouterr().err

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
            # a series whose m'/m overflows only at the truncation order
            ("mass", {"kind": "series", "coeffs": [1.0, 1e5]}, "mass.coeffs"),
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
             "series-overflow", "series-at-order", "potential-string", "z-string", "z-nan", "general-alpha-fraction",
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

    @pytest.mark.parametrize("case", ["config-directory", "config-not-utf8",
                                      "output-directory-is-a-file"])
    def test_unreadable_input_is_config_error(self, tmp_path, capsys, case):
        # each of these ended in a traceback, not in exit 2
        data = demo_config_dict()
        data["output"]["directory"] = str(tmp_path / "taken")
        path = write_config(tmp_path, data)
        if case == "config-directory":
            path, message = tmp_path, f"config path is a directory: {tmp_path}"
        elif case == "config-not-utf8":
            path.write_bytes(b'{"potential": "\xff"}')
            message = f"config file is not UTF-8 (byte 15): {path}"
        else:
            (tmp_path / "taken").write_text("")
            message = f"output.directory: cannot make {str(tmp_path / 'taken')!r}: "
        assert run_solve(str(path)) == 2
        assert f"config error: {message}" in capsys.readouterr().err


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
        # the JSON file pins every bit of energy, norm_const, tail_residual
        # and oracle_gap of the one constant-mass demo with the oracle on
        _, outdir = demo_run
        assert GOLDEN.exists(), "golden file missing from the repository"
        assert (outdir / "energies.csv").read_bytes() == GOLDEN.read_bytes()
        got = (outdir / "energies.json").read_bytes()
        assert got == GOLDEN.with_suffix(".json").read_bytes()

    def test_stops_once_every_state_is_found(self, tmp_path, monkeypatch):
        solved = []
        original = eigensolver.search_root

        def counting(pot, mass, q, cfg, spectrum, cuts):
            solved.append(q.radial_n)
            return original(pot, mass, q, cfg, spectrum, cuts)

        monkeypatch.setattr(eigensolver, "search_root", counting)
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
        # a small Coulomb run whose samples reach along the inward leg and
        # past its far end, where they read 0: a slowly decaying mass keeps
        # the series from terminating, as it does at a converged
        # constant-mass Coulomb energy
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
        assert not any(None in w["R"] for w in waves)
        assert waves[0]["R"][-1] == 0.0  # the ground state's r_far is inside

    @pytest.mark.parametrize("command, name", [("coefficients", "coefficients.csv"),
                                               ("coefficients", "coefficients.json"),
                                               ("sample", "wavefunctions.csv"),
                                               ("sample", "wavefunctions.json")])
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
        original = eigensolver.search_root

        def recording(pot, mass, q, cfg, spectrum, cuts):
            seen.append((pot, mass, cfg))
            return original(pot, mass, q, cfg, spectrum, cuts)

        monkeypatch.setattr(eigensolver, "search_root", recording)
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

    def test_deep_expmass_state_solves_at_order_500(self, tmp_path):
        # z = 1414 with a decaying mass at order 500: the series in
        # x = r/2^x_exp stays in the float range, and the state solves
        data = demo_config_dict()
        data["potential"] = {"kind": "coulomb", "z": 1414.0}
        data["mass"] = DECAYING_MASS
        data["quantum"]["n"] = [0]
        data["solver"].update(e_lo=-1.1e6, e_hi=-0.9e6, truncation_order=500)
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        rows = json.loads((tmp_path / "out" / "energies.json").read_text())
        assert [r["status"] for r in rows] == ["ok"]
        assert rows[0]["oracle_gap"] <= 1e-12 * abs(rows[0]["energy"])

    def test_dump_refuses_a_state_out_of_the_float_range(self, tmp_path, capsys):
        # z = 4000 at order 500: the l = 0 state solves, but its
        # coefficients in r, a_i = 2^(-x_exp i) times the series' own with
        # x_exp = -11, pass the float ceiling; the dump leaves it out, says
        # so and exits 1, and still writes the l = 1 state
        data = demo_config_dict()
        data["potential"] = {"kind": "coulomb", "z": 4000.0}
        data["mass"] = DECAYING_MASS
        data["quantum"].update(ell=[0, 1], n=[0])
        data["solver"].update(e_lo=-9e6, e_hi=-1.5e6, truncation_order=500)
        data["output"].update(directory=str(tmp_path / "out"), coefficients=True)
        assert run_solve(str(write_config(tmp_path, data))) == 1
        rows = json.loads((tmp_path / "out" / "energies.json").read_text())
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert capsys.readouterr().err == (
            "state dim=3 ell=0 n=0 coefficients leave the float range at a_154 "
            "(truncation_order 500)\n")
        dumped = json.loads((tmp_path / "out" / "coefficients.json").read_text())
        assert [(d["ell"], d["radial_n"]) for d in dumped] == [(1, 0)]
        assert dumped[0]["coefficients"][0] == 1.0

    def test_deep_coulomb_state_dumps_its_coefficients_in_r(self, tmp_path, capsys):
        # the 2s state at z = 1414, order 500: a_0 = 1, so norm_const is the
        # closed form 2 (Z/2)^(3/2) itself, and the dump holds
        # u = 1 - (Z/2) r; every a_i is finite, so nothing is refused
        z = 1414.0
        data = demo_config_dict()
        data["potential"] = {"kind": "coulomb", "z": z}
        data["quantum"]["n"] = [1]
        data["solver"].update(e_lo=-1.1e6, e_hi=-1e4, truncation_order=500)
        data["output"].update(directory=str(tmp_path / "out"), coefficients=True)
        assert run_solve(str(write_config(tmp_path, data))) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "out" / "energies.json").read_text())
        assert [r["status"] for r in rows] == ["ok"]
        assert rows[0]["norm_const"] == pytest.approx(2.0 * (z / 2.0) ** 1.5, rel=1e-14)
        (dumped,) = json.loads((tmp_path / "out" / "coefficients.json").read_text())
        a = dumped["coefficients"]
        assert len(a) == 501 and all(map(math.isfinite, a))
        assert a[:3] == [1.0, -z / 2.0, 0.0]

    def test_deep_coulomb_state_solves_at_order_500(self, tmp_path):
        # at constant mass the root's series terminates, and in x = r/2^x_exp
        # the series at every other energy the solve tries stays in the
        # float range too
        data = demo_config_dict()
        data["potential"] = {"kind": "coulomb", "z": 1414.0}
        data["quantum"]["n"] = [0]
        data["solver"].update(e_lo=-1.1e6, e_hi=-0.9e6, truncation_order=500)
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        rows = json.loads((tmp_path / "out" / "energies.json").read_text())
        assert [r["status"] for r in rows] == ["ok"]
        assert rows[0]["energy"] == -999698.0  # -z^2 / 2

    def test_deep_coulomb_state_samples_finite(self, tmp_path):
        # the series in x = r/2^x_exp times norm_const, about 3.8e4: no
        # coefficient overflows (R(0.001) was once -Infinity, not valid JSON)
        z = 1414.0
        data = demo_config_dict()
        data["potential"] = {"kind": "coulomb", "z": z}
        data["quantum"]["n"] = [1]
        data["solver"].update(e_lo=-1.1e6, e_hi=-1e4, truncation_order=500)
        data["output"].update(directory=str(tmp_path / "out"),
                              wavefunction_grid={"r_max": 0.01, "points": 11})
        assert main(["sample", str(write_config(tmp_path, data))]) == 0
        rows = json.loads((tmp_path / "out" / "wavefunctions.json").read_text(),
                          parse_constant=lambda name: pytest.fail(name))
        r, got = np.array(rows[0]["r"]), np.array(rows[0]["R"])
        assert r.size == 11 and np.all(np.isfinite(got))
        # the 2s state, r R(r) = 2 (z/2)^(3/2) r (1 - z r/2) e^(-z r/2)
        want = 2.0 * (z / 2.0) ** 1.5 * r * (1.0 - z * r / 2.0) * np.exp(-z * r / 2.0)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "model, solver, max_iter, rows, message",
        [
            # ten Brent iterations do not converge on the state's cell
            (({"kind": "cornell", "a": 1.2098804125151645, "b_lin": 0.1034177831573367,
               "c": -4.9488381244064055},
              {"kind": "exponential", "m0": 1.0, "lambda": 0.3493527885671899},
              {"dim": 3, "ell": [2], "n": [0]}),
             {"e_lo": -8.608, "e_hi": -0.1, "truncation_order": 64}, 10,
             1, "BracketError: Brent's method did not converge in 10 "
                "iterations on the cell"),
            # lambda r_max is about 2043 on the oracle's grid, where m(r)
            # underflows to zero
            (({"kind": "cornell", "a": 1.369183043945897, "b_lin": 0.005522963132630987,
               "c": -5.406169294610777},
              {"kind": "exponential", "m0": 1.0, "lambda": 0.28086386458805035},
              {"dim": 2, "ell": [0, 1], "n": [0, 1, 2]}),
             {"e_lo": -10.092824814183157, "e_hi": -0.1, "truncation_order": 96}, 200,
             6, "channel failed: DomainError: the mass underflows on the "
                "collocation grid of r_max="),
            # the exp-mass demo's problem at order 6: the root's series has
            # not converged at r_match by the truncation order
            (({"kind": "cornell", "a": 1.0, "b_lin": 0.2, "c": -3.0},
              {"kind": "exponential", "m0": 1.0, "lambda": 0.2},
              {"dim": 3, "ell": [0], "n": [1, 2]}),
             {"e_lo": -3.4, "e_hi": -0.8, "truncation_order": 6}, 200,
             2, "DomainError: truncation_order 6 is too low for r_match="),
            # m = 1 - 0.2 r vanishes at r = 5, inside the collocation grid
            (({"kind": "cornell", "a": 1.0, "b_lin": 0.2, "c": -3.0},
              {"kind": "series", "coeffs": [1.0, -0.2]},
              {"dim": 3, "ell": [0], "n": [0, 1]}),
             {"e_lo": -6.0, "e_hi": -0.5}, 200,
             2, "channel failed: DomainError: the mass is negative on the "
                "collocation grid of r_max="),
        ],
        ids=["brent-iteration-limit", "mass-underflow", "order-too-low",
             "mass-negative"],
    )
    def test_numerical_failure_is_an_error_row(self, tmp_path, capsys, monkeypatch,
                                               model, solver, max_iter, rows, message):
        monkeypatch.setattr(eigensolver, "_MAX_ITER", max_iter)
        potential, mass, quantum = model
        data = {"potential": potential, "mass": mass, "quantum": quantum,
                "solver": solver, "output": {"directory": str(tmp_path / "out")}}
        assert run_solve(str(write_config(tmp_path, data))) == 1
        records = json.loads((tmp_path / "out" / "energies.json").read_text())
        assert [r["status"] for r in records] == ["error"] * rows
        assert all(r["message"].startswith(message) for r in records), records
        csv_rows = (tmp_path / "out" / "energies.csv").read_text().splitlines()
        assert len(csv_rows) == rows + 1

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_norm_is_an_error_row(self, tmp_path, monkeypatch, value):
        # the state whose norm integral is not finite fails alone
        import pdmradial.tail as tail_mod

        norm2 = tail_mod.Inward.norm2
        calls = []

        def second_fails(self, leg):
            calls.append(leg)
            return value if len(calls) == 2 else norm2(self, leg)

        monkeypatch.setattr(tail_mod.Inward, "norm2", second_fails)
        data = demo_config_dict()
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 1
        rows = json.loads((tmp_path / "out" / "energies.json").read_text())
        assert [r["status"] for r in rows] == ["ok", "error", "ok"]
        assert rows[1]["message"].startswith(
            "DomainError: the norm integral of the state at E=")
        assert rows[1]["norm_const"] is None

    def test_failed_row_names_the_last_failure(self, tmp_path, monkeypatch):
        from pdmradial.errors import BracketError

        def failing(pot, mass, q, cfg, spectrum, cuts):
            raise BracketError(f"no sign change for n={q.radial_n}")

        monkeypatch.setattr(eigensolver, "search_root", failing)
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


    def test_one_round_derives_each_mass_series_once(self, monkeypatch):
        # every series the round reads, (P, lam, order), is derived once and
        # then read from the cache: once for P's degree at construction and
        # once at the truncation order, however many energies are tried; the
        # recurrence's tables scaled to x = r/2^x_exp are derived from it
        # once per power of two of the states' match radii
        import pdmradial.cli as cli_mod
        import pdmradial.model as model_mod
        import pdmradial.recurrence as rec_mod

        derived = []
        taylor = model_mod._exp_taylor

        def recording(lam, order):
            derived.append((lam, order))
            return taylor(lam, order)

        monkeypatch.setattr(model_mod, "_exp_taylor", recording)
        model_mod._series.cache_clear()
        rec_mod._reversed_tables.cache_clear()
        rows = cli_mod.solve_states(load_config(EXPMASS_CONFIG))
        assert derived == [(0.2, 0), (0.2, 64)]
        scaled = rec_mod._reversed_tables.cache_info()
        assert scaled.misses == len({row.result.solution.x_exp for row in rows})
        assert scaled.hits > 0 and model_mod._series.cache_info().hits == scaled.misses

    def test_golden_energies_file(self, tmp_path):
        # the only golden file with a varying mass; the JSON file pins every
        # bit of the energies and of norm_const, whose norm past r_match
        # comes from the inward leg
        data = json.loads(EXPMASS_CONFIG.read_text())
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        got = (tmp_path / "out" / "energies.csv").read_bytes()
        assert got == EXPMASS_GOLDEN.read_bytes()
        got = (tmp_path / "out" / "energies.json").read_bytes()
        assert got == EXPMASS_GOLDEN.with_suffix(".json").read_bytes()

    @pytest.mark.parametrize("command, name", [("coefficients", "coefficients.csv"),
                                               ("sample", "wavefunctions.csv"),
                                               ("coefficients", "coefficients.json"),
                                               ("sample", "wavefunctions.json")])
    def test_golden_coefficients_and_samples(self, tmp_path, command, name):
        # the demo's series at order 64 with its whole exp-mass table, and its
        # samples on the default grid, the series to r_match and the inward
        # leg beyond; the JSON files hold every bit
        data = json.loads(EXPMASS_CONFIG.read_text())
        data["output"]["directory"] = str(tmp_path / "out")
        assert main([command, str(write_config(tmp_path, data))]) == 0
        golden = EXPMASS_GOLDEN.parent / f"expmass_cornell_{name}"
        assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes()


class TestOscillatorDemo:
    def test_golden_files(self, tmp_path):
        # the order-128 path: the oscillator workload's centre problem with
        # its coefficients and samples on a 201-point grid; the JSON files
        # hold every bit, the CSV files pin the text rows
        data = json.loads(OSCILLATOR_CONFIG.read_text())
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        for name in ("energies.json", "coefficients.json", "wavefunctions.json",
                     "energies.csv", "coefficients.csv", "wavefunctions.csv"):
            golden = GOLDEN.parent / f"oscillator_demo_{name}"
            assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes(), name

    def test_one_oracle_tail_radius_for_three_channels(self, tmp_path, monkeypatch):
        # r_max depends on the window, not on l: the three channels share one
        # search, and the energies keep their bits
        calls, tail_radius = [], oracle.tail_radius

        def counted(*args, **kwargs):
            calls.append(args)
            return tail_radius(*args, **kwargs)

        monkeypatch.setattr(oracle, "tail_radius", counted)
        data = json.loads(OSCILLATOR_CONFIG.read_text())
        data["output"]["directory"] = str(tmp_path / "out")
        assert run_solve(str(write_config(tmp_path, data))) == 0
        assert len(calls) == 1 and len(data["quantum"]["ell"]) == 3
        golden = GOLDEN.parent / "oscillator_demo_energies.json"
        assert (tmp_path / "out" / "energies.json").read_bytes() == golden.read_bytes()


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
            # the trapezoid rule, written out (np.trapezoid needs numpy 2)
            r2 = R * R
            assert abs(float(np.sum(0.5 * (r2[1:] + r2[:-1]) * np.diff(r))) - 1.0) < 1e-3

    def test_one_evaluation_per_state_and_the_leg_past_r_match(self, tmp_path,
                                                                monkeypatch):
        # the radii up to r_match of every state are evaluated on its series
        # in one call for the file, the rest of every state on its inward
        # leg in one call for the file, and radii past r_far read 0 (the
        # decaying mass keeps the series from terminating)
        import pdmradial.cli as cli_mod

        calls, legs = [], []
        evaluate, leg_values = cli_mod.evaluate, cli_mod.leg_values

        def counting(pairs):
            calls.append([np.size(r) for _, r in pairs])
            return evaluate(pairs)

        def on_legs(states):
            legs.append(states)
            return leg_values(states)

        monkeypatch.setattr(cli_mod, "leg_values", on_legs)
        monkeypatch.setattr(cli_mod, "evaluate", counting)
        data = demo_config_dict()
        data["mass"] = DECAYING_MASS
        data["quantum"]["n"] = [0, 1]
        data["solver"]["oracle"] = False
        data["solver"]["truncation_order"] = 24
        data["output"]["directory"] = str(tmp_path / "wf")
        data["output"]["wavefunction_grid"] = {"r_max": 100.0, "points": 121}
        assert run_solve(str(write_config(tmp_path, data))) == 0
        assert len(calls) == 1 and len(calls[0]) == 2
        assert len(legs) == 1 and len(legs[0]) == 2
        waves = json.loads((tmp_path / "wf" / "wavefunctions.json").read_text())
        for w, n_near, (inward, r) in zip(waves, calls[0], legs[0]):
            assert 0 < n_near < 121 and n_near + r.size == 121
            assert w["r"][n_near - 1] <= inward.edges[0] < r[0] == w["r"][n_near]
            past = np.array(w["r"]) > inward.edges[-1]
            assert past.any() and not np.any(np.array(w["R"])[past])
            assert np.all(np.array(w["R"])[~past][1:]) and w["R"][0] == 0.0


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

    def test_importing_the_cli_leaves_the_identity_suite_out(self):
        # a fresh interpreter: only `verify` loads the identity suite
        script = (
            "import sys\n"
            "import pdmradial.cli\n"
            "print('pdmradial.identities' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

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
