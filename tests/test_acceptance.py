"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure and runtime."""

import json
import math
import time
from pathlib import Path

import numpy as np

from coulomb_reference import coulomb_a0_reference, coulomb_reference_energy
from pdmradial.cli import run_solve, run_verify
from pdmradial.eigensolver import SolverConfig, find_eigenvalue
from pdmradial.model import MassProfile, PotentialSpec, QuantumNumbers, make_cornell, make_coulomb
from pdmradial.oracle import channel_spectrum
from pdmradial.recurrence import (
    coefficient_closed_forms_cornell,
    coefficient_closed_forms_expmass,
    coulomb_closed_form_coefficients,
    expmass_cornell_coefficients,
    generate_coefficients,
)
from pdmradial.wavefunction import evaluate, ode_residual, trusted

REPO = Path(__file__).resolve().parent.parent


def report(num: int, label: str, passed: bool, detail: str, t0: float, limit: float):
    elapsed = time.time() - t0
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {verdict} [{elapsed:6.1f}s/{limit:g}s] {label}: {detail}")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime limit ({elapsed:.1f}s)"


def test_criterion_01_closed_form_coefficient_identities():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        pot = make_cornell(
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(0.0, 1.5)),
            float(rng.uniform(-1.0, 1.0)),
        )
        q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
        e = -float(rng.uniform(0.1, 3.0))

        # general mass series against the Cornell closed forms
        mass = MassProfile(np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-0.3, 0.3, 3)]))
        sol = generate_coefficients(pot, mass, q, e, 4)
        closed = coefficient_closed_forms_cornell(pot, mass, q, e)
        worst = max(worst, max(abs(sol.coeffs[i + 1] - closed[i]) for i in range(3)))

        # exponentially decaying mass against its dedicated closed forms
        m0 = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.02, 1.0))
        mass_e = MassProfile([m0], lam)
        sol_e = generate_coefficients(pot, mass_e, q, e, 4)
        closed_e = coefficient_closed_forms_expmass(pot, m0, lam, q, e)
        worst = max(
            worst, max(abs(sol_e.coeffs[i + 1] - closed_e[i]) for i in range(3))
        )
    report(
        1, "closed-form coefficient identities", worst < 1e-12,
        f"max deviation {worst:.3e} (tol 1e-12, 50 sets)", t0, 1.0,
    )


def test_criterion_02_dual_derivation_consistency():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        pot = make_cornell(
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(0.0, 1.5)),
            float(rng.uniform(-1.0, 1.0)),
        )
        m0 = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.02, 1.0))
        mass = MassProfile([m0], lam)
        q = QuantumNumbers(int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0)
        e = -float(rng.uniform(0.1, 3.0))
        s_exp = expmass_cornell_coefficients(pot, mass, q, e, 20)
        s_gen = generate_coefficients(pot, mass, q, e, 20)
        scale = np.maximum.accumulate(
            np.maximum(np.abs(s_gen.coeffs), np.abs(s_exp.coeffs))
        )
        worst = max(
            worst,
            float(np.max(np.abs(s_exp.coeffs - s_gen.coeffs) / np.maximum(scale, 1e-300))),
        )
    report(
        2, "dual-derivation consistency (exp-mass recursion vs general)",
        worst < 1e-12, f"max relative deviation {worst:.3e} for n <= 20 (20 sets)",
        t0, 1.0,
    )


def test_criterion_03_coulomb_exactness():
    t0 = time.time()
    pot = make_coulomb(1.0)
    mass = MassProfile([1.0])
    worst = 0.0
    count = 0
    for dim in (2, 3, 4, 5):
        for ell in range(5):
            for n in range(5 - ell):
                q = QuantumNumbers(dim, ell, n)
                e_ref = coulomb_reference_energy(1.0, 1.0, q)
                res = find_eigenvalue(
                    pot, mass, q,
                    SolverConfig(e_bracket=(1.15 * e_ref, 0.85 * e_ref)),
                )
                worst = max(worst, abs(res.energy - e_ref) / abs(e_ref))
                count += 1
    report(
        3, "Coulomb exactness", worst < 1e-8,
        f"max relative error {worst:.3e} over {count} states "
        f"(N in 2..5, n+l <= 4)", t0, 30.0,
    )


def test_criterion_04_coulomb_wavefunction_closed_form():
    t0 = time.time()
    a_c, m0 = 1.0, 1.0
    pot = make_coulomb(a_c)
    mass = MassProfile([m0])
    worst_coeff = worst_tail = worst_point = 0.0
    for ell in range(5):
        for n in range(5 - ell):
            q = QuantumNumbers(3, ell, n)
            e = coulomb_reference_energy(a_c, m0, q)
            sol = generate_coefficients(pot, mass, q, e, 24)
            ref = np.array(
                [coulomb_closed_form_coefficients(a_c, m0, q, i) for i in range(25)]
            )
            worst_coeff = max(worst_coeff, float(np.max(np.abs(sol.coeffs[:4] - ref[:4]))))
            scale = float(np.max(np.abs(sol.coeffs)))
            if n + 1 < sol.coeffs.size:
                worst_tail = max(
                    worst_tail, float(np.max(np.abs(sol.coeffs[n + 1 :]))) / scale
                )
            radii = np.linspace(1e-3, 10.0 / (a_c * m0), 60)
            vals = np.array([evaluate(sol, float(r)) for r in radii])
            exact = np.array(
                [
                    r ** ((q.k - 1) / 2.0)
                    * math.exp(-sol.b * r)
                    * sum(ref[i] * r**i for i in range(n + 1))
                    for r in radii
                ]
            )
            worst_point = max(
                worst_point,
                float(np.max(np.abs(vals - exact))) / float(np.max(np.abs(exact))),
            )
    passed = worst_coeff < 1e-12 and worst_tail < 1e-10 and worst_point < 1e-10
    report(
        4, "Coulomb wavefunction closed form", passed,
        f"coeff dev {worst_coeff:.2e} (<1e-12), termination {worst_tail:.2e} "
        f"(<1e-10), pointwise {worst_point:.2e} (<1e-10)", t0, 5.0,
    )


def test_criterion_05_k_degeneracy():
    t0 = time.time()
    pot = make_cornell(1.0, 0.25, -4.0)
    mass = MassProfile([1.0])
    # k = 4 admits exactly two (N, l) pairs with N >= 1; all existing pairs
    # are checked for it
    families = {
        4: [(4, 0), (2, 1)],
        5: [(5, 0), (3, 1), (1, 2)],
        7: [(7, 0), (5, 1), (3, 2), (1, 3)],
    }
    detail = []
    passed = True
    for k, pairs in families.items():
        energies = []
        for dim, ell in pairs:
            q = QuantumNumbers(dim, ell, 0)
            res = find_eigenvalue(pot, mass, q, SolverConfig(e_bracket=(-3.95, -0.3)))
            energies.append(res.energy)
        spread = (max(energies) - min(energies)) / abs(energies[0])
        detail.append(f"k={k}: spread {spread:.2e} over {len(pairs)} pairs")
        passed = passed and spread < 1e-8
    report(5, "k-degeneracy", passed, "; ".join(detail), t0, 60.0)


def test_criterion_06_pdm_oracle_agreement():
    t0 = time.time()
    pot = make_cornell(1.0, 0.2, -3.0)
    worst = 0.0
    count = 0
    for lam in (0.05, 0.2):
        mass = MassProfile([1.0], lam)
        for ell in (0, 1):
            for n in range(2):
                res = find_eigenvalue(
                    pot, mass, QuantumNumbers(3, ell, n),
                    SolverConfig(e_bracket=(-3.4, -0.8), run_oracle=True),
                )
                worst = max(worst, res.oracle_gap / abs(res.energy))
                count += 1
    report(
        6, "PDM oracle agreement", worst < 1e-6 and count == 8,
        f"max |E_series - E_oracle|/|E| = {worst:.3e} over {count} states "
        f"(lambda in {{0.05, 0.2}}, l in {{0, 1}})", t0, 120.0,
    )


def test_criterion_07_residual_convergence():
    t0 = time.time()
    mass = MassProfile([1.0])
    cases = {
        "coulomb": (make_coulomb(1.0), (-0.6, -0.4)),
        "oscillator": (PotentialSpec(0.0, 1.0, -20.0, 0, 2), (-18.5, -17.0)),
        "linear": (PotentialSpec(0.0, 0.5, -6.0, 0, 1), (-5.3, -4.2)),
        "cornell": (make_cornell(1.0, 0.3, -5.0), (-5.3, -4.8)),
    }
    floor = 1e-12
    passed = True
    detail = []
    for name, (pot, bracket) in cases.items():
        res = find_eigenvalue(
            pot, mass, QuantumNumbers(3, 0, 0), SolverConfig(e_bracket=bracket)
        )
        e = res.energy
        b = math.sqrt(-2.0 * e)
        sol8 = generate_coefficients(pot, mass, QuantumNumbers(3, 0, 0), e, 8)
        # the order-8 series must be trusted at every radius checked
        r_base = 3.0 / b
        while not trusted(sol8, r_base):
            r_base *= 0.9
        radii = [0.25 * r_base, 0.45 * r_base, 0.7 * r_base]
        ok = True
        worst_ratio = 0.0
        for r in radii:
            prev = None
            for order in (8, 16, 32, 64):
                sol = generate_coefficients(
                    pot, mass, QuantumNumbers(3, 0, 0), e, order
                )
                res_val = ode_residual(sol, pot, mass, e, r)
                if prev is not None and prev > floor:
                    ratio = res_val / prev
                    worst_ratio = max(worst_ratio, ratio)
                    if res_val > floor and ratio > 1e-2:
                        ok = False
                prev = res_val
        detail.append(f"{name}: worst step ratio {worst_ratio:.1e}")
        passed = passed and ok
    report(
        7, "residual convergence per order doubling (>=100x or floor)",
        passed, "; ".join(detail), t0, 10.0,
    )


def test_criterion_08_normalization():
    t0 = time.time()
    details = []
    passed = True
    for a_c, m0 in [(1.0, 1.0), (1.4, 0.8)]:
        q = QuantumNumbers(3, 0, 0)
        e = coulomb_reference_energy(a_c, m0, q)
        res = find_eigenvalue(make_coulomb(a_c), MassProfile([m0]), q,
                              SolverConfig(e_bracket=(1.2 * e, 0.8 * e)))
        # the series' a0 is 1, so norm_const is the normalized a0
        a0 = res.norm_const * res.solution.a0
        target = 2.0 * (a_c * m0) ** 1.5
        err = abs(a0 - target) / target
        ratio = a0 / coulomb_a0_reference(a_c, m0, 0, 0)
        passed = passed and err < 1e-8
        details.append(
            f"A={a_c}, m0={m0}: a0 err {err:.2e}, ratio to closed-form "
            f"reference {ratio:.12f} (reported, not asserted)"
        )
    report(8, "ground-state normalization", passed, "; ".join(details), t0, 1.0)


def test_criterion_09_oscillator_spacing():
    t0 = time.time()
    pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
    mass = MassProfile([1.0])
    q0 = QuantumNumbers(3, 0, 0)
    spectrum = channel_spectrum(pot, mass, q0, (-19.0, -4.0))
    series = []
    oracle = []
    for n in range(5):
        q = QuantumNumbers(3, 0, n)
        res = find_eigenvalue(
            pot, mass, q, SolverConfig(e_bracket=(-19.0, -4.0)), spectrum
        )
        series.append(res.energy)
        alone = channel_spectrum(pot, mass, q, spectrum.cell(n)[0])
        oracle.append(alone.checked(alone.cell(n)[1]))
    s_sp = np.diff(series)
    o_sp = np.diff(oracle)
    s_var = float(np.max(np.abs(s_sp / s_sp[0] - 1.0)))
    o_var = float(np.max(np.abs(o_sp / o_sp[0] - 1.0)))
    report(
        9, "oscillator spacing structure", s_var < 1e-6 and o_var < 1e-6,
        f"series spacing variation {s_var:.2e}, oracle {o_var:.2e} "
        f"(both < 1e-6, n <= 3)", t0, 30.0,
    )


def test_criterion_10_cli_determinism_and_golden(tmp_path, capsys):
    t0 = time.time()
    golden = (REPO / "tests" / "golden" / "coulomb_demo_energies.csv").read_bytes()
    data = json.loads((REPO / "configs" / "coulomb_demo.json").read_text())
    outputs = []
    for run in ("first", "second"):
        data["output"]["directory"] = str(tmp_path / run)
        cfg = tmp_path / f"{run}.json"
        cfg.write_text(json.dumps(data))
        rc = run_solve(str(cfg))
        assert rc == 0
        outputs.append((tmp_path / run / "energies.csv").read_bytes())
    verify_rc = run_verify()
    capsys.readouterr()
    passed = outputs[0] == outputs[1] == golden and verify_rc == 0
    report(
        10, "CLI determinism and golden files", passed,
        f"two runs byte-identical to golden: {outputs[0] == golden}; "
        f"verify exit code {verify_rc}", t0, 60.0,
    )
