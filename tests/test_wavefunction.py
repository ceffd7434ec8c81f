import math

import numpy as np
import pytest

from pdmradial.errors import (
    DegenerateWavefunctionError,
    DomainError,
    ExtrapolationWarning,
    SingularPointError,
)
from pdmradial.mass_expansion import constant_mass, expand_exponential
from pdmradial.model import PotentialSpec, QuantumNumbers, make_coulomb, make_cornell
from pdmradial.recurrence import (
    coulomb_closed_form_coefficients,
    generate_coefficients,
)
from pdmradial.wavefunction import (
    RadialWavefunction,
    coulomb_a0_reference,
    count_nodes,
    evaluate,
    normalize,
    ode_residual,
    sign_changes,
    trust_radius,
)


def coulomb_state(a_c=1.0, m0=1.0, n=0, ell=0, order=32):
    """Exact terminating Coulomb series state at its eigenvalue (N = 3)."""
    q = QuantumNumbers(3, ell, n)
    e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
    sol = generate_coefficients(make_coulomb(a_c), constant_mass(m0), q, e, order)
    return sol, e


class TestEvaluate:
    def test_zero_at_origin_for_k_above_one(self):
        sol, _ = coulomb_state()
        w = RadialWavefunction.from_solution(sol)
        assert evaluate(w, 0.0) == 0.0

    def test_coulomb_ground_state_value(self):
        # R = a0 r e^{-A m0 r}, so R(1/(A m0)) = a0 e^{-1} / (A m0)
        a_c, m0 = 1.7, 0.8
        sol, _ = coulomb_state(a_c, m0)
        w = RadialWavefunction.from_solution(sol)
        r = 1.0 / (a_c * m0)
        assert evaluate(w, r) == pytest.approx(math.exp(-1.0) / (a_c * m0), rel=1e-13)

    def test_linearity_in_a0(self):
        sol, _ = coulomb_state(n=1)
        w1 = RadialWavefunction.from_solution(sol)
        w2 = RadialWavefunction.from_solution(sol.scaled(2.0))
        for r in (0.3, 1.0, 4.0):
            assert evaluate(w2, r) == pytest.approx(2.0 * evaluate(w1, r), rel=1e-14)

    def test_rejects_negative_radius(self):
        sol, _ = coulomb_state()
        with pytest.raises(DomainError):
            evaluate(RadialWavefunction.from_solution(sol), -1.0)

    def test_extrapolation_warning_beyond_cutoff(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e = math.sqrt(2.0) * 1.5 - 20.0
        sol = generate_coefficients(
            pot, constant_mass(1.0),
            QuantumNumbers(3, 0, 0), e, 16,
        )
        w = RadialWavefunction.from_solution(sol)
        assert math.isfinite(w.eval_cutoff)
        with pytest.warns(ExtrapolationWarning):
            evaluate(w, w.eval_cutoff * 1.5)


    @pytest.mark.parametrize("dim, ell", [(3, 0), (2, 0), (3, 2)])
    def test_array_equals_scalar_path(self, dim, ell):
        # the vectorized path runs np.exp/np.log where the scalar one runs
        # math.exp/math.log: equal to a few roundings, and R(0) as before
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        q = QuantumNumbers(dim, ell, 0)
        e = math.sqrt(2.0) * (dim + 2 * ell) / 2.0 - 20.0
        sol = generate_coefficients(pot, constant_mass(1.0), q, e, 64)
        w = RadialWavefunction.from_solution(sol)
        radii = np.linspace(0.0, min(w.eval_cutoff, 6.0), 97)
        values = evaluate(w, radii)
        assert values.shape == radii.shape and values[0] == evaluate(w, 0.0)
        for r, v in zip(radii[1:], values[1:]):
            assert v == pytest.approx(evaluate(w, float(r)), rel=1e-14, abs=1e-300)
        assert np.array_equal(evaluate(w, radii.reshape(1, -1))[0], values)


class TestNormalize:
    def test_coulomb_ground_state_scale(self):
        # integral of a0^2 r^2 e^{-2 A m0 r} over (0, inf) = a0^2/(4 (A m0)^3)
        for a_c, m0 in [(1.0, 1.0), (1.3, 0.7)]:
            sol, _ = coulomb_state(a_c, m0)
            w = normalize(RadialWavefunction.from_solution(sol), 25.0 / (a_c * m0))
            assert w.solution.a0 == pytest.approx(
                2.0 * (a_c * m0) ** 1.5, rel=1e-10
            )

    def test_idempotence(self):
        sol, _ = coulomb_state(n=1)
        w1 = normalize(RadialWavefunction.from_solution(sol), 40.0)
        w2 = normalize(w1, 40.0)
        assert w2.solution.a0 == pytest.approx(w1.solution.a0, rel=1e-12)

    def test_projective_invariance(self):
        sol, _ = coulomb_state(n=2)
        w1 = normalize(RadialWavefunction.from_solution(sol), 60.0)
        w2 = normalize(RadialWavefunction.from_solution(sol.scaled(2.0)), 60.0)
        assert w2.solution.a0 == pytest.approx(w1.solution.a0, rel=1e-12)

    def test_reference_scale_ratio_is_one_for_ground_state(self):
        a_c, m0 = 1.1, 0.9
        sol, _ = coulomb_state(a_c, m0)
        w = normalize(RadialWavefunction.from_solution(sol), 30.0 / (a_c * m0))
        ratio = w.solution.a0 / coulomb_a0_reference(a_c, m0, 0, 0)
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_integral_rejected(self):
        sol, _ = coulomb_state()
        huge = RadialWavefunction.from_solution(sol.scaled(1e200))
        with pytest.raises(DegenerateWavefunctionError):
            normalize(huge, 40.0)


class TestNormalizeRule:
    # the fixed Gauss-Legendre rule against a tight adaptive quadrature, on
    # the (wavefunction, r_max) pairs the eigensolver normalizes: the first
    # excited state of every channel k = 2..6.  (Higher states can end at
    # radii where the series has lost digits to cancellation; there neither
    # rule nor quad is better than a few 1e-13.)
    FAMILIES = {
        "coulomb": (lambda: (make_coulomb(1.0), constant_mass(1.0)),
                    lambda k: (-2.4 / (k - 1) ** 2, -2.0 / (k + 5) ** 2)),
        "oscillator": (lambda: (PotentialSpec(0.0, 1.0, -20.0, 0, 2),
                                constant_mass(1.0)),
                       lambda k: (-19.5, -1.0)),
        "expmass-cornell": (lambda: (make_cornell(1.0, 0.2, -3.0),
                                     expand_exponential(1.0, 0.2)),
                            lambda k: (-4.4, -0.8)),
    }

    @pytest.mark.parametrize("order", [64, 128])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_agrees_with_tight_quad(self, family, order, monkeypatch):
        from scipy.integrate import quad

        import pdmradial.eigensolver as es_mod
        from pdmradial.eigensolver import SolverConfig, find_eigenvalue

        seen = []

        def recording(w, r_max):
            seen.append((w, r_max))
            return normalize(w, r_max)

        monkeypatch.setattr(es_mod, "normalize", recording)
        make, window = self.FAMILIES[family]
        pot, mass = make()
        for k in range(2, 7):
            q = QuantumNumbers(2 + k % 2, (k - 2) // 2, 1)
            assert q.k == k
            find_eigenvalue(
                pot, mass, q,
                SolverConfig(e_bracket=window(k), truncation_order=order),
            )
            w, r_max = seen[-1]
            ours = (w.solution.a0 / normalize(w, r_max).solution.a0) ** 2

            def r2(x):
                return evaluate(w, x) ** 2

            body, _ = quad(r2, 0.0, r_max, epsabs=0.0, epsrel=1e-13, limit=2000)
            ref = body + r2(r_max) / (2.0 * w.solution.b)
            assert abs(ours / ref - 1.0) < 1e-13, (k, ours, ref)
        assert len(seen) == 5


class TestOdeResidual:
    def test_exact_polynomial_solution(self):
        pot = make_coulomb(1.0)
        mass = constant_mass(1.0)
        for n, ell in [(0, 0), (2, 0), (1, 1)]:
            sol, e = coulomb_state(1.0, 1.0, n, ell)
            w = RadialWavefunction.from_solution(sol)
            peak = max(abs(evaluate(w, r)) for r in np.linspace(0.1, 5, 25))
            for r in (0.1, 0.7, 2.0, 5.0):
                assert ode_residual(w, pot, mass, e, r) < 1e-10 * peak

    def test_small_near_origin_off_eigenvalue(self):
        # the series solves the equation formally about the origin for any E
        pot = make_coulomb(1.0)
        mass = constant_mass(1.0)
        sol = generate_coefficients(pot, mass, QuantumNumbers(3, 0, 0), -0.41, 48)
        w = RadialWavefunction.from_solution(sol)
        assert ode_residual(w, pot, mass, -0.41, 0.05) < 1e-9

    def test_constant_mass_term_drops(self):
        # with m' = 0 the first-derivative term vanishes, so the residual
        # depends on (N, l) only through k: same-k channels agree exactly
        pot = make_cornell(1.0, 0.3, -0.5)
        mass = constant_mass(1.0)
        e = -0.9
        sol_a = generate_coefficients(pot, mass, QuantumNumbers(3, 1, 0), e, 24)
        sol_b = generate_coefficients(pot, mass, QuantumNumbers(5, 0, 0), e, 24)
        wa = RadialWavefunction.from_solution(sol_a)
        wb = RadialWavefunction.from_solution(sol_b)
        for r in (0.2, 0.8, 1.5):
            assert ode_residual(wa, pot, mass, e, r) == ode_residual(wb, pot, mass, e, r)

    def test_singular_point_rejected(self):
        sol, e = coulomb_state()
        w = RadialWavefunction.from_solution(sol)
        with pytest.raises(SingularPointError):
            ode_residual(w, make_coulomb(1.0), constant_mass(1.0), e, 0.0)

    def test_derivative_matches_finite_differences(self):
        from pdmradial.wavefunction import _eval_R_derivs

        sol, _ = coulomb_state(n=2)
        w = RadialWavefunction.from_solution(sol)
        h = 1e-5
        for r in (0.5, 1.5, 4.0):
            _, rp, _ = _eval_R_derivs(w, r)
            fd = (evaluate(w, r + h) - evaluate(w, r - h)) / (2 * h)
            assert rp == pytest.approx(fd, rel=1e-6)

    def test_residual_decreases_with_order(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        mass = constant_mass(1.0)
        e = math.sqrt(2.0) * 1.5 - 20.0
        prev = None
        for order in (8, 16, 32, 64):
            sol = generate_coefficients(pot, mass, QuantumNumbers(3, 0, 0), e, order)
            w = RadialWavefunction.from_solution(sol)
            res = ode_residual(w, pot, mass, e, 0.15)
            if prev is not None:
                assert res <= prev or res < 1e-12
            prev = res


class TestCountNodes:
    def test_ground_state_nodeless(self):
        sol, _ = coulomb_state()
        assert count_nodes(RadialWavefunction.from_solution(sol), 20.0) == 0

    def test_two_node_state_against_polynomial_roots(self):
        sol, _ = coulomb_state(n=2)
        roots = np.roots(sol.coeffs[:3][::-1])
        real = roots[np.abs(roots.imag) < 1e-12].real
        assert (real > 0).sum() == 2  # independent oracle for the node count
        assert count_nodes(RadialWavefunction.from_solution(sol), 40.0) == 2

    def test_sign_flip_invariance(self):
        sol, _ = coulomb_state(n=2)
        w = RadialWavefunction.from_solution(sol)
        w_neg = RadialWavefunction.from_solution(sol.scaled(-1.0))
        assert count_nodes(w, 40.0) == count_nodes(w_neg, 40.0)

    def test_bare_solution_needs_no_trust_radius(self, monkeypatch):
        import pdmradial.wavefunction as wf_mod

        sol, _ = coulomb_state(n=2)
        expected = count_nodes(RadialWavefunction.from_solution(sol), 40.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("trust_radius called")

        monkeypatch.setattr(wf_mod, "trust_radius", forbidden)
        assert count_nodes(sol, 40.0) == expected == 2

    def test_requires_enough_samples(self):
        sol, _ = coulomb_state()
        with pytest.raises(DomainError):
            count_nodes(RadialWavefunction.from_solution(sol), 10.0, samples=50)


class TestSignChanges:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([0.0, 0.0, -1.0, 2.0], 1),  # leading zeros
            ([-1.0, 0.0, 0.0, 1.0, 0.0, -2.0], 2),  # interior zeros
            ([-1.0, 0.0, -1.0], 0),  # a touch at zero is no crossing
            ([0.0, 0.0, 0.0], 0),  # all zeros
            ([], 0),
            ([3.0, -1e-300], 1),  # one sign flip
            ([-1.0, -2.0, 5.0, 4.0, -0.5], 2),
        ],
    )
    def test_cases(self, values, expected):
        assert sign_changes(np.array(values)) == expected


class TestClosedFormEquivalence:
    def test_series_matches_assembled_polynomial(self):
        # constant mass, N = 3: the evaluated series equals the closed-form
        # polynomial times the shared prefactor, pointwise
        a_c, m0 = 1.2, 0.9
        for n, ell in [(0, 0), (1, 0), (2, 1), (3, 1), (0, 4)]:
            if n + ell > 4:
                continue
            q = QuantumNumbers(3, ell, n)
            sol, e = coulomb_state(a_c, m0, n, ell)
            w = RadialWavefunction.from_solution(sol)
            b = sol.b
            radii = np.linspace(0.05, 10.0 / (a_c * m0), 40)
            ref_coeffs = [
                coulomb_closed_form_coefficients(a_c, m0, q, i) for i in range(n + 1)
            ]
            vals = np.array([evaluate(w, float(r)) for r in radii])
            ref = np.array(
                [
                    r ** ((q.k - 1) / 2.0)
                    * math.exp(-b * r)
                    * sum(c * r**i for i, c in enumerate(ref_coeffs))
                    for r in radii
                ]
            )
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(vals - ref)) < 1e-10 * scale


class TestTrustRadius:
    def test_terminated_series_trusted_everywhere(self):
        sol, _ = coulomb_state(n=1)
        assert math.isinf(trust_radius(sol))

    def test_grows_with_order(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e = math.sqrt(2.0) * 1.5 - 20.0
        r8 = trust_radius(
            generate_coefficients(
                pot, constant_mass(1.0),
                QuantumNumbers(3, 0, 0), e, 8,
            )
        )
        r32 = trust_radius(
            generate_coefficients(
                pot, constant_mass(1.0),
                QuantumNumbers(3, 0, 0), e, 32,
            )
        )
        assert r32 > r8 > 0
