import math
import warnings

import numpy as np
import pytest

from coulomb_reference import coulomb_a0_reference
from pdmradial.errors import DomainError, ExtrapolationWarning, SingularPointError
from pdmradial.model import (
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    SeriesSolution,
    make_cornell,
    make_coulomb,
)
from pdmradial.recurrence import (
    coulomb_closed_form_coefficients,
    generate_coefficients,
)
from pdmradial.wavefunction import (
    count_nodes,
    evaluate,
    node_counts,
    norm2,
    norms2,
    ode_residual,
    sign_changes,
    trusted,
)


def coulomb_state(a_c=1.0, m0=1.0, n=0, ell=0, order=32):
    """Exact terminating Coulomb series state at its eigenvalue (N = 3)."""
    q = QuantumNumbers(3, ell, n)
    e = -(a_c**2) * m0 / (2.0 * (n + ell + 1) ** 2)
    sol = generate_coefficients(make_coulomb(a_c), MassProfile([m0]), q, e, order)
    return sol, e


def _centre_series():
    """Series of the three benchmark-centre problems at orders 24, 64 and
    128, at energies across their windows."""
    problems = [
        (make_coulomb(1.0), lambda order: MassProfile([1.0]), QuantumNumbers(3, 0, 0),
         (-0.45, -0.2, -0.05)),
        (make_coulomb(1.0), lambda order: MassProfile([1.0]), QuantumNumbers(2, 1, 0),
         (-0.3, -0.08)),
        (make_cornell(1.0, 0.2, -3.0), lambda order: MassProfile([1.0], 0.2),
         QuantumNumbers(3, 1, 0), (-3.0, -2.0, -0.9)),
        (PotentialSpec(0.0, 1.0, -20.0, 0, 2), lambda order: MassProfile([1.0]),
         QuantumNumbers(3, 2, 0), (-19.0, -14.0, -9.0)),
    ]
    for pot, mass, q, energies in problems:
        for order in (24, 64, 128):
            for e in energies:
                yield generate_coefficients(pot, mass(order), q, e, order)


def horner_count(sol, r_max, samples=2048):
    """The node count as a Horner loop over the grid, in the series' x: the
    reference."""
    grid = np.ldexp(np.linspace(0.0, r_max, samples + 1)[1:], -sol.x_exp)
    u = np.zeros(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in sol.coeffs[::-1]:
            u = u * grid + c
    return sign_changes(u)


def recorded_node_counts(monkeypatch, configs):
    """(solution, r_max, samples) of every node count the solver takes on
    ``configs``, in the order of its batches, with the solved rows."""
    import pdmradial.eigensolver as eig_mod
    from pdmradial import cli

    calls = []

    def recording(states, samples=2048):
        calls.extend((sol, r_max, samples) for sol, r_max in states)
        return node_counts(states, samples)

    monkeypatch.setattr(eig_mod, "node_counts", recording)
    rows = [row for data in configs for row in cli.solve_states(cli.parse_config(data))]
    return calls, rows


def horner_R(sol, r):
    """R at radii r >= 0, one series alone, by a Horner loop in the series'
    x: the reference."""
    r = np.asarray(r, float)
    pos = r[r > 0.0]
    x = np.ldexp(pos, -sol.x_exp)
    u = 0.0
    for c in sol.coeffs[::-1].tolist():
        u = u * x + c
    out = np.full(r.shape, sol.a0 if sol.quantum.k == 1 else 0.0)
    out[r > 0.0] = np.exp((sol.quantum.k - 1) / 2.0 * np.log(pos) - sol.b * pos) * u
    return out


class TestEvaluate:
    def test_zero_at_origin_for_k_above_one(self):
        sol, _ = coulomb_state()
        assert evaluate(sol, 0.0) == 0.0

    def test_a0_at_origin_for_k_one(self):
        # the prefactor is r^0, so R(0) = a0, scalar or array
        sol = SeriesSolution(-0.5, 1.0, np.array([2.0]), QuantumNumbers(1, 0, 0))
        assert evaluate(sol, 0.0) == 2.0
        assert evaluate(sol, [0.0, 1.0])[0] == 2.0

    def test_coulomb_ground_state_value(self):
        # R = a0 r e^{-A m0 r}, so R(1/(A m0)) = a0 e^{-1} / (A m0)
        a_c, m0 = 1.7, 0.8
        sol, _ = coulomb_state(a_c, m0)
        r = 1.0 / (a_c * m0)
        assert evaluate(sol, r) == pytest.approx(math.exp(-1.0) / (a_c * m0), rel=1e-13)

    def test_linearity_in_a0(self):
        sol, _ = coulomb_state(n=1)
        for r in (0.3, 1.0, 4.0):
            assert evaluate(sol.scaled(2.0), r) == pytest.approx(
                2.0 * evaluate(sol, r), rel=1e-14
            )

    def test_rejects_negative_radius(self):
        sol, _ = coulomb_state()
        with pytest.raises(DomainError):
            evaluate(sol, -1.0)

    @pytest.mark.parametrize("r", [math.nan, [0.0, 1.0, math.nan, 2.0]])
    def test_rejects_nan_radius(self, r):
        # NaN < 0 is false, so a sign test alone lets NaN through
        sol, _ = coulomb_state()
        with pytest.raises(DomainError):
            evaluate(sol, r)

    @pytest.mark.parametrize("r", [math.inf, [0.0, 1.0, math.inf]],
                             ids=["scalar", "array"])
    def test_rejects_infinite_radius(self, r):
        # inf >= 0 holds, so a sign test alone lets inf through
        sol, _ = coulomb_state()
        with pytest.raises(DomainError, match="finite"):
            evaluate(sol, r)

    def test_extrapolation_warning_beyond_cutoff(self):
        # the warning names the largest radius, at which alone the series is
        # tested; radii the series is trusted at evaluate silently
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e = math.sqrt(2.0) * 1.5 - 20.0
        sol = generate_coefficients(
            pot, MassProfile([1.0]),
            QuantumNumbers(3, 0, 0), e, 16,
        )
        assert trusted(sol, 0.5) and not trusted(sol, 3.0)
        with pytest.warns(ExtrapolationWarning, match=r"r_top = 3\b"):
            evaluate(sol, [0.5, 3.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            evaluate(sol, [0.0, 0.5])

    @pytest.mark.parametrize("dim, ell", [(3, 0), (2, 0), (3, 2)])
    def test_array_equals_scalar_path(self, dim, ell):
        # a scalar takes the array path: the same bits, returned as a float
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        q = QuantumNumbers(dim, ell, 0)
        e = math.sqrt(2.0) * (dim + 2 * ell) / 2.0 - 20.0
        sol = generate_coefficients(pot, MassProfile([1.0]), q, e, 64)
        radii = np.linspace(0.0, 3.0, 97)
        assert trusted(sol, 3.0)
        values = evaluate(sol, radii)
        assert values.shape == radii.shape and values[0] == evaluate(sol, 0.0)
        for r, v in zip(radii, values):
            got = evaluate(sol, float(r))
            assert type(got) is float and got == v
        assert np.array_equal(evaluate(sol, radii.reshape(1, -1))[0], values)


    def _mixed(self):
        """Series of 9, 25, 65 and 129 terms with radii of different counts,
        r = 0 among them, and one state with k = 1."""
        osc = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e = math.sqrt(2.0) * 1.5 - 20.0
        return [
            (coulomb_state(n=1, order=8)[0], np.linspace(0.0, 6.0, 13)),
            (generate_coefficients(osc, MassProfile([1.0]), QuantumNumbers(3, 0, 0),
                                   e, 128), np.linspace(0.0, 2.5, 41)),
            (generate_coefficients(make_cornell(1.0, 0.2, -3.0),
                                   MassProfile([1.0], 0.2),
                                   QuantumNumbers(3, 1, 0), -2.0, 64), [0.0, 0.3, 1.1]),
            (SeriesSolution(-0.5, 1.0, np.array([2.0, -0.5] + [0.1] * 23),
                            QuantumNumbers(1, 0, 0)), np.array([0.0, 0.25, 0.5])),
        ]

    def test_pairs_keep_the_bits_of_each_series(self):
        # zeros padded at the top of the shorter series and radii padded at
        # the end of the shorter rows change no value's bits
        pairs = self._mixed()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            got = evaluate(pairs)
        assert len(got) == len(pairs)
        for (sol, r), vals in zip(pairs, got):
            want = horner_R(sol, r)
            assert vals.shape == want.shape and vals.tobytes() == want.tobytes()
            assert vals.tobytes() == evaluate(sol, r).tobytes()
        assert got[-1][0] == 2.0 and got[0][0] == 0.0
        assert evaluate([]) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_pairs_reject_a_non_finite_radius(self, bad):
        pairs = self._mixed()
        pairs[2] = (pairs[2][0], [0.0, bad])
        with pytest.raises(DomainError, match="finite"):
            evaluate(pairs)

    def test_pairs_warn_for_the_untrusted_state_alone(self):
        # each state is tested at its own r_top, and the warning names it
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e = math.sqrt(2.0) * 1.5 - 20.0
        sol = generate_coefficients(pot, MassProfile([1.0]), QuantumNumbers(3, 0, 0), e, 16)
        assert trusted(sol, 0.5) and not trusted(sol, 3.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate([(sol, [0.0, 0.5]), (sol, [0.5, 3.0, 1.0]), (sol, [0.25])])
        assert [w.category for w in caught] == [ExtrapolationWarning]
        assert "r_top = 3)" in str(caught[0].message)


def normalized(sol, r):
    """The series scaled so that the integral of R^2 over (0, r) is one."""
    return sol.scaled(1.0 / math.sqrt(norm2(sol, r)))


class TestNormalize:
    # norm2 over radii where R^2 has fallen below 1e-20 of its peak: the
    # whole norm, to rounding
    def test_coulomb_ground_state_scale(self):
        # integral of a0^2 r^2 e^{-2 A m0 r} over (0, inf) = a0^2/(4 (A m0)^3)
        for a_c, m0 in [(1.0, 1.0), (1.3, 0.7)]:
            sol, _ = coulomb_state(a_c, m0)
            normed = normalized(sol, 25.0 / (a_c * m0))
            assert normed.a0 == pytest.approx(
                2.0 * (a_c * m0) ** 1.5, rel=1e-10
            )

    def test_idempotence(self):
        sol, _ = coulomb_state(n=1)
        once = normalized(sol, 40.0)
        assert norm2(once, 40.0) == pytest.approx(1.0, rel=1e-12)

    def test_projective_invariance(self):
        sol, _ = coulomb_state(n=2)
        assert norm2(sol.scaled(2.0), 60.0) == pytest.approx(4.0 * norm2(sol, 60.0),
                                                            rel=1e-12)

    def test_reference_scale_ratio_is_one_for_ground_state(self):
        a_c, m0 = 1.1, 0.9
        sol, _ = coulomb_state(a_c, m0)
        normed = normalized(sol, 30.0 / (a_c * m0))
        ratio = normed.a0 / coulomb_a0_reference(a_c, m0, 0, 0)
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_integral_rejected(self):
        # an overflowing series gives a non-finite integral, without a
        # warning, for find_eigenvalue to refuse; a radius that is not
        # positive is refused here
        sol, _ = coulomb_state()
        assert norm2(sol.scaled(1e200), 40.0) == math.inf
        for r in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                norm2(sol, r)

    def test_infinite_radius_rejected(self):
        # inf > 0 holds, and every Gauss-Legendre node r t would be inf
        sol, _ = coulomb_state()
        with pytest.raises(DomainError, match="finite"):
            norm2(sol, math.inf)


class TestNormalizeRule:
    # the fixed Gauss-Legendre rule against a tight adaptive quadrature, on
    # the (series, r_match) pairs whose norm2 the eigensolver takes: the
    # first excited state of every channel k = 2..6
    FAMILIES = {
        "coulomb": (lambda: (make_coulomb(1.0), MassProfile([1.0])),
                    lambda k: (-2.4 / (k - 1) ** 2, -2.0 / (k + 5) ** 2)),
        "oscillator": (lambda: (PotentialSpec(0.0, 1.0, -20.0, 0, 2),
                                MassProfile([1.0])),
                       lambda k: (-19.5, -1.0)),
        "expmass-cornell": (lambda: (make_cornell(1.0, 0.2, -3.0),
                                     MassProfile([1.0], 0.2)),
                            lambda k: (-4.4, -0.8)),
    }

    @pytest.mark.parametrize("order", [64, 128])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_agrees_with_tight_quad(self, family, order, monkeypatch):
        from scipy.integrate import quad

        import pdmradial.eigensolver as es_mod
        from pdmradial.eigensolver import SolverConfig, find_eigenvalue

        seen = []

        def recording(states):
            seen.extend(states)
            return norms2(states)

        monkeypatch.setattr(es_mod, "norms2", recording)
        make, window = self.FAMILIES[family]
        pot, mass = make()
        for k in range(2, 7):
            q = QuantumNumbers(2 + k % 2, (k - 2) // 2, 1)
            assert q.k == k
            res = find_eigenvalue(
                pot, mass, q,
                SolverConfig(e_bracket=window(k), truncation_order=order),
            )
            sol, r_match, nodes = seen[-1]
            # the series stopped at r_match, its rule sized by the order
            assert sol is res.solution and sol.coeffs.size <= order
            assert nodes == max(64, order + 1)

            def r2(x):
                return evaluate(sol, x) ** 2

            ref, _ = quad(r2, 0.0, r_match, epsabs=0.0, epsrel=1e-13, limit=2000)
            ours = norm2(sol, r_match, nodes)
            assert abs(ours / ref - 1.0) < 1e-13, (k, ours, ref)
        assert len(seen) == 5


class TestOdeResidual:
    def test_exact_polynomial_solution(self):
        pot = make_coulomb(1.0)
        mass = MassProfile([1.0])
        for n, ell in [(0, 0), (2, 0), (1, 1)]:
            sol, e = coulomb_state(1.0, 1.0, n, ell)
            peak = max(abs(evaluate(sol, r)) for r in np.linspace(0.1, 5, 25))
            for r in (0.1, 0.7, 2.0, 5.0):
                assert ode_residual(sol, pot, mass, e, r) < 1e-10 * peak

    def test_small_near_origin_off_eigenvalue(self):
        # the series solves the equation formally about the origin for any E
        pot = make_coulomb(1.0)
        mass = MassProfile([1.0])
        sol = generate_coefficients(pot, mass, QuantumNumbers(3, 0, 0), -0.41, 48)
        assert ode_residual(sol, pot, mass, -0.41, 0.05) < 1e-9

    def test_constant_mass_term_drops(self):
        # with m' = 0 the first-derivative term vanishes, so the residual
        # depends on (N, l) only through k: same-k channels agree exactly
        pot = make_cornell(1.0, 0.3, -0.5)
        mass = MassProfile([1.0])
        e = -0.9
        sol_a = generate_coefficients(pot, mass, QuantumNumbers(3, 1, 0), e, 24)
        sol_b = generate_coefficients(pot, mass, QuantumNumbers(5, 0, 0), e, 24)
        for r in (0.2, 0.8, 1.5):
            assert (ode_residual(sol_a, pot, mass, e, r)
                    == ode_residual(sol_b, pot, mass, e, r))

    def test_singular_point_rejected(self):
        sol, e = coulomb_state()
        with pytest.raises(SingularPointError):
            ode_residual(sol, make_coulomb(1.0), MassProfile([1.0]), e, 0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, r):
        # NaN <= 0 is false, so a sign test alone lets NaN through, and inf
        # reaches p log r - b r = inf - inf
        sol, e = coulomb_state(n=2)
        with pytest.raises(DomainError, match="not finite"):
            ode_residual(sol, make_coulomb(1.0), MassProfile([1.0]), e, r)

    def test_derivative_matches_finite_differences(self):
        from pdmradial.wavefunction import _eval_R_derivs

        sol, _ = coulomb_state(n=2)
        h = 1e-5
        for r in (0.5, 1.5, 4.0):
            _, rp, _ = _eval_R_derivs(sol, r)
            fd = (evaluate(sol, r + h) - evaluate(sol, r - h)) / (2 * h)
            assert rp == pytest.approx(fd, rel=1e-6)

    def test_residual_decreases_with_order(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        mass = MassProfile([1.0])
        e = math.sqrt(2.0) * 1.5 - 20.0
        prev = None
        for order in (8, 16, 32, 64):
            sol = generate_coefficients(pot, mass, QuantumNumbers(3, 0, 0), e, order)
            res = ode_residual(sol, pot, mass, e, 0.15)
            if prev is not None:
                assert res <= prev or res < 1e-12
            prev = res


class TestCountNodes:
    def test_ground_state_nodeless(self):
        sol, _ = coulomb_state()
        assert count_nodes(sol, 20.0) == 0

    def test_two_node_state_against_polynomial_roots(self):
        sol, _ = coulomb_state(n=2)
        roots = np.roots(sol.coeffs[:3][::-1])
        real = roots[np.abs(roots.imag) < 1e-12].real
        assert (real > 0).sum() == 2  # independent oracle for the node count
        assert count_nodes(sol, 40.0) == 2

    def test_sign_flip_invariance(self):
        sol, _ = coulomb_state(n=2)
        assert count_nodes(sol, 40.0) == count_nodes(sol.scaled(-1.0), 40.0)

    def test_bare_solution_needs_no_trust_radius(self, monkeypatch):
        import pdmradial.wavefunction as wf_mod

        sol, _ = coulomb_state(n=2)

        def forbidden(*args, **kwargs):
            raise AssertionError("trusted called")

        monkeypatch.setattr(wf_mod, "trusted", forbidden)
        assert count_nodes(sol, 40.0) == 2

    def test_requires_enough_samples(self):
        sol, _ = coulomb_state()
        with pytest.raises(DomainError):
            count_nodes(sol, 10.0, samples=50)

    def test_rejects_nan_radius(self):
        # NaN <= 0 is false, so a sign test alone lets NaN through
        sol, _ = coulomb_state(n=2)
        with pytest.raises(DomainError, match="finite"):
            count_nodes(sol, math.nan)

    def test_rejects_infinite_radius(self):
        # np.linspace(0, inf) multiplies 0 by inf
        sol, _ = coulomb_state(n=2)
        with pytest.raises(DomainError, match="finite"):
            count_nodes(sol, math.inf)


    def test_equals_the_horner_count(self):
        # the centre series at orders 24 to 128 across their windows, at
        # radii inside and past their nodes, a terminated polynomial and the
        # same polynomial flipped in sign
        sol, _ = coulomb_state(n=2)
        cases = [(sol, 40.0), (sol.scaled(-1.0), 40.0), (sol, 3.0)]
        cases += [(s, r) for s in _centre_series() for r in (1.0, 3.0, 6.0)]
        for s, r in cases:
            assert count_nodes(s, r) == horner_count(s, r), (s.energy, r)
        assert count_nodes(sol, 40.0) == 2

    def test_deep_coulomb_states(self, monkeypatch):
        # z = 1414 at order 500: in x = r/2^x_exp the 2s series keeps its
        # true scale, a_0 = 1, and its terms a_i x_max^i, taken directly,
        # are of the size of its value
        calls, rows = recorded_node_counts(monkeypatch, [
            {"potential": {"kind": "coulomb", "z": 1414.0},
             "mass": {"kind": "constant", "m0": 1.0},
             "quantum": {"dim": 3, "ell": [0], "n": [n]},
             "solver": {"e_lo": -1.1e6, "e_hi": e_hi, "truncation_order": 500,
                        "oracle": False},
             "output": {"directory": "unused"}}
            for n, e_hi in ((0, -0.9e6), (1, -1e4))])
        assert [row.ok for row in rows] == [True, True]
        # each counted on its series stopped at r_match, far below order
        # 500: the 1s series after three zero terms, the 2s one once the
        # rounding residue past its a_1 is negligible
        assert [sol.coeffs.size for sol, _, _ in calls] == [7, 11]
        assert [count_nodes(sol, r, samples=s) for sol, r, s in calls] == [0, 1]
        assert [horner_count(sol, r, samples=s) for sol, r, s in calls] == [0, 1]
        sol, r, _ = calls[1]
        x = math.ldexp(r, -sol.x_exp)
        terms = np.abs(sol.coeffs) * x ** np.arange(sol.coeffs.size)
        assert sol.a0 == 1.0 and 1.0 <= terms.max() < 2.0

    def test_terms_out_of_float_range_are_a_domain_error(self):
        # a radius far past the one the series was generated for: its terms
        # a_i x_max^i overflow, and the count is refused, not guessed
        sol = generate_coefficients(make_coulomb(1.0), MassProfile([1.0]),
                                    QuantumNumbers(3, 0, 0), -0.3, 128)
        assert count_nodes(sol, 20.0) == horner_count(sol, 20.0)
        with pytest.raises(DomainError, match="leave the float range"):
            count_nodes(sol, 1e6)

    def test_counts_do_not_depend_on_blas_threads(self):
        # only signs of the product are read, and at 1 and 2 BLAS threads
        # they give the same counts, the Horner loop's
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pdmradial

        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_wavefunction import _centre_series, horner_count\n"
            "from pdmradial.wavefunction import count_nodes\n"
            "cases = [(s, r) for s in _centre_series() for r in (1.0, 3.0, 6.0)]\n"
            "print([count_nodes(s, r) for s, r in cases])\n"
            "print([horner_count(s, r) for s, r in cases])\n"
        )
        src = str(Path(pdmradial.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            counts, reference = done.stdout.splitlines()
            assert counts == reference
            outputs.append(counts)
        assert outputs[0] == outputs[1]


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
            b = sol.b
            radii = np.linspace(0.05, 10.0 / (a_c * m0), 40)
            ref_coeffs = [
                coulomb_closed_form_coefficients(a_c, m0, q, i) for i in range(n + 1)
            ]
            vals = np.array([evaluate(sol, float(r)) for r in radii])
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


class TestSeriesInX:
    @pytest.mark.parametrize("r", [0.3, 3.0], ids=["x_exp-2", "x_exp2"])
    def test_every_reader_gives_the_bits_in_r(self, r):
        # the exp-mass demo's series held in x = r/2^x_exp and the same
        # series in r: powers of two move no bit, so each reader, its
        # derivatives scaled back, gives the same values
        from pdmradial.eigensolver import _series_direction
        from pdmradial.recurrence import _series, _stopped_series

        pot, mass, q, e = make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2), \
            QuantumNumbers(3, 1, 0), -2.0
        stopped = _stopped_series(pot, mass, q, e, 64, r)
        in_x = _series(pot, mass, q, e, 64, stopped.x_exp)  # the whole series
        in_r = generate_coefficients(pot, mass, q, e, 64)
        assert in_x.x_exp == round(math.log2(r)) != 0 and in_r.x_exp == 0
        radii = np.linspace(0.0, r, 50)
        assert np.array_equal(evaluate(in_x, radii), evaluate(in_r, radii))
        for reader in (trusted, norm2, count_nodes):
            assert reader(in_x, r) == reader(in_r, r), reader.__name__
        assert _series_direction(in_x, q, r) == _series_direction(in_r, q, r)
        assert ode_residual(in_x, pot, mass, e, r / 2) == ode_residual(in_r, pot, mass, e, r / 2)


class TestTrustRadius:
    """Where the truncated series is trusted, through ``trusted`` at one
    radius: the last kept term against TRUST_RATIO of the envelope."""

    @staticmethod
    def _crossing(sol):
        """The radius where ``trusted`` turns false, to a relative 1e-12,
        by bisection on a geometric bracket."""
        lo, hi = 1e-12, 1e-12
        while trusted(sol, hi):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if trusted(sol, mid) else (lo, mid)
        return hi

    def test_flips_once_along_r(self):
        # the ratio |a_M| r^M / envelope is monotone in r: trusted inside
        # one radius, untrusted beyond it, for every centre series, also
        # where its float test flips within a few ulps
        series = list(_centre_series())
        assert len(series) == 33
        for sol in series:
            t = self._crossing(sol)
            radii = [t * f for f in (1e-6, 1e-2, 0.5, 1.0 - 1e-9)]
            assert all(trusted(sol, r) for r in radii), t
            radii = [t * f for f in (1.0 + 1e-9, 2.0, 1e3)] + [1e300]
            assert not any(trusted(sol, r) for r in radii), t
            grid = [trusted(sol, r) for r in np.geomspace(t * 0.999, t * 1.001, 2001)]
            assert sorted(grid, reverse=True) == grid

    def test_terminated_series_trusted_everywhere(self):
        # a vanishing last coefficient, also where the envelope overflows
        sol, _ = coulomb_state(n=1)
        for r in (0.0, 1e-3, 1.0, 40.0, 1e300):
            assert trusted(sol, r)
        assert trusted(sol.scaled(1e200), 1e300)

    def test_overflowing_series(self):
        # scaled by 1e200 the verdict stays where nothing overflows, and an
        # envelope or last term that overflows far out is untrusted
        for sol in list(_centre_series())[::4]:
            t = self._crossing(sol)
            for r in (t * 1e-2, t * 0.5, t * 2.0, t * 1e3):
                assert trusted(sol.scaled(1e200), r) == trusted(sol, r), (r, t)
            assert not trusted(sol.scaled(1e200), 1e300)

    def test_power_overflow_in_the_bisection_counts_as_untrusted(self):
        # a subnormal last coefficient stays below the ratio until r^64
        # overflows, which Python's float power raises as OverflowError
        coeffs = np.zeros(65)
        coeffs[0], coeffs[-1] = 1.0, 5e-324
        sol = SeriesSolution(-0.5, 1.0, coeffs, QuantumNumbers(3, 0, 0))
        assert trusted(sol, math.nextafter(2.0**16, 0.0))
        assert not trusted(sol, 2.0**16)
        assert not trusted(sol, 1e6)
        assert self._crossing(sol) == pytest.approx(2.0**16, rel=1e-12)

    def test_grows_with_order(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        e = math.sqrt(2.0) * 1.5 - 20.0
        r8, r32 = (
            self._crossing(generate_coefficients(
                pot, MassProfile([1.0]), QuantumNumbers(3, 0, 0), e, order))
            for order in (8, 32)
        )
        assert r32 > r8 > 0


class TestClampToTrust:
    """Nothing cuts a terminated series short: ``evaluate`` sums all of it
    at any radius and flags none."""

    def test_terminated_polynomial_is_never_clamped(self):
        # the n = 1 Coulomb series times its prefactor r is the 2s closed
        # form r (1 - r/2) e^(-r/2)
        sol, _ = coulomb_state(n=1)
        radii = [1e-3, 1.0, 40.0, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            got = [evaluate(sol, r) for r in radii]
            assert np.array_equal(evaluate(sol, radii), got)
        for r, val in zip(radii, got):
            assert val == pytest.approx(
                (1.0 - r / 2.0) * math.exp(math.log(r) - r / 2.0), rel=1e-12
            )
