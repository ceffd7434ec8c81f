import math

import numpy as np
import pytest

import pdmradial.oracle as oracle_mod
import pdmradial.tail as tail_mod
from pdmradial.eigensolver import SolverConfig, find_eigenvalue
from pdmradial.errors import BracketError, DomainError, ResolutionError
from pdmradial.model import MassProfile, PotentialSpec, QuantumNumbers, make_cornell, make_coulomb
from pdmradial.oracle import ChannelSpectrum, channel_spectrum
from pdmradial.tail import (
    integrate_radial,
    leg_cuts,
    leg_samples,
    leg_values,
    make_leg,
    outer_turning_radii,
    tail_radius,
)


def _leg(pot, mass, q, r_match, r_far, e_ref):
    """The leg over [r_match, r_far] cut at e_ref, or the DomainError that
    refuses it, raised."""
    (cuts,) = leg_cuts(pot, mass, [(q, r_match, r_far, e_ref)])
    if isinstance(cuts, Exception):
        raise cuts
    return make_leg(pot, mass, q, cuts)


def test_oracle_imports_no_series_machinery():
    # the oracle must stay an independent check: domain types, and from the
    # tail leg only the radius that places r_max; the tail itself imports
    # nothing of the series either
    import ast
    from pathlib import Path

    from_tail = set()
    for module in (oracle_mod, tail_mod):
        modules = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
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
        ), module.__name__
    assert from_tail == {"tail_radius"}
    # and the tail builds its own Chebyshev operators: a fault in one
    # differentiation matrix must not move both answers the same way
    tail_tree = ast.parse(Path(tail_mod.__file__).read_text())
    assert not any(
        "oracle" in (getattr(node, "module", None) or "")
        or any("oracle" in a.name for a in node.names)
        for node in ast.walk(tail_tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


COULOMB = make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0)
# (nodes, r_max factor) pairs too coarse to pass the self-check, yet fine
# enough at 16 nodes to place every bracket of the tests that use them
TOO_FEW_NODES = ((12, 1.0), (16, 1.25))


def _piece_values(piece, coeffs, x):
    """r and y on ``piece`` at reference points x in [-1, 1]."""
    r = piece.left + (x + 1.0) / piece.scale
    return r, np.polynomial.chebyshev.chebval(x, coeffs)


def _exponent(pot, mass, q, a, b, e):
    # the WKB exponent over [a, b] by a fine trapezoid rule
    from pdmradial.tail import _potential_arrays

    r = np.linspace(a, b, 20001)
    _, w0, m2 = _potential_arrays(pot, mass, q.dim_n, q.k, r)
    k = np.sqrt(np.maximum(w0 - m2 * e, 0.0))
    return float(np.sum(0.5 * (k[1:] + k[:-1]) * np.diff(r)))


OSCILLATOR = (PotentialSpec(0.0, 1.0, -20.0, 0, 2), MassProfile([1.0]),
              QuantumNumbers(3, 0, 0))
# the oscillator's ground state, R = r e^{-r^2/sqrt(2)}
OSCILLATOR_E0 = 3.0 / math.sqrt(2.0) - 20.0


class TestMakeLeg:
    def test_validation(self):
        with pytest.raises(DomainError, match="r_match must be positive"):
            _leg(*COULOMB, 0.0, 10.0, -0.5)
        with pytest.raises(DomainError, match="r_far must exceed r_match"):
            _leg(*COULOMB, 1.0, 0.5, -0.5)
        with pytest.raises(DomainError, match="r_far must exceed r_match"):
            _leg(*COULOMB, 1.0, 1.0, -0.5)

    def test_pieces_tile_the_leg(self):
        # the pieces run from r_match to r_far without gap or overlap, and
        # the WKB exponent at the reference energy is shared equally among
        # them, none above 25 (plus the cut's sampling error)
        leg = _leg(*OSCILLATOR, 0.5, 12.0, OSCILLATOR_E0)
        ends = [(p.left, p.right) for p in leg.pieces]
        assert ends[0][0] == 0.5 and ends[-1][1] == 12.0
        assert all(a[1] == b[0] for a, b in zip(ends[:-1], ends[1:]))
        total = _exponent(*OSCILLATOR, 0.5, 12.0, OSCILLATOR_E0)
        assert len(leg.pieces) == math.ceil(total / 25.0) > 1
        shares = [_exponent(*OSCILLATOR, a, b, OSCILLATOR_E0) for a, b in ends]
        assert max(shares) < 25.0 * (1 + 1e-3)
        assert np.allclose(shares, total / len(shares), rtol=1e-3)

    @pytest.mark.parametrize("mass, far", [
        (MassProfile([1.0]), (12.0, 40.0, 52.0, 64.0)),
        (MassProfile([1.0], 0.02), (12.0, 42.0, 62.0, 82.0)),
        (MassProfile([1.0, 0.3, 0.05]), (12.0, 21.0, 25.0, 28.0)),
    ], ids=["constant", "exponential", "polynomial"])
    def test_stacked_pieces_have_the_per_piece_bits(self, mass, far):
        # every piece of a leg built in one stacked pass has the bits that
        # the piece's own formula gives, on legs of 1 to 4 pieces
        from pdmradial.model import _gauss_legendre
        from pdmradial.tail import _NODES, _operators, _potential_arrays

        pot, q = make_cornell(1.0, 0.05, -1.0), QuantumNumbers(3, 1, 0)
        x, (val, d2, *_) = _operators(_NODES)
        t, w = _gauss_legendre(_NODES)
        counts = set()
        for r_far in far:
            leg = _leg(pot, mass, q, 1.5, r_far, -0.6)
            counts.add(len(leg.pieces))
            m_match = mass.mass_at(1.5)
            for piece in leg.pieces:
                left, right = piece.left, piece.right
                scale = 2.0 / (right - left)
                _, w0, m2 = _potential_arrays(pot, mass, q.dim_n, q.k,
                                              left + (x + 1.0) / scale)
                s2 = np.asarray(mass.mass_at(left + (right - left) * t), float) / m_match
                assert type(piece.scale) is float and piece.scale == scale
                assert np.array_equal(piece.rows0, scale * scale * d2 - w0[:, None] * val)
                assert np.array_equal(piece.rows_e, m2[:, None] * val)
                assert np.array_equal(piece.weights, (right - left) * w * s2)
            g, w0, m2 = _potential_arrays(pot, mass, q.dim_n, q.k, np.array([1.5, r_far]))
            assert (leg.g_match, leg.w0_far, leg.m2_far) == (g[0], w0[1], m2[1])
        assert counts == {1, 2, 3, 4}, counts

    def test_short_leg_is_one_piece(self):
        # e^-14 of decay fits one solve
        leg = _leg(*COULOMB, 2.0, 16.0, -0.5)
        assert len(leg.pieces) == 1
        assert (leg.pieces[0].left, leg.pieces[0].right) == (2.0, 16.0)


class TestOuterTurningRadius:
    def test_coulomb(self):
        pot = make_coulomb(1.0)
        assert outer_turning_radii(pot, [-0.5]) == [pytest.approx(2.0, rel=1e-9)]

    def test_no_turning_point(self):
        # energy below the potential everywhere: no classical region at all
        pot = PotentialSpec(0.0, 1.0, 0.0, 0, 2)
        assert outer_turning_radii(pot, [-1.0]) == [0.0]


@pytest.mark.parametrize("pot, mass, e, target", [
    (make_coulomb(1.0), MassProfile([1.0]), -0.11, 14.0),
    (make_coulomb(1.0), MassProfile([1.0]), -0.5, 30.0),
    (make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2), -0.8, 14.0),
    (PotentialSpec(0.0, 1.0, -20.0, 0, 2), MassProfile([1.0]), -15.0, 12.0),
    (PotentialSpec(0.5, 0.3, 0.0, 1, 3), MassProfile([2.0]), -0.2, 14.0),
])
def test_tail_radius_with_the_turning_point_given(pot, mass, e, target):
    # the stacked march, given each energy's turning point, gives every
    # energy the bits of tail_radius alone, whatever energies it runs with
    energies = [e, 2.0 * e, 0.5 * e]
    r_turns = outer_turning_radii(pot, energies)
    stacked = tail_mod._tail_radii(pot, mass, energies, r_turns, target)
    for x, r_tail in zip(energies, stacked):
        alone = tail_radius(pot, mass, x, target)
        assert np.float64(alone).tobytes() == np.float64(r_tail).tobytes()


class TestIntegrateRadial:
    def test_constant_mass_drops_first_derivative_term(self):
        from pdmradial.tail import _potential_arrays

        r = np.linspace(0.1, 5.0, 50)
        mass = MassProfile([1.0])
        q = QuantumNumbers(3, 0, 0)
        g, _, _ = _potential_arrays(make_coulomb(1.0), mass, q.dim_n, q.k, r)
        assert np.all(g == 0.0) and np.all(mass.terms_at(r)[2] == 0.0)

    def test_inward_decays_toward_large_r(self):
        sol = integrate_radial(_leg(*COULOMB, 2.0, 60.0, -0.5), -0.5)
        assert len(sol.coeffs) > 1
        for c in sol.coeffs:
            y = np.polynomial.chebyshev.chebval(np.array([-1.0, 1.0]), c)
            assert y[0] == pytest.approx(1.0, abs=1e-14) and abs(y[1]) < 1e-3

    @pytest.mark.parametrize(
        "e, shape, log_derivative",
        [(-0.5, lambda r: r, lambda r: 1.0 / r - 1.0),
         (-0.125, lambda r: r * (1.0 - 0.5 * r),
          lambda r: 1.0 / r - 0.5 - 1.0 / (2.0 - r))],
        ids=["ground", "first-excited"],
    )
    def test_hydrogen_log_derivative(self, e, shape, log_derivative):
        # R = r e^{-r} and R = r (1 - r/2) e^{-r/2}: R'/R at the match radius
        # from the closed forms, on legs of one to three pieces reaching 20
        # to 70 decay lengths 1/b past r_match, and R with the sign it has
        # relative to R(r_far)
        decay = 1.0 / math.sqrt(-2.0 * e)
        pieces = set()
        for r_match, lengths in ((1.0, 20.0), (3.0, 40.0), (0.5, 70.0)):
            r_far = r_match + lengths * decay
            leg = _leg(*COULOMB, r_match, r_far, e)
            sol = integrate_radial(leg, e)
            pieces.add(len(leg.pieces))
            assert sol.R == math.copysign(1.0, shape(r_match) * shape(r_far))
            assert abs(sol.dR / sol.R - log_derivative(r_match)) < 1e-12, r_match
        assert pieces == {1, 2, 3}

    def test_varying_mass_matches_a_direct_inward_integration(self):
        # exp-mass Cornell (m0 = 1, lambda = 0.2; a = 1, b = 0.2, c = -3),
        # N = 3, l = 1: R'/R at r_match against DOP853 on R'' = G R' + F R,
        # started at r_far from the same decay condition the tail imposes
        from scipy.integrate import solve_ivp

        pot, mass = make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2)
        q, e, r_match, r_far = QuantumNumbers(3, 1, 0), -2.0, 1.2, 45.0
        sol = integrate_radial(_leg(pot, mass, q, r_match, r_far, -3.4), e)

        g, k = -0.2, 5  # G = m'/m, k = N + 2l

        def f_of(r):
            v = -1.0 / r + 0.2 * r - 3.0
            return (-g * 2 / (2.0 * r) + (k - 1) * (k - 3) / (4.0 * r * r)
                    + 2.0 * math.exp(-0.2 * r) * (v - e))

        # the tail's condition y'/y = -sqrt(w), w = F + G^2/4, as R'/R
        rho = -math.sqrt(f_of(r_far) + 0.25 * g * g) + 0.5 * g
        run = solve_ivp(
            lambda r, u: (u[1], g * u[1] + f_of(r) * u[0]),
            (r_far, r_match), (1e-30, rho * 1e-30),
            method="DOP853", rtol=1e-13, atol=0.0,
        )
        R, dR = run.y[:, -1]
        assert abs(sol.dR / sol.R - dR / R) < 1e-11 * abs(dR / R)
        assert math.copysign(1.0, sol.R) == math.copysign(1.0, R)


class TestInwardKernel:
    def test_coulomb_ground_state_tail(self):
        # R = r e^{-r} at E = -1/2: on every piece y is the closed form
        # scaled to 1 at the piece's left end, to rounding of that scale
        leg = _leg(*COULOMB, 0.5, 40.0, -0.5)
        sol = integrate_radial(leg, -0.5)
        assert len(leg.pieces) > 1
        x = np.linspace(-1.0, 1.0, 201)
        for piece, c in zip(leg.pieces, sol.coeffs):
            r, y = _piece_values(piece, c, x)
            exact = r * np.exp(piece.left - r) / piece.left
            # the decay condition at r_far is WKB's, exact only far inward
            sel = r <= 30.0
            assert np.max(np.abs(y[sel] - exact[sel]), initial=0.0) < 1e-14
        # which is y'/y = -sqrt(w) with w = -2E - 2/r at r_far = 40, met to
        # the rounding of y there (about e^-25 of the piece's scale)
        c = sol.coeffs[-1]
        y, dy = (np.polynomial.chebyshev.chebval(1.0, a)
                 for a in (c, np.polynomial.chebyshev.chebder(c)))
        rho = leg.pieces[-1].scale * dy / y
        assert abs(rho + math.sqrt(1.0 - 2.0 / 40.0)) < 1e-6

    def test_leg_values_chain_the_pieces(self):
        # R = r e^{-r} at E = -1/2 across the pieces of the leg, with
        # R(r_match) = inward.R and 0 past r_far; states sampled together
        # give the bits they give alone
        leg = _leg(*COULOMB, 0.5, 40.0, -0.5)
        sol = integrate_radial(leg, -0.5)
        other = _leg(*COULOMB, 1.0, 30.0, -0.5)
        osol = integrate_radial(other, -0.5)
        r = np.linspace(0.5, 45.0, 891)
        got, also = leg_values([(sol, r), (osol, r[r >= 1.0])])
        assert len(leg.pieces) > 1 and abs(got[0] - sol.R) < 1e-14
        exact = sol.R * r * np.exp(0.5 - r) / 0.5
        sel = r <= 30.0
        assert np.max(np.abs(got[sel] - exact[sel])) < 1e-14 * np.max(np.abs(exact))
        assert np.all(got[r > 40.0] == 0.0) and np.all(got[r <= 40.0] != 0.0)
        assert np.array_equal(got, leg_values([(sol, r)])[0])
        assert np.array_equal(also, leg_values([(osol, r[r >= 1.0])])[0])
        assert leg_values([]) == []

    def test_oscillator_growth_spans_several_segments(self):
        # omega = 1, v3 = -20: the inward solution grows by about e^1131, far
        # beyond float64, so the leg is cut into pieces, each on its own
        # scale.  On each, log|y| of the ground state must follow
        # ln r - r^2/sqrt(2) wherever y stands clear of rounding, and the
        # log-derivatives handed from piece to piece must arrive intact.
        leg = _leg(*OSCILLATOR, 0.5, 40.0, OSCILLATOR_E0)
        sol = integrate_radial(leg, OSCILLATOR_E0)
        assert len(leg.pieces) > 30
        assert all(s == 1.0 for s in sol.signs)
        assert abs(sol.dR / sol.R - (2.0 - math.sqrt(2.0) * 0.5)) < 1e-12
        x = np.linspace(-1.0, 1.0, 101)
        for piece, c in zip(leg.pieces, sol.coeffs):
            r, y = _piece_values(piece, c, x)
            shape = np.log(np.abs(y)) + r**2 / math.sqrt(2.0) - np.log(r)
            clear = np.abs(y) > 1e-6
            assert np.max(np.abs(shape[clear] - shape[0])) < 1e-9, piece.left

    def test_sign_continuous_across_a_node_at_r_match(self):
        # the first excited k = 3 Coulomb state has its node at r = 2, so
        # near E = -1/8 the node of the inward solution crosses r_match = 2:
        # R changes sign there while R' keeps its sign, and the direction
        # (R, R') turns smoothly instead of flipping
        leg = _leg(*COULOMB, 2.0, 40.0, -0.13)
        directions = []
        for e in np.linspace(-0.1252, -0.1248, 41):
            sol = integrate_radial(leg, float(e))
            directions.append(np.array([sol.R, sol.dR]) / math.hypot(sol.R, sol.dR))
        d = np.array(directions)
        assert np.count_nonzero(np.diff(np.sign(d[:, 0]))) == 1
        assert np.all(d[:, 1] > 0)
        assert np.max(np.linalg.norm(np.diff(d, axis=0), axis=1)) < 0.05

    @pytest.mark.parametrize(
        "system, geometry",
        [("coulomb", (0.5, 40.0, -0.5)), ("coulomb", (0.5, 40.0, -0.125)),
         ("oscillator", (0.5, 40.0, OSCILLATOR_E0))],
        ids=["coulomb-two-pieces", "coulomb-node", "oscillator-many-pieces"],
    )
    def test_samples_are_each_piece_at_uniform_points(self, system, geometry):
        # the node-count samples: per_piece uniform points of every piece,
        # inner piece first, with the piece's sign, r_match left out
        leg = _leg(*(COULOMB if system == "coulomb" else OSCILLATOR), *geometry)
        sol = integrate_radial(leg, geometry[2])
        per_piece = 257
        x = np.linspace(-1.0, 1.0, per_piece)
        rows = np.array([sign * np.polynomial.chebyshev.chebval(x, c)
                         for c, sign in zip(sol.coeffs, sol.signs)])
        # each piece's values on its own scale
        scale = np.repeat(np.max(np.abs(rows), axis=1), per_piece)[1:]
        want, got = rows.ravel()[1:], leg_samples([sol], per_piece)[0]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        clear = np.abs(want) > 1e-10 * scale
        assert np.array_equal(np.sign(got[clear]), np.sign(want[clear]))

    def test_far_end_in_the_allowed_region_names_the_radius(self):
        # at E = -1/2 the Coulomb turning point is r = 2: a leg ending at
        # r = 1.5 cannot start from a decaying tail
        leg = _leg(*COULOMB, 0.5, 1.5, -0.5)
        with pytest.raises(DomainError, match=r"far end r=1\.5 "):
            integrate_radial(leg, -0.5)


class TestBatchedInwardLeg:
    """The inward leg's energy-independent arrays, built once and shared."""

    POT = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
    Q = QuantumNumbers(3, 0, 0)
    GEOMETRY = 0.5, 12.0, -19.5

    def _check(self, mass, energies):
        # one leg serves every trial energy of a root solve; each solve on it
        # must equal a solve on a leg built for that energy alone, and leave
        # the leg as it was
        leg = _leg(self.POT, mass, self.Q, *self.GEOMETRY)
        before = [np.copy(a) for p in leg.pieces for a in (p.rows0, p.rows_e)]
        for e in energies:
            shared = integrate_radial(leg, float(e))
            single = integrate_radial(
                _leg(self.POT, mass, self.Q, *self.GEOMETRY), float(e))
            assert (shared.R, shared.dR, shared.signs) == (single.R, single.dR, single.signs)
            assert all(np.array_equal(a, b) for a, b in zip(shared.coeffs, single.coeffs))
        after = [a for p in leg.pieces for a in (p.rows0, p.rows_e)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_match_values_equal_single_runs(self):
        self._check(MassProfile([1.0]), np.linspace(-19.0, -9.0, 11))

    def test_varying_mass(self):
        self._check(MassProfile([1.0], 0.05), np.linspace(-19.0, -12.0, 5))


@pytest.mark.parametrize("n", [8, 80, 120])
def test_second_derivative_matrix(n):
    # entrywise D2 equals D @ D up to rounding and differentiates a cubic
    d, d2, x = oracle_mod._cheb(n)
    assert np.max(np.abs(d2 - d @ d)) < 1e-13 * np.max(np.abs(d2))
    assert np.max(np.abs(d2 @ x**3 - 6.0 * x)) < 1e-15 * n**4


@pytest.mark.parametrize("n", [80, 120])
def test_differentiation_matrices_built_once_read_only(n):
    first = oracle_mod._cheb(n)
    again = oracle_mod._cheb(n)
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_levels_do_not_depend_on_blas_threads():
    # the reduced eigenproblem goes through LAPACK: its levels, which place
    # every series bracket, must be the same bits at 1 and 2 BLAS threads
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from pdmradial.model import MassProfile, QuantumNumbers, make_cornell, make_coulomb\n"
        "from pdmradial.oracle import _nearest_level, channel_spectrum\n"
        "for pot, mass, q, (e_lo, e_hi) in (\n"
        "    (make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(2, 1, 0), (-0.6, -0.03)),\n"
        "    (make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2),\n"
        "     QuantumNumbers(3, 1, 0), (-3.4, -0.8))):\n"
        "    s = channel_spectrum(pot, mass, q, (e_lo, e_hi))\n"
        "    a, d = s.coarse_pencil()\n"
        "    print(s.levels.tolist(), [_nearest_level(a, d, e)\n"
        "                              for e in s.levels.tolist() if e_lo <= e <= e_hi])\n"
    )
    src = str(Path(oracle_mod.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def _full_coarse_levels(spectrum):
    """Every real eigenvalue of the coarser pencil by a full QZ solve of the
    pencil itself.  Not ``numpy.linalg.eigvals`` with the rows divided as in
    ``collocation_levels``: on the graded grid that solve is off by 3.8e-12
    relative at the exp-mass demo's level l = 1, n = 2, where a 40-digit
    inverse iteration on the same pencil gives -0.962791082206724735 and the
    QZ solve and the shifted estimate are within 5e-14 and 1e-16 of it."""
    import scipy.linalg

    a, d = spectrum.coarse_pencil()
    w = scipy.linalg.eigvals(a, np.diag(d))
    return w[w.imag == 0].real


def _window_levels(spectrum):
    e_lo, e_hi = spectrum.window
    return spectrum.levels[(spectrum.levels >= e_lo) & (spectrum.levels <= e_hi)]


class TestGradedLevels:
    """The finer solve's levels, on the graded grid r = r_max s^2, against
    closed forms and an independent reference: every level in the window."""

    @pytest.mark.parametrize("dim,ell,window", [
        (2, 0, (-2.4, -0.06)), (3, 0, (-0.6, -0.027)), (2, 1, (-2.4, -0.06)),
        (3, 1, (-0.6, -0.027)), (2, 2, (-2.4, -0.06)), (3, 2, (-0.6, -0.027)),
    ], ids=[f"k{k}" for k in range(2, 8)])
    def test_coulomb_closed_form(self, dim, ell, window):
        k = dim + 2 * ell
        spectrum = channel_spectrum(make_coulomb(1.0), MassProfile([1.0]),
                                    QuantumNumbers(dim, ell, 0), window)
        levels = _window_levels(spectrum)
        exact = [-1.0 / (2.0 * (n + (k - 1) / 2.0) ** 2) for n in range(levels.size)]
        assert levels.size >= 1
        assert np.max(np.abs(levels / exact - 1.0)) < 2e-12

    @pytest.mark.parametrize("ell", [0, 1, 2], ids=["k3", "k5", "k7"])
    def test_oscillator_closed_form(self, ell):
        k = 3 + 2 * ell
        spectrum = channel_spectrum(PotentialSpec(0.0, 1.0, -20.0, 0, 2),
                                    MassProfile([1.0]), QuantumNumbers(3, ell, 0),
                                    (-19.5, -8.7))
        levels = _window_levels(spectrum)
        exact = [math.sqrt(2.0) * (2 * n + k / 2.0) - 20.0 for n in range(levels.size)]
        assert levels.size >= 3
        assert np.max(np.abs(levels / exact - 1.0)) < 2e-12

    # levels n = 0, 1, 2 of the exp-mass demo channels l = 0, 1 from
    # bench/reference.py, ShootingChannel(3, l, 1, 0.2, -3, 1, 0.2).levels(
    # -3.4, -0.8, 3): DOP853 shooting, converged to 1e-12 in its match and
    # outer radii (at rtol 1e-14 they move by at most 1.4e-15)
    EXPMASS_REFERENCE = {
        0: (-3.0227172085069602, -2.109049347124596, -1.4362419230311665),
        1: (-2.241163447017574, -1.5856943595907071, -0.9627910822373024),
    }

    @pytest.mark.parametrize("ell", [0, 1])
    def test_expmass_demo_against_the_shooting_reference(self, ell):
        spectrum = channel_spectrum(make_cornell(1.0, 0.2, -3.0),
                                    MassProfile([1.0], 0.2),
                                    QuantumNumbers(3, ell, 0), (-3.4, -0.8))
        levels = _window_levels(spectrum)
        reference = self.EXPMASS_REFERENCE[ell]
        assert levels.size == 3
        assert np.max(np.abs(levels / reference - 1.0)) < 2e-12


class TestShiftedCheck:
    """The coarser solve's level nearest each finer level, by shifted
    inverse iteration on the pencil at that level alone instead of a full
    eigensolve."""

    @pytest.mark.parametrize("pot,mass,dim,ell,window", [
        *[(make_coulomb(1.0), MassProfile([1.0]), dim, ell, (-0.6, -0.027))
          for dim, ell in ((2, 0), (3, 0), (2, 1), (4, 0), (3, 1))],
        *[(make_cornell(1.0, 0.2, -3.0), MassProfile([1.0], 0.2), 3, ell,
           (-3.4, -0.8)) for ell in (0, 1)],
        *[(PotentialSpec(0.0, 1.0, -20.0, 0, 2), MassProfile([1.0]), 3, ell,
           (-19.5, -8.7)) for ell in (0, 1, 2)],
    ], ids=["coulomb-k2", "coulomb-k3", "coulomb-k4-N2", "coulomb-k4-N4",
            "coulomb-k5", "expmass-l0", "expmass-l1", "osc-l0", "osc-l1", "osc-l2"])
    def test_matches_the_full_coarse_solve(self, pot, mass, dim, ell, window):
        spectrum = channel_spectrum(pot, mass, QuantumNumbers(dim, ell, 0), window)
        full = _full_coarse_levels(spectrum)
        inside = _window_levels(spectrum)
        pencil = spectrum.coarse_pencil()
        assert inside.size >= 2
        for e in inside:
            got = oracle_mod._nearest_level(*pencil, float(e))
            nearest = full[np.argmin(np.abs(full - e))]
            assert abs(got - nearest) <= 1e-12 * abs(nearest), (e, got, nearest)
            assert spectrum.checked(float(e)) == e

    def test_too_few_nodes_fail_with_the_full_solves_gap(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_RESOLUTIONS", TOO_FEW_NODES)
        spectrum = channel_spectrum(*COULOMB, (-0.6, -0.4))
        (e,) = _window_levels(spectrum)
        full = _full_coarse_levels(spectrum)
        full_gap = np.min(np.abs(full - e))
        gap = abs(oracle_mod._nearest_level(*spectrum.coarse_pencil(), float(e)) - e)
        assert full_gap > 1e-6 * abs(e)
        assert abs(gap - full_gap) <= 1e-6 * full_gap
        with pytest.raises(ResolutionError, match=f"{gap / abs(e):.3e} relative"):
            spectrum.checked(float(e))

    def test_shift_on_a_coarse_eigenvalue_passes_with_gap_zero(self):
        # A - e diag(d) is exactly singular at e = -2: the solve raises
        # LinAlgError, and the shift is its own check
        pencil = np.diag([-3.0 + 3e-12, -2.0, -0.5]), np.ones(3)
        assert oracle_mod._nearest_level(*pencil, -2.0) == -2.0
        assert oracle_mod._nearest_level(*pencil, -3.0) == pytest.approx(
            -3.0 + 3e-12, abs=1e-15)
        spectrum = ChannelSpectrum((-4.0, -0.2), np.array([-3.0, -2.0, -1.0]),
                                   lambda: pencil)
        assert spectrum.checked(-2.0) == -2.0
        assert spectrum.checked(-3.0) == -3.0
        with pytest.raises(ResolutionError):
            spectrum.checked(-1.0)

    def test_an_unconverged_iteration_says_so(self, monkeypatch):
        # at 12 nodes the iteration at the 2-D ground state turns at every
        # step: the error names the iteration, not an infinite gap
        monkeypatch.setattr(oracle_mod, "_RESOLUTIONS", TOO_FEW_NODES)
        spectrum = channel_spectrum(make_coulomb(1.0), MassProfile([1.0]),
                                    QuantumNumbers(2, 0, 0), (-2.4, -0.06))
        e = float(_window_levels(spectrum)[0])
        assert oracle_mod._nearest_level(*spectrum.coarse_pencil(), e) == np.inf
        with pytest.raises(ResolutionError, match=(
                "the 12-node inverse iteration at E=.* did not converge "
                f"after {oracle_mod._INVERSE_STEPS} solves")):
            spectrum.checked(e)

    def test_an_unconverged_estimate_never_passes(self):
        # halfway between two eigenvalues the iterate turns by 90 degrees at
        # every step: no estimate, whatever x . y reads
        pencil = np.diag([1.0, 3.0]), np.ones(2)
        assert oracle_mod._nearest_level(*pencil, 2.0) == np.inf
        spectrum = ChannelSpectrum((1.5, 2.5), np.array([2.0]), lambda: pencil)
        with pytest.raises(ResolutionError):
            spectrum.checked(2.0)


def oracle_level(pot, mass, q, bracket):
    """The oracle on its own: level q.radial_n of the collocation spectrum
    over ``bracket``, once the coarser solve has checked it."""
    spectrum = channel_spectrum(pot, mass, q, bracket)
    return spectrum.checked(spectrum.cell(q.radial_n)[1])


class TestCollocationEigenvalue:
    """The collocation oracle on its own, ``oracle_level``."""

    def test_hydrogen_ground_state(self):
        e = oracle_level(
            make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
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
            e = oracle_level(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(dim, ell, n),
                (1.05 * e_ref, 0.95 * e_ref),
            )
            assert abs(e - e_ref) < 1e-10 * abs(e_ref), (n, e)

    @pytest.mark.parametrize("dim,ell", [(2, 0), (2, 1), (4, 0)])
    def test_expmass_cornell_agrees_with_series(self, dim, ell):
        # the demo's exponential-mass Cornell channels with k <= 4, against
        # the series energies (error about 1e-12)
        pot = make_cornell(1.0, 0.2, -3.0)
        mass = MassProfile([1.0], 0.2)
        cfg = SolverConfig(e_bracket=(-8.0, -0.8))
        spectrum = channel_spectrum(
            pot, mass, QuantumNumbers(dim, ell, 0), cfg.e_bracket
        )
        for n in range(2):
            q = QuantumNumbers(dim, ell, n)
            series = find_eigenvalue(pot, mass, q, cfg, spectrum).energy
            e = oracle_level(pot, mass, q, spectrum.cell(n)[0])
            assert abs(e - series) < 1e-9 * abs(series), (n, e, series)

    def test_oscillator_spacing_is_constant(self):
        pot = PotentialSpec(0.0, 1.0, -20.0, 0, 2)
        mass = MassProfile([1.0])
        energies = []
        for n in range(4):
            e_ref = math.sqrt(2.0) * (2 * n + 1.5) - 20.0
            energies.append(
                oracle_level(
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
        mass = MassProfile([1.0])
        q = QuantumNumbers(3, 0, 0)
        (ea, eb), _ = channel_spectrum(pot, mass, q, (-4.95, -2.0)).cell(0)
        res = find_eigenvalue(pot, mass, q, SolverConfig(e_bracket=(-4.95, -2.0)))
        e_oracle = oracle_level(pot, mass, q, (ea, eb))
        assert abs(res.energy - e_oracle) < 1e-6 * abs(e_oracle)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            oracle_level(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
                (-0.45, -0.35),
            )

    def test_resolution_error_with_too_few_nodes(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_RESOLUTIONS", TOO_FEW_NODES)
        with pytest.raises(ResolutionError, match="16 and 12 nodes"):
            oracle_level(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
                (-0.6, -0.4),
            )

    def test_invalid_bracket(self):
        with pytest.raises(DomainError):
            oracle_level(
                make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0),
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
            oracle_level(pot, MassProfile([1.0]), q, (-0.6, -0.4))
