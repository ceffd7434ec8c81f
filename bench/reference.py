"""Independent reference energies for the exponential-mass Cornell problem.

A plain shooting solve built only on ``scipy.integrate.solve_ivp`` (DOP853)
and ``scipy.optimize.brentq``; it shares no code with pdmradial.  The radial
equation with m(r) = m0 exp(-lam r) and V(r) = -a/r + b r + c reads

    R'' = g R' + F(r, E) R,   g = m'/m = -lam,
    F   = -g (N-1)/(2r) + (k-1)(k-3)/(4 r^2) + 2 m(r) (V(r) - E).

The regular solution is integrated outward from r0 with the two-term
Frobenius start R = r^p (1 + c1 r), p = (k-1)/2, and the decaying solution
inward from r_max with its WKB log-derivative.  By Abel's identity their
Wronskian keeps its sign along r, so its sign at the match radius does not
depend on where the legs meet, and its zeros in E are the eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

SCAN_POINTS = 21
# relative agreement demanded between two solves with different match and
# outer radii before a level is used as a reference
CONVERGED_REL = 1e-12


class ReferenceSolveError(RuntimeError):
    """The reference solve did not find or did not converge on a level."""


class ShootingChannel:
    def __init__(self, dim, ell, a, b_lin, c, m0, lam):
        self.dim, self.ell = dim, ell
        self.a, self.b_lin, self.c = a, b_lin, c
        self.m0, self.lam = m0, lam
        self.k = dim + 2 * ell
        self.p = (self.k - 1) / 2.0
        # R = r^p (1 + c1 r + ...): balance of the r^(p-1) terms
        self.c1 = (-lam * ell - 2.0 * m0 * a) / (self.k - 1)
        # start where the neglected c2 r0^2 term leaves an irregular admixture
        # of order r0^k <= 1e-15
        self.r0 = 1e-15 ** (1.0 / self.k)

    def _potential(self, r):
        return -self.a / r + self.b_lin * r + self.c

    def _f(self, r, e):
        k = self.k
        mass = self.m0 * math.exp(-self.lam * r)
        return (self.lam * (self.dim - 1) / (2.0 * r)
                + (k - 1) * (k - 3) / (4.0 * r * r)
                + 2.0 * mass * (self._potential(r) - e))

    def _rhs(self, r, y, e):
        return (y[1], -self.lam * y[1] + self._f(r, e) * y[0])

    def _kappa(self, r, e):
        """Local decay rate of y = R / sqrt(m), which obeys y'' = (F + lam^2/4) y."""
        return math.sqrt(max(self._f(r, e) + 0.25 * self.lam ** 2, 0.0))

    def geometry(self, e, exponent=20.0, match_scale=1.0):
        """Match radius at the outer turning point (scaled) and an outer
        radius where the WKB exponent past it reaches ``exponent``."""
        r_turn = brentq(lambda r: self._potential(r) - e, 1e-9, 1e6)
        r, total = r_turn, 0.0
        while total < exponent:
            dr = 0.02 * max(r, 1.0)
            total += self._kappa(r, e) * dr
            r += dr
        return match_scale * r_turn, r

    def _legs(self, e, r_m, r_max, rtol, dense=False):
        r0, p, c1 = self.r0, self.p, self.c1
        start = (r0 ** p * (1.0 + c1 * r0),
                 p * r0 ** (p - 1.0) * (1.0 + c1 * r0) + r0 ** p * c1)
        out = solve_ivp(self._rhs, (r0, r_m), start, "DOP853", args=(e,),
                        rtol=rtol, atol=1e-300, dense_output=dense)
        slope = -0.5 * self.lam - self._kappa(r_max, e)
        inn = solve_ivp(self._rhs, (r_max, r_m), (1.0, slope), "DOP853",
                        args=(e,), rtol=rtol, atol=1e-300, dense_output=dense)
        if out.status != 0 or inn.status != 0:
            raise ReferenceSolveError(f"solve_ivp failed at E={e!r}: {out.message} / {inn.message}")
        return out, inn

    def mismatch(self, e, r_m, r_max, rtol=1e-13):
        out, inn = self._legs(e, r_m, r_max, rtol)
        ro, po = out.y[:, -1]
        ri, pi = inn.y[:, -1]
        return (po * ri - ro * pi) / (math.hypot(ro, po) * math.hypot(ri, pi))

    def nodes(self, e, r_m, r_max):
        out, inn = self._legs(e, r_m, r_max, 1e-13, dense=True)
        count = 0
        for leg, lo, hi in ((out, self.r0, r_m), (inn, r_m, r_max)):
            v = leg.sol(np.linspace(lo, hi, 8001))[0]
            v = v[v != 0.0]
            count += int(np.count_nonzero(np.diff(np.signbit(v))))
        return count

    def _root(self, lo, hi, r_m, r_max):
        return brentq(self.mismatch, lo, hi, args=(r_m, r_max),
                      xtol=1e-15, rtol=1e-15, maxiter=200)

    def levels(self, e_lo, e_hi, count):
        """The lowest ``count`` levels in (e_lo, e_hi), each checked for its
        node count and for convergence in the match and outer radii."""
        s = np.linspace(math.sqrt(-e_lo), math.sqrt(-e_hi), SCAN_POINTS)
        grid = -s * s
        signs = [self.mismatch(e, *self.geometry(e), rtol=1e-10) < 0 for e in grid]
        brackets = [(grid[i], grid[i + 1]) for i in range(SCAN_POINTS - 1)
                    if signs[i] != signs[i + 1]]
        if len(brackets) < count:
            raise ReferenceSolveError(
                f"k={self.k}: {len(brackets)} levels in ({e_lo}, {e_hi}), "
                f"need {count}")
        out = []
        for n, (lo, hi) in enumerate(brackets[:count]):
            r_m, r_max = self.geometry(hi)
            e = self._root(lo, hi, r_m, r_max)
            found = self.nodes(e, r_m, r_max)
            if found != n:
                raise ReferenceSolveError(f"k={self.k}: level {n} at E={e!r} has {found} nodes")
            # the same root with the match radius moved in by 20% and the
            # outer radius pushed out to a WKB exponent of 26
            alt = self.geometry(hi, exponent=26.0, match_scale=0.8)
            width = 1e-10 * abs(e)
            try:
                e_alt = self._root(e - width, e + width, *alt)
            except ValueError:
                raise ReferenceSolveError(
                    f"k={self.k}: level {n} moved by more than {width:.1e} "
                    "with the match and outer radii") from None
            if abs(e_alt - e) > CONVERGED_REL * abs(e):
                raise ReferenceSolveError(
                    f"k={self.k}: level {n} not converged: {e!r} vs {e_alt!r}")
            out.append(e)
        return out
