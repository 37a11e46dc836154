import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpref
from entnorm import bounds, cli, curves, simplex
from entnorm.curves import (
    InflectionPoint,
    curvature_sign,
    dnorm_dh_peaked,
    entropy_peaked,
    entropy_stepped,
    inflection_point,
    inv_entropy_peaked,
    inv_entropy_stepped,
    norm_peaked,
    norm_stepped,
    norm_uniform,
    root,
    solve_tangent_generic,
    tangent_point,
    tangent_residual,
)
from entnorm.simplex import DomainError, NumericalError, alpha_norm, make_stepped, shannon_entropy

LN = math.log


class TestEntropyAlongCurves:
    def test_peaked_endpoints(self):
        for n in (2, 4, 9):
            assert entropy_peaked(n, 0.0) == 0.0
            assert entropy_peaked(n, 1.0 / n) == pytest.approx(LN(n), abs=1e-12)

    def test_peaked_closed_form_point(self):
        # at p = 1/(n(n-1)) the value is ln n - (1 - 2/n) ln(n-1)
        assert entropy_peaked(4, 1 / 12) == pytest.approx(LN(4) - 0.5 * LN(3), abs=1e-12)

    def test_stepped_values(self):
        assert entropy_stepped(4, 1.0) == 0.0
        assert entropy_stepped(6, 1 / 3) == pytest.approx(LN(3), abs=1e-12)
        # direct summation over (0.4, 0.4, 0.2)
        assert entropy_stepped(5, 0.4) == pytest.approx(1.0549201679861442, abs=1e-12)

    def test_stepped_matches_vector_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            p = float(rng.uniform(1.0 / n, 1.0))
            assert entropy_stepped(n, p) == pytest.approx(
                shannon_entropy(make_stepped(n, p)), abs=1e-12
            )

    def test_domains(self):
        with pytest.raises(DomainError):
            entropy_peaked(3, 0.4)
        with pytest.raises(DomainError):
            entropy_stepped(3, 0.2)
        with pytest.raises(DomainError, match="outside"):
            entropy_peaked(3, np.array([0.1, 0.5]))  # one entry out refuses the array

    def test_norm_domains_match_the_entropies(self):
        # p was clipped into the family's range: norm_peaked(3, 5.0, 2) answered the uniform norm
        for p in (5.0, -1.0, 1 / 3 + 1e-9, -1e-9, np.array([0.1, 0.5])):
            with pytest.raises(DomainError, match="outside"):
                norm_peaked(3, p, 2.0)
        for p in (1.5, 0.2, 1 / 3 - 1e-9, np.array([0.5, 1.5])):
            with pytest.raises(DomainError, match="outside"):
                norm_stepped(3, p, 2.0)
        assert norm_peaked(3, 1 / 3 + 1e-13, 2.0) == norm_peaked(3, 1 / 3, 2.0)  # within SUM_TOL: clipped
        assert norm_stepped(3, 1.0 + 1e-13, 2.0) == norm_stepped(3, 1.0, 2.0)

    # orders 0.001 and 0.005 only at n = 2: beyond, ||u_n||_alpha is no double
    @pytest.mark.parametrize("n, alpha", [(2, 0.001), (2, 0.005)] + [(n, a) for n in (2, 3, 8, 10**4)
                                                                     for a in (0.3, 2.0, 1e3)])
    def test_peaked_top_is_the_uniform_norm(self, n, alpha):
        # the power sum at p = 1/n missed ||u_n|| by about 1/alpha ulps
        u = norm_uniform(n, alpha)
        assert norm_peaked(n, 1.0 / n, alpha) == u
        assert norm_peaked(n, np.array([0.0, 1.0 / n]), alpha)[1] == u

    def test_stepped_corner_is_the_uniform_norm(self):
        # at p = 1/m the stepped vector is u_m, whose power sum missed ||u_m|| by about 1e-14 at these orders
        assert norm_stepped(2, 0.5, 0.005) == norm_uniform(2, 0.005)
        assert norm_stepped(8, 1 / 3, 0.01) == norm_uniform(3, 0.01)
        assert norm_stepped(8, np.array([0.4, 1 / 3]), 0.01)[1] == norm_uniform(3, 0.01)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_monotone(self, n):
        ps = np.linspace(0.0, 1.0 / n, 1000)
        hs = [entropy_peaked(n, p) for p in ps]
        assert all(b > a for a, b in zip(hs, hs[1:]))
        ps = np.linspace(1.0 / n, 1.0, 1000)
        hs = [entropy_stepped(n, p) for p in ps]
        assert all(b < a for a, b in zip(hs, hs[1:]))


class TestInverses:
    def test_endpoints(self):
        for n in (2, 5):
            assert inv_entropy_peaked(n, 0.0) == 0.0
            assert inv_entropy_peaked(n, LN(n)) == 1.0 / n
            assert inv_entropy_stepped(n, 0.0) == 1.0
            assert inv_entropy_stepped(n, LN(n)) == 1.0 / n

    def test_known_points(self):
        assert inv_entropy_peaked(4, LN(4) - 0.5 * LN(3)) == pytest.approx(1 / 12, abs=1e-10)
        assert inv_entropy_stepped(5, LN(2)) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_round_trip(self, n):
        for p in np.linspace(0.0, 1.0 / n, 64):
            assert inv_entropy_peaked(n, entropy_peaked(n, p)) == pytest.approx(p, abs=1e-10)
        for p in np.linspace(1.0 / n, 1.0, 64):
            assert inv_entropy_stepped(n, entropy_stepped(n, p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 8])
    def test_residual_in_h(self, n):
        for h in np.linspace(0.0, LN(n), 101):
            p = inv_entropy_peaked(n, h)
            assert abs(entropy_peaked(n, p) - h) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            inv_entropy_peaked(4, LN(4) + 1e-3)
        with pytest.raises(DomainError):
            inv_entropy_stepped(4, -1e-3)


class TestNormDerivative:
    @pytest.mark.parametrize("n,alpha", [(3, 0.5), (3, 2.0), (8, 0.7), (8, 4.0)])
    def test_matches_finite_differences(self, n, alpha):
        for p in np.linspace(0.02 / n, 0.98 / n, 25):
            d = dnorm_dh_peaked(n, p, alpha)
            dp = p * 1e-6
            dn = norm_peaked(n, p + dp, alpha) - norm_peaked(n, p - dp, alpha)
            dh = entropy_peaked(n, p + dp) - entropy_peaked(n, p - dp)
            assert d == pytest.approx(dn / dh, rel=1e-6)

    def test_sign(self):
        assert dnorm_dh_peaked(3, 1 / 6, 2.0) < 0.0
        assert dnorm_dh_peaked(3, 1 / 6, 0.5) > 0.0

    def test_vanishing_limit_above_one(self):
        # for orders > 1 the slope decays like 1/ln(1/p): slow, but monotone to 0
        vals = [abs(dnorm_dh_peaked(8, p, 2.0)) for p in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[2] < 0.06  # |.| at p = 1e-8
        assert vals[-1] < 0.04

    def test_diverging_limit_below_one(self):
        vals = [dnorm_dh_peaked(8, p, 0.7) for p in (1e-4, 1e-8, 1e-12, 1e-16)]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[1] > 10.0
        assert vals[-1] > 1e3

    def test_domain(self):
        with pytest.raises(DomainError):
            dnorm_dh_peaked(3, 0.0, 2.0)
        with pytest.raises(DomainError):
            dnorm_dh_peaked(3, 1 / 3, 2.0)
        with pytest.raises(DomainError):
            dnorm_dh_peaked(3, 0.1, 1.0)
        with pytest.raises(DomainError, match="alpha=0.0001"):
            dnorm_dh_peaked(2, 0.25, 1e-4)  # the slope, about 2^10000, is no double


class TestCurvatureSign:
    def test_zero_at_order_one(self):
        for n in (2, 3, 8):
            for p in np.linspace(0.01 / n, 0.99 / (n - 1), 50):
                if abs(p - 1.0 / n) < 1e-6:
                    continue
                assert curvature_sign(n, p, 1.0) == 0.0

    def test_binary_always_negative(self):
        for p in np.linspace(0.01, 0.49, 30):
            for alpha in (0.3, 0.5, 2.0, 6.0):
                assert curvature_sign(2, p, alpha) < 0.0
        for p in np.linspace(0.51, 0.99, 30):
            assert curvature_sign(2, p, 2.0) < 0.0

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            curvature_sign(8, 0.125, 2.0)  # p = 1/n is exactly representable here

    def test_outside_the_curve_raises(self):
        with pytest.raises(DomainError, match="outside"):
            curvature_sign(3, 0.6, 2.0)

    def test_sign_change_bracket(self):
        # verified against second finite differences of norm vs entropy
        assert curvature_sign(8, 0.0979, 2.0) < 0.0
        assert curvature_sign(8, 0.0980, 2.0) > 0.0

    def test_matches_second_difference_sign(self):
        n, alpha = 8, 2.0
        for p in (0.05, 0.08, 0.095, 0.105, 0.12):
            dp = 1e-5
            pts = [(entropy_peaked(n, x), norm_peaked(n, x, alpha)) for x in (p - dp, p, p + dp)]
            (h0, n0), (h1, n1), (h2, n2) = pts
            fd2 = ((n2 - n1) / (h2 - h1) - (n1 - n0) / (h1 - h0)) / (0.5 * (h2 - h0))
            assert math.copysign(1, fd2) == math.copysign(1, curvature_sign(n, p, alpha))

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5, 4.0])
    def test_single_sign_change_inside_bracket(self, n, alpha):
        lo, hi = 1.0 / (n * (n - 1)), 1.0 / n
        ps = np.linspace(lo, hi, 10000, endpoint=False)[1:]
        signs = np.sign([curvature_sign(n, float(p), alpha) for p in ps])
        flips = int((np.diff(signs) != 0).sum())
        assert flips == 1

    def test_stepped_branch_negative(self):
        # on (1/n, 1/(n-1)) the curvature of the shared arc is negative for alpha != 1
        for p in np.linspace(1 / 8 + 1e-3, 1 / 7 - 1e-3, 20):
            assert curvature_sign(8, float(p), 2.0) < 0.0
            assert curvature_sign(8, float(p), 0.5) < 0.0


class TestInflection:
    def test_limit_toward_order_one(self):
        for n in (3, 8, 16):
            target = LN(2) + 0.5 * LN(n - 1)
            assert inflection_point(n, 1.0 + 1e-4).h == pytest.approx(target, abs=1e-2)
            assert inflection_point(n, 1.0 - 1e-4).h == pytest.approx(target, abs=1e-2)

    def test_limit_large_order(self):
        assert inflection_point(8, 64.0).h == pytest.approx(LN(8), abs=0.05)

    def test_half_order_bound(self):
        ip = inflection_point(5, 0.5)
        assert ip.h > LN(5) - (1 - 2 / 5) * LN(4)

    def test_bracket_invariants(self):
        for n in (3, 6, 10):
            for alpha in (0.5, 0.9, 1.3, 8.0):
                ip = inflection_point(n, alpha)
                assert 1.0 / (n * (n - 1)) < ip.p < 1.0 / n
                assert LN(n) - (1 - 2 / n) * LN(n - 1) < ip.h < LN(n)
                assert abs(curvature_sign(n, ip.p, alpha)) < 1e-9

    @pytest.mark.parametrize("n", range(3, 11))
    def test_strictly_increasing_in_order(self, n):
        grid = [0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 2.0, 4.0, 8.0]
        hs = [inflection_point(n, a).h for a in grid]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_unsupported(self):
        with pytest.raises(DomainError):
            inflection_point(2, 2.0)
        with pytest.raises(DomainError):
            inflection_point(8, 0.3)
        with pytest.raises(DomainError):
            inflection_point(8, 1.0)


class TestTangent:
    def test_half_order_closed_form(self):
        ts = tangent_point(7, 0.5)
        assert ts.p == pytest.approx(1 / 42, abs=1e-15)
        # the generic solver lands on the same point
        assert solve_tangent_generic(7, 0.5) == pytest.approx(1 / 42, abs=1e-10)

    def test_binary_is_half(self):
        for alpha in (0.2, 0.5, 3.0):
            assert tangent_point(2, alpha).p == 0.5
        for alpha in (0.001, 0.002, 0.005, 0.3, 2.0):
            assert tangent_point(2, alpha).norm == norm_uniform(2, alpha)

    def test_root_quality(self):
        ts = tangent_point(4, 2.0)
        assert abs(tangent_residual(4, ts.p, 2.0)) < 1e-9
        assert ts.p < inflection_point(4, 2.0).p
        assert ts.h < inflection_point(4, 2.0).h < LN(4)

    def test_tangent_line_dominates_curve(self):
        # the line through (h*, norm*) and (ln n, uniform norm) stays above the curve
        n, alpha = 4, 2.0
        ts = tangent_point(n, alpha)
        u = n ** (1.0 / alpha - 1.0)
        slope = (u - ts.norm) / (LN(n) - ts.h)
        for p in np.linspace(1e-4, 1.0 / n - 1e-4, 400):
            h, v = entropy_peaked(n, p), norm_peaked(n, p, alpha)
            assert v <= ts.norm + slope * (h - ts.h) + 1e-9

    def test_memoized(self):
        assert tangent_point(6, 3.0) is tangent_point(6, 3.0)
        assert inflection_point(6, 3.0) is inflection_point(6, 3.0)

    def test_unsupported(self):
        with pytest.raises(DomainError):
            tangent_point(5, 0.3)
        with pytest.raises(DomainError):
            tangent_point(5, 1.0)


@pytest.mark.parametrize("n", range(3, 11))
def test_zero_order_curvature_root_bracket(n):
    # the zero of the curvature function at order 0 sits inside (e^-n, 1/(n(n-1)))
    lo, hi = math.exp(-n), 1.0 / (n * (n - 1))
    f_lo, f_hi = curvature_sign(n, lo, 0.0), curvature_sign(n, hi, 0.0)
    assert f_lo < 0.0 < f_hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if curvature_sign(n, mid, 0.0) < 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    assert lo < root < hi


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_stepped_curve_piecewise_concavity(alpha):
    # within each segment [1/m, 1/(m-1)] the norm is concave in the entropy
    n = 6
    for m in range(2, n + 1):
        lo, hi = 1.0 / m, 1.0 / (m - 1)
        ps = np.linspace(lo + 1e-9, hi - 1e-9, 200)
        pts = sorted((entropy_stepped(n, float(p)), norm_stepped(n, float(p), alpha)) for p in ps)
        hs = np.array([a for a, _ in pts])
        ns = np.array([b for _, b in pts])
        slopes = np.diff(ns) / np.diff(hs)
        assert np.all(np.diff(slopes) <= 1e-9)


class TestExtremeOrders:
    """Every norm site against 50-digit mpmath, from orders near 0 to 1e6."""

    DBL_MAX = mp.mpf(sys.float_info.max)

    @pytest.fixture(autouse=True)
    def fifty_digits(self):
        with mp.workdps(50):
            yield

    def check(self, value, ref):
        """value() within 1e-13 of ref, or DomainError where ref is no finite double."""
        if abs(ref) > self.DBL_MAX:
            with pytest.raises(DomainError, match="alpha"):
                value()
        else:
            assert abs(value() - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("n", [2, 8, 10**4])
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 2.0, 40.0, 300.0, 1000.0, 1e6])
    def test_kernel_sites_match_mpmath(self, n, alpha):
        a = mp.mpf(alpha)
        for p in (1e-300, 1e-12, 0.3 / n, 0.9 / n):
            pm = mp.mpf(p)
            q = 1 - (n - 1) * pm
            ref = mpref.norm([(1, q), (n - 1, pm)], alpha)
            self.check(lambda: norm_peaked(n, p, alpha), ref)
            slope = ref ** (1 - a) * (pm ** (a - 1) - q ** (a - 1)) / (mp.log(q) - mp.log(pm))
            self.check(lambda: dnorm_dh_peaked(n, p, alpha), slope)
        for p in (1.0 / n, 0.3, 0.7, 1.0):
            if p >= 1.0 / n:
                pm = mp.mpf(p)
                k = int(mp.floor(1 / pm + mp.mpf("1e-9")))
                self.check(lambda: norm_stepped(n, p, alpha), mpref.norm([(k, pm), (1, 1 - k * pm)], alpha))
        self.check(lambda: norm_uniform(n, alpha), mp.mpf(n) ** (1 / a - 1))
        v = np.random.default_rng(n).standard_exponential(n)
        v /= v.sum()
        self.check(lambda: alpha_norm(v, alpha), mpref.norm([(1, float(x)) for x in v], alpha))

    @pytest.mark.parametrize("n, alpha", [(8, 1000.0), (5000, 500.0)])
    def test_large_order_tangent_point(self, n, alpha):
        assert abs(tangent_point(n, alpha).p - mpref.tangent_p(n, alpha)) <= 1e-9

    def test_huge_order_named_unsupported(self):
        with pytest.raises(DomainError, match="unsupported order alpha=1e\\+300"):
            inflection_point(8, 1e300)


class TestRoot:
    """curves.root: Illinois steps inside the bracket for a float f; for an array f, fixed halvings, or Newton steps
    where a derivative is given."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        return g, calls

    def test_float_solves_within_twice_the_halvings(self, monkeypatch):
        evals = []

        def counting_root(f, lo, hi, f_lo=None, f_hi=None):
            g, calls = self.counted(f)
            p = root(g, lo, hi, f_lo, f_hi)
            evals.append(len(calls) + (f_lo is not None) + (f_hi is not None))
            return p

        monkeypatch.setattr(curves, "root", counting_root)
        curves._inflection_cached.cache_clear()
        curves._tangent_cached.cache_clear()
        try:
            for n in (3, 8, 100, 10**4, 10**6):
                for alpha in (0.5 + 1e-7, 0.7, 0.99, 0.9999, 1.0001, 1.01, 2.0, 50.0, 1000.0):
                    tangent_point(n, alpha)
                for h in np.linspace(0.0, LN(n), 41):
                    inv_entropy_peaked(n, float(h))
                    inv_entropy_stepped(n, float(h))
        finally:
            curves._inflection_cached.cache_clear()
            curves._tangent_cached.cache_clear()
        assert len(evals) == 5 * 9 * 2 + 5 * 41 * 2
        assert max(evals) <= 2 * curves._HALVINGS + 2

    @pytest.mark.parametrize("rising", [True, False])
    def test_exact_zero_is_returned(self, rising):
        if rising:
            assert root(lambda x: x, 0.0, 1.0) == 0.0
            assert root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
            f, calls = self.counted(lambda x: x - 0.25)
            assert root(f, 0.0, 1.0) == 0.25  # the first false-position step lands on it
        else:  # root reads the direction from f(lo)
            assert root(lambda x: -x, 0.0, 1.0) == 0.0
            assert root(lambda x: 1.0 - x, 0.0, 1.0) == 1.0
            f, calls = self.counted(lambda x: 0.25 - x)
            assert root(f, 0.0, 1.0) == 0.25
        assert len(calls) == 3

    # falling float functions on [0, 1]: root gives each the bits of the rising route, root of -f with -f's ends
    FALLING = {
        "zero at lo": lambda x: -x,
        "zero at hi": lambda x: 1.0 - x,
        "zero on a false-position step": lambda x: 0.25 - x,
        "NaN inside": lambda x: math.nan if 0.5 < x < 0.999 else math.exp(-30.0 * x) - 0.01,  # the first step is NaN
        "NaN everywhere inside": lambda x: 1.0 if x == 0.0 else -1.0 if x == 1.0 else math.nan,
        "convex, so Illinois halvings": lambda x: math.exp(-30.0 * x) - 0.01,
    }

    @staticmethod
    def assert_negated_route(f, lo, hi, ends):
        """root(f) and root(-f), each passed its values at the named ends: the same double."""
        f_lo, f_hi = (f(lo) if "lo" in ends else None), (f(hi) if "hi" in ends else None)
        want = root(lambda x: -f(x), lo, hi, *(None if v is None else -v for v in (f_lo, f_hi)))
        assert root(f, lo, hi, f_lo, f_hi).hex() == want.hex()

    @pytest.mark.parametrize("ends", [(), ("lo",), ("hi",), ("lo", "hi")])
    @pytest.mark.parametrize("case", FALLING)
    def test_falling_f_takes_the_negated_route(self, case, ends):
        self.assert_negated_route(self.FALLING[case], 0.0, 1.0, ends)

    @given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.05, 20.0), st.floats(-5.0, 5.0))
    @settings(max_examples=300)
    def test_falling_powers_take_the_negated_route(self, t, k, lo):
        # t - (x - lo)^k falls from t to t - 1 on [lo, lo + 1]: concave for k > 1, convex for k < 1
        self.assert_negated_route(lambda x: t - (x - lo) ** k, lo, lo + 1.0, ("lo", "hi"))

    def test_float_and_array_agree(self):
        f = lambda x: math.expm1(3.0 * x) - 0.5  # noqa: E731
        got = root(f, 0.0, 1.0)
        assert got == pytest.approx(math.log1p(0.5) / 3.0, rel=2 * sys.float_info.epsilon)
        ref = root(lambda x: np.expm1(3.0 * x) - 0.5, np.zeros(1), np.ones(1))
        assert got == pytest.approx(float(ref[0]), rel=2 * sys.float_info.epsilon)

    def test_nan_moves_the_bracket_as_a_halving_does(self):
        def f(x):
            return x - 0.3 if x < 0.6 else math.nan

        def f_vec(x):
            return np.where(x < 0.6, x - 0.3, np.nan)

        assert root(f, 0.0, 1.0) == pytest.approx(float(root(f_vec, np.zeros(1), np.ones(1))[0]), abs=1e-16)
        # NaN everywhere inside: every step is a halving toward lo, as in the array path
        nan_inside = lambda x: -1.0 if x == 0.0 else 1.0 if x == 1.0 else math.nan  # noqa: E731
        want = root(lambda x: np.where(x == 0.0, -1.0, np.where(x == 1.0, 1.0, np.nan)), np.zeros(1), np.ones(1))
        assert root(nan_inside, 0.0, 1.0) == float(want[0]) == 2.0**-65

    @staticmethod
    def newton_evals(monkeypatch, n, h):
        """The evaluations of f each Newton solve of inv_entropy_peaked(n, h) takes."""
        evals = []

        def counting_root(f, lo, hi, f_lo=None, f_hi=None, df=None, x0=None):
            g, calls = TestRoot.counted(f)
            p = root(g, lo, hi, f_lo, f_hi, df, x0)
            evals.append(len(calls))
            return p

        monkeypatch.setattr(curves, "root", counting_root)
        inv_entropy_peaked(n, h)
        monkeypatch.undo()
        return evals

    # (n, grid) of the seven `curve` requests of perfbench's table workload at seed 1001; the inverse needs no order
    TABLE_GRIDS = ((120, 512), (9138, 2048), (2005, 1024), (20, 512), (41, 512), (304, 256), (6, 256))

    @pytest.mark.parametrize("n, grid", TABLE_GRIDS)
    def test_newton_steps_on_the_table_grids(self, monkeypatch, n, grid):
        (evals,) = self.newton_evals(monkeypatch, n, LN(n) * np.arange(grid) / (grid - 1))
        assert evals <= 11  # measured 7 to 11 over these grids and those of seeds 1002 to 1010

    @pytest.mark.parametrize("n", [2, 3, 8, 10**4, 10**6])
    def test_newton_steps_never_exceed_the_halvings(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        h = np.concatenate([LN(n) * rng.random(2000) ** rng.uniform(1.0, 30.0, 2000),  # down to about 1e-300
                            LN(n) * (1.0 - 10.0 ** -rng.uniform(0.0, 12.0, 2000)),  # up to 1e-12 below the top
                            [1e-300, 1e-30, 1e-15, 0.0, LN(n)]])
        (evals,) = self.newton_evals(monkeypatch, n, h)
        assert evals <= curves._HALVINGS
        p = inv_entropy_peaked(n, h)
        inside = (h > 0.0) & (h < LN(n))
        assert np.all(abs(entropy_peaked(n, p[inside]) - h[inside]) <= 1e-14 * LN(n))

    def test_newton_halves_where_the_step_leaves_the_bracket(self):
        f, calls = self.counted(lambda x: np.expm1(3.0 * x) - 0.5)
        # a derivative a thousand times too small sends the Newton steps out of the bracket: halvings still converge
        got = root(f, np.zeros(1), np.ones(1), df=lambda x: 3e-3 * np.exp(3.0 * x), x0=np.full(1, 0.9))
        assert len(calls) <= curves._HALVINGS
        assert float(got[0]) == pytest.approx(math.log1p(0.5) / 3.0, rel=2 * sys.float_info.epsilon)

    @pytest.mark.parametrize("n", [3, 8])
    def test_stepped_inverse_across_corners(self, n):
        for m in range(2, n):
            for gap in (1e-3, 1e-6, 1e-9):
                for h in (LN(m) - gap, LN(m) + gap):
                    p = inv_entropy_stepped(n, h)
                    assert abs(entropy_stepped(n, p) - h) <= 1e-12
                    assert (p < 1.0 / m) == (h > LN(m))
                    assert p == pytest.approx(float(inv_entropy_stepped(n, np.array([h]))[0]), abs=1e-10)


class TestAgainstMpref:
    """p* and the inflection against 50-digit bisected roots (tests/mpref.py)."""

    @pytest.mark.parametrize("n", [3, 8, 100, 10**4])
    @pytest.mark.parametrize("alpha", [0.5 + 1e-7, 0.7, 2.0, 50.0])
    def test_tangent_and_inflection(self, n, alpha):
        want_tangent, want_inflection = mpref.tangent_p(n, alpha), mpref.inflection_p(n, alpha)
        assert abs(tangent_point(n, alpha).p - want_tangent) <= 5e-13 * want_tangent
        assert abs(inflection_point(n, alpha).p - want_inflection) <= 5e-13 * want_inflection


def _bits(value):
    """A float as its exact bits, so that NaN and -0.0 compare too; anything else as it is."""
    return value.hex() if isinstance(value, float) else value


def _outcome(f, *args):
    """What f(*args) gives: its value, each float as _bits, or the text of the DomainError it raises."""
    try:
        value = f(*args)
    except DomainError as exc:
        return str(exc)
    return tuple(map(_bits, value)) if isinstance(value, tuple) else _bits(value)


class TestPreparedKernels:
    """Every step of a float solve evaluates a kernel prepared once per solve. These tests keep copies of the
    compositions the kernels replaced, through simplex._norm and curves._entropy_peaked, and ask for the same double
    at every point, and so for the same roots and the same refusals. Both sides are computed at run time, so no
    libm difference between machines can fail them."""

    NS = (3, 8, 100, 10**4, 10**6)
    # (10^4, 300) and 10^3 take _power_sum's shift; 1 +- 1e-7 is where the residual flattens to rounding
    ORDERS = (0.5 + 1e-7, 0.7, 1 - 1e-4, 1 + 1e-4, 1 - 1e-7, 1 + 1e-7, 2.0, 50.0, 300.0, 1e3)

    @staticmethod
    def norm_slope(n, p, alpha):
        """(norm, dnorm/dh) of the peaked curve at p, composed from simplex._norm."""
        q = 1.0 - (n - 1) * p
        norm, c, s = simplex._norm(n, alpha, (q, p), (1.0, n - 1))
        try:
            d = s ** (1.0 / alpha - 1.0) * ((p / c) ** (alpha - 1.0) - (q / c) ** (alpha - 1.0))
            d /= math.log(q) - math.log(p)
        except (OverflowError, ZeroDivisionError):
            d = math.inf
        return norm, simplex._finite(d, alpha)

    @classmethod
    def residual(cls, n, p, alpha, u):
        """(ln n - H(p)) * slope - (u - norm), with H from curves._entropy_peaked."""
        norm, slope = cls.norm_slope(n, p, alpha)
        return (math.log(n) - curves._entropy_peaked(n, p)) * slope - (u - norm)

    @staticmethod
    def curvature(n, p, alpha):
        """curvature_sign's formula, z = q/p."""
        z = (1.0 - (n - 1) * p) / p
        logz = math.log(z)
        a, b = alpha * logz, (1.0 - alpha) * logz
        num = ((n - 1) + (math.exp(a) if a < 709.0 else math.inf)) * (math.expm1(b) if b < 709.0 else math.inf)
        return (alpha - 1.0) + num / (((n - 1) + z) * logz)

    @staticmethod
    def ps(n):
        """p across (0, 1/n): the underflow end, tiny tails, the interior and next to 1/n."""
        return (1e-300, 1e-30, 1e-12 / n) + tuple((1.0 / n) * t for t in np.linspace(0.01, 0.99, 25).tolist()) + \
            ((1.0 / n) * (1.0 - 1e-9), (1.0 / n) * (1.0 - 1e-15))

    @classmethod
    def solve(cls, n, alpha):
        """(inflection p, tangency p) solved through the copies, each a float or a refusal's text."""
        probes = [(1.0 / n) * (1.0 - delta) for delta in curves._INFLECTION_GAPS]
        inflection = _outcome(curves._bracketed_root, lambda p: cls.curvature(n, p, alpha), 1.0 / (n * (n - 1)),
                              probes, n, alpha, "the curvature")
        if not inflection.startswith("0x"):
            return inflection, inflection
        u = norm_uniform(n, alpha)
        return inflection, _outcome(curves._bracketed_root, lambda p: cls.residual(n, p, alpha, u),
                                    float.fromhex(inflection), curves._TANGENT_PROBES, n, alpha,
                                    "the tangency residual")

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("n", NS)
    def test_kernels_give_the_same_doubles(self, n, alpha):
        u = norm_uniform(n, alpha)
        residual, norm_slope = curves._tangency(n, alpha), curves._norm_slope(n, alpha)
        curvature, entropy = curves._curvature(n, alpha), curves._peaked_entropy(n)
        for p in self.ps(n):
            want = _outcome(self.residual, n, p, alpha, u)
            assert _outcome(residual, p) == _outcome(tangent_residual, n, p, alpha) == want, p
            want = _outcome(self.norm_slope, n, p, alpha)
            assert _outcome(norm_slope, p) == want, p
            assert _outcome(dnorm_dh_peaked, n, p, alpha) == (want[1] if isinstance(want, tuple) else want), p
            assert _outcome(lambda: norm_slope(p, False)[0]) == _outcome(norm_peaked, n, p, alpha), p
            assert _bits(entropy(p)) == _bits(curves._entropy_peaked(n, p)), p
            want = _bits(self.curvature(n, p, alpha))
            assert _bits(curvature(p)) == _bits(curvature_sign(n, p, alpha)) == want, p

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("n", NS)
    def test_solves_give_the_same_roots(self, n, alpha):
        inflection, tangency = self.solve(n, alpha)
        assert _outcome(lambda: inflection_point(n, alpha).p) == inflection
        assert _outcome(lambda: tangent_point(n, alpha).p) == _outcome(solve_tangent_generic, n, alpha) == tangency

    @pytest.mark.parametrize("n", (2,) + NS)
    def test_float_inverses_give_the_same_roots(self, n):
        for h in (1e-300, 1e-30, 1e-6) + tuple(LN(n) * t for t in (0.05, 0.3, 0.7, 0.99, 1.0 - 1e-9)):
            want = root(lambda p: curves._entropy_peaked(n, p) - h, 0.0, 1.0 / n)
            assert _bits(inv_entropy_peaked(n, h)) == _bits(want), h
        for alpha in self.ORDERS:
            rising, u = (1.0 if alpha < 1.0 else -1.0), norm_uniform(n, alpha)
            for t in (1e-3, 0.3, 0.9, 0.999):
                norm = 1.0 + t * (u - 1.0)
                want = root(lambda p: rising * (norm_peaked(n, p, alpha) - norm), 0.0, 1.0 / n)
                assert _bits(bounds._peaked_p_at_norm(n, alpha, norm, 1.0 / n)) == _bits(want), (alpha, t)

    def test_refusal_at_order_1e10_is_unchanged(self, capsys):
        # the residual changes sign one ulp from the inflection point, so this refusal rests on its last bit
        n, alpha = 3, 1e10
        inflection, tangency = self.solve(n, alpha)
        assert tangency.startswith("unsupported order alpha=10000000000.0 for n=3: no sign change of the tangency")
        assert cli.main(["tangent", "--n", "3", "--alpha", "1e10"]) == 1
        assert capsys.readouterr().err == f"ent-norm: error: {tangency}\n"
