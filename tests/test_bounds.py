import math

import mpmath
import numpy as np
import pytest

import mpref
from entnorm.bounds import (
    BoundEnvelope,
    _lower_chord,
    cond_entropy_range_for_norm,
    entropy_range_for_norm,
    envelope,
    envelope_lower,
    envelope_upper,
    envelope_upper_half,
    has_upper_envelope,
    norm_uniform,
    sandwich_norm,
)
from entnorm.curves import (
    entropy_peaked,
    entropy_stepped,
    inv_entropy_peaked,
    inv_entropy_stepped,
    norm_peaked,
    norm_stepped,
    tangent_point,
)
from entnorm.simplex import DomainError, alpha_norm, make_uniform, probabilities, shannon_entropy

LN = math.log


class TestLowerEnvelope:
    def test_uniform_anchor_points(self):
        # at h = ln m the value is exactly the uniform-on-m norm
        assert envelope_lower(8, 2.0, LN(4)) == pytest.approx(0.5, abs=1e-12)
        for m in range(1, 8):
            assert envelope_lower(8, 0.7, LN(m)) == pytest.approx(
                norm_uniform(m, 0.7), rel=1e-12
            )

    def test_midpoint_mixture(self):
        # lam = 1/2 between ln 2 and ln 3: (2^-1/2 + 3^-1/2)/2
        got = envelope_lower(8, 2.0, (LN(2) + LN(3)) / 2)
        assert got == pytest.approx(0.6422285251880866, abs=1e-12)
        # brute-force two-point mixture over all uniform pairs agrees
        h = (LN(2) + LN(3)) / 2
        best = min(
            lam * norm_uniform(a, 2.0) + (1 - lam) * norm_uniform(b, 2.0)
            for a in range(1, 9)
            for b in range(1, 9)
            if LN(a) <= h <= LN(b) and a != b
            for lam in [(LN(b) - h) / (LN(b) - LN(a))]
        )
        assert got == pytest.approx(best, abs=1e-12)

    def test_endpoints(self):
        assert envelope_lower(5, 0.4, 0.0) == 1.0
        assert envelope_lower(5, 0.4, LN(5)) == pytest.approx(norm_uniform(5, 0.4), rel=1e-12)

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            envelope_lower(5, 1.0, 0.5)

    @pytest.mark.parametrize("n", [3, 8, 100, 10**4])
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 2.0])
    def test_just_below_a_vertex_matches_mpmath(self, n, alpha):
        # h just below ln m lies on the segment ending at m, not on the vertex m
        for m in sorted({2, max(2, n // 2), n}):
            for d in (1e-15, 1e-13, 1e-12, 1e-11, 1e-10):
                h = LN(m) - d
                want = mpref.envelope_lower(n, alpha, h)
                for got in (envelope_lower(n, alpha, h), envelope_lower(n, alpha, np.array([h]))[0]):
                    assert abs(got - want) <= 2e-15 * want, (m, d)

    def test_log_m_selects_segment_m(self):
        # e^(ln m) can round below m: the nudge must still lift it onto the segment that starts at m
        n = 10**6
        ms = range(2, n + 1)
        assert all(_lower_chord(n, LN(m))[0] == m for m in ms)
        h = np.array([LN(m) for m in ms])
        assert (_lower_chord(n, h)[0] == np.arange(2, n + 1)).all()

    def test_inf_order(self):
        assert envelope_lower(4, math.inf, LN(3)) == pytest.approx(1 / 3, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 2.0, 4.0])
    def test_convex_and_monotone(self, alpha):
        n = 8
        hs = np.linspace(0.0, LN(n), 1000)
        vals = np.array([envelope_lower(n, alpha, float(h)) for h in hs])
        diffs = np.diff(vals)
        if alpha < 1:
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)
        slopes = diffs / np.diff(hs)
        # slope differences within a linear piece are pure cancellation noise,
        # which scales with the value magnitude (large for small alpha)
        assert np.all(np.diff(slopes) >= -1e-12 * max(1.0, float(vals.max())))

    def test_below_stepped_curve(self):
        n, alpha = 8, 2.0
        for p in np.linspace(1.0 / n, 1.0, 400):
            h = entropy_stepped(n, float(p))
            assert envelope_lower(n, alpha, h) <= norm_stepped(n, float(p), alpha) + 1e-12


class TestUpperEnvelope:
    def test_endpoints(self):
        for n, alpha in [(4, 0.5), (4, 2.0), (9, 3.0)]:
            assert envelope_upper(n, alpha, LN(n)) == pytest.approx(norm_uniform(n, alpha), rel=1e-12)
            assert envelope_upper(n, alpha, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_tangent_branch_value(self):
        # frozen from the order-1/2 closed form; confirmed by the hull oracle
        assert envelope_upper(4, 0.5, 1.0) == pytest.approx(3.296759438967845, abs=1e-9)

    def test_unsupported_orders(self):
        with pytest.raises(DomainError):
            envelope_upper(8, 0.3, 1.0)
        with pytest.raises(DomainError):
            envelope_upper(8, 1.0, 1.0)
        with pytest.raises(DomainError):
            envelope_upper(8, math.inf, 1.0)

    def test_binary_any_order_is_curve(self):
        for alpha in (0.2, 0.45, 3.0):
            for h in np.linspace(0, LN(2), 50):
                p = inv_entropy_peaked(2, float(h))
                assert envelope_upper(2, alpha, float(h)) == pytest.approx(
                    norm_peaked(2, p, alpha), rel=1e-12
                )

    @pytest.mark.parametrize("n,alpha", [(4, 0.5), (8, 0.7), (8, 2.0), (3, 4.0)])
    def test_continuous_at_tangency(self, n, alpha):
        ts = tangent_point(n, alpha)
        left = envelope_upper(n, alpha, ts.h - 1e-12)
        right = envelope_upper(n, alpha, ts.h + 1e-12)
        assert abs(left - right) < 1e-9

    @pytest.mark.parametrize("n,alpha", [(4, 0.5), (8, 0.7), (8, 2.0), (5, 4.0)])
    def test_concave_and_monotone(self, n, alpha):
        hs = np.linspace(0.0, LN(n), 1000)
        vals = np.array([envelope_upper(n, alpha, float(h)) for h in hs])
        diffs = np.diff(vals)
        if alpha < 1:
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)
        slopes = diffs / np.diff(hs)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_dominates_peaked_curve(self):
        n, alpha = 8, 2.0
        for p in np.linspace(0.0, 1.0 / n, 400):
            h = entropy_peaked(n, float(p))
            assert envelope_upper(n, alpha, h) >= norm_peaked(n, float(p), alpha) - 1e-9


class TestHalfOrderClosedForm:
    def test_tangent_branch(self):
        assert envelope_upper_half(4, 1.2) == pytest.approx(3.66085512961858, abs=1e-12)

    def test_uniform_endpoint(self):
        for n in (2, 3, 4, 7):
            assert envelope_upper_half(n, LN(n)) == pytest.approx(n, rel=1e-12)

    def test_curve_branch_round_trip(self):
        got = envelope_upper_half(4, 0.5)
        p = inv_entropy_peaked(4, 0.5)
        assert got == pytest.approx(alpha_norm(np.array([1 - 3 * p, p, p, p]), 0.5), rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_matches_generic(self, n):
        for h in np.linspace(0.0, LN(n), 257):
            assert abs(envelope_upper_half(n, float(h)) - envelope_upper(n, 0.5, float(h))) < 1e-9


class TestEnvelope:
    def test_upper_absent_small_order(self):
        env = envelope(8, 0.3, 1.0)
        assert env.upper is None and env.lower > 0
        assert not has_upper_envelope(8, 0.3)

    def test_binary_small_order_present(self):
        env = envelope(2, 0.3, 0.5)
        assert env.upper is not None and env.lower <= env.upper

    def test_pinch_at_max_entropy(self):
        env = envelope(3, 2.0, LN(3))
        assert env.lower == pytest.approx(3 ** -0.5, rel=1e-12)
        assert env.upper == pytest.approx(3 ** -0.5, rel=1e-12)

    def test_inverted_pair_rejected(self):
        for lower, upper in ((2.0, 1.0), (1.0 + 2e-12, 1.0), (1e30 * (1 + 2e-12), 1e30)):
            with pytest.raises(DomainError, match="envelope inverted"):
                BoundEnvelope(lower=lower, upper=upper)

    @pytest.mark.parametrize("alpha", [0.001, 0.002, 0.005, 0.3, 2.0])
    def test_binary_envelopes_meet_at_ln_2(self, alpha):
        # the upper end was the peaked power sum at p = 1/2: 8.034690221294871e+59 under 8.034690221294951e+59 at 0.005
        env = envelope(2, alpha, LN(2))
        assert env.lower == env.upper == norm_uniform(2, alpha)

    def test_rounding_above_a_large_upper_is_no_inversion(self):
        # the slack is 1e-12 of max(1, upper): 1e-12 absolute is less than one ulp of any norm >= 8192
        assert BoundEnvelope(lower=1e30 * (1 + 5e-13), upper=1e30).lower > 1e30
        assert BoundEnvelope(lower=1.0 + 5e-13, upper=1.0).upper == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0, 4.0])
    def test_curve_samples_inside(self, alpha):
        # both boundary curves lie between the envelopes
        n = 8
        for p in np.linspace(0, 1.0 / n, 200):
            h = entropy_peaked(n, float(p))
            v = norm_peaked(n, float(p), alpha)
            env = envelope(n, alpha, h)
            assert env.lower - 1e-9 <= v <= env.upper + 1e-9
        for p in np.linspace(1.0 / n, 1.0, 200):
            h = entropy_stepped(n, float(p))
            w = norm_stepped(n, float(p), alpha)
            env = envelope(n, alpha, h)
            assert env.lower - 1e-9 <= w <= env.upper + 1e-9


class TestVectorizedTwins:
    # the Monte Carlo verifier and the curve export call these functions on
    # arrays, so an array call must match the same function applied to each
    # element as a float
    @pytest.mark.parametrize("n,alpha", [(2, 0.3), (3, 0.5), (8, 0.7), (8, 2.0), (5, 4.0), (100, 50.0)])
    def test_envelopes_match_scalar(self, n, alpha):
        hs = np.linspace(0.0, LN(n), 257)
        lo_vec = envelope_lower(n, alpha, hs)
        assert np.allclose(lo_vec, [envelope_lower(n, alpha, float(h)) for h in hs], atol=1e-12, rtol=1e-12)
        if has_upper_envelope(n, alpha):
            up_vec = envelope_upper(n, alpha, hs)
            scalar = [envelope_upper(n, alpha, float(h)) for h in hs]
            assert np.allclose(up_vec, scalar, atol=1e-10, rtol=1e-12)
            assert np.allclose(up_vec, scalar, atol=0.0, rtol=1e-14)  # see test_curve_norms_match_scalar

    @pytest.mark.parametrize("n,alpha", [(2, 0.3), (3, 0.5), (3, 0.51), (8, 0.7), (8, 2.0), (5, 4.0), (100, 50.0)])
    def test_curve_norms_match_scalar(self, n, alpha):
        # a float inversion takes false-position steps, an array one fixed halvings: both land within
        # the noise of f, which moves a norm along either curve by less than 1e-14 of itself
        hs = np.linspace(0.0, LN(n), 257)
        scalar = [(norm_peaked(n, inv_entropy_peaked(n, float(h)), alpha),
                   norm_stepped(n, inv_entropy_stepped(n, float(h)), alpha)) for h in hs]
        vec = np.stack([norm_peaked(n, inv_entropy_peaked(n, hs), alpha),
                        norm_stepped(n, inv_entropy_stepped(n, hs), alpha)], axis=1)
        assert np.allclose(vec, scalar, atol=0.0, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_stepped_inverse_matches_scalar(self, n):
        hs = np.linspace(1e-6, LN(n) - 1e-6, 101)
        ps = inv_entropy_stepped(n, hs)
        assert np.allclose(ps, [inv_entropy_stepped(n, float(h)) for h in hs], atol=1e-10)
        want = [norm_stepped(n, float(p), 2.0) for p in ps]
        assert np.allclose(norm_stepped(n, ps, 2.0), want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_peaked_inverse_matches_scalar(self, n):
        hs = np.linspace(0.0, LN(n), 101)
        ps = inv_entropy_peaked(n, hs)
        assert np.allclose(ps, [inv_entropy_peaked(n, float(h)) for h in hs], atol=1e-10)
        assert np.allclose(entropy_peaked(n, ps), [entropy_peaked(n, float(p)) for p in ps], atol=1e-12)
        assert np.allclose(norm_peaked(n, ps, 0.5), [norm_peaked(n, float(p), 0.5) for p in ps], atol=1e-12)


def _mp_envelope_upper_on_curve(n, alpha, h):
    """The peaked-curve norm at entropy h, with p bisected at 50 digits (tests/mpref.py)."""
    with mpmath.workdps(mpref.DPS):
        n, alpha, h = mpmath.mpf(n), mpmath.mpf(alpha), mpmath.mpf(h)
        p = mpref.bisect(lambda p: mpref.entropy_peaked(n, p) - h, mpmath.mpf("1e-400"), 1 / n)
        return mpref.norm_peaked(n, p, alpha)


class TestUpperEnvelopeSmallEntropy:
    # at small h the curve point p is tiny and p^alpha large for small
    # alpha, so the inversion must resolve p relative to itself
    @pytest.mark.parametrize("n,alpha", [(2, 0.3), (3, 0.5), (8, 0.55)])
    @pytest.mark.parametrize("h", [1e-11, 1e-9, 1e-6])
    def test_matches_mpmath(self, n, alpha, h):
        want = float(_mp_envelope_upper_on_curve(n, alpha, h))
        assert abs(envelope_upper(n, alpha, h) - want) <= 1e-9
        assert abs(float(envelope_upper(n, alpha, np.array([h, 0.5 * LN(n)]))[0]) - want) <= 1e-9

    def test_matches_mpmath_at_1e_15(self):
        # -q ln q is written -q log1p(-(n-1)p): q = 1 - (n-1)p rounds to 1 at p = 2.6e-17, which lost 2.6% of h
        want = float(_mp_envelope_upper_on_curve(2, 0.3, 1e-15))
        assert abs(envelope_upper(2, 0.3, 1e-15) - want) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the float solve in p stops at its floor, a width set by the bracket [0, 1/2], and returns "
        "p = 3.6e-31 for 1.3e-32: the norm ends 1.5e-9 relative off. A solve in ln p would resolve p "
        "(ROADMAP item 2, step 1)",
    )
    def test_matches_mpmath_at_1e_30(self):
        want = float(_mp_envelope_upper_on_curve(2, 0.3, 1e-30))
        assert float(envelope_upper(2, 0.3, np.array([1e-30]))[0]) == pytest.approx(want, rel=1e-14)  # the array solve
        assert abs(envelope_upper(2, 0.3, 1e-30) - want) <= 1e-9 * want


class TestSandwich:
    def test_pinches(self):
        for alpha in (0.5, 2.0):
            lo, hi = sandwich_norm(make_uniform(5), alpha)
            u = norm_uniform(5, alpha)
            assert lo == pytest.approx(u, rel=1e-9)
            assert hi == pytest.approx(u, rel=1e-9)
            lo, hi = sandwich_norm(np.array([1.0, 0.0, 0.0]), alpha)
            assert lo == pytest.approx(1.0, abs=1e-12)
            assert hi == pytest.approx(1.0, abs=1e-12)

    def test_one_symbol_points(self):
        assert sandwich_norm([1.0], 2.0) == (1.0, 1.0)
        lo, hi = sandwich_norm(np.ones((3, 2, 1)), 0.5)
        assert lo.shape == hi.shape == (3, 2) and (lo == 1.0).all() and (hi == 1.0).all()

    def test_strict_for_generic_point(self):
        pv = np.array([0.5, 0.3, 0.2])
        lo, hi = sandwich_norm(pv, 2.0)
        x = alpha_norm(pv, 2.0)
        assert lo < x < hi

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 2.0, 4.0, math.inf])
    def test_monte_carlo(self, alpha):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            raw = rng.standard_exponential(n)
            pv = probabilities(raw / raw.sum(), 1, "values")
            lo, hi = sandwich_norm(pv, alpha)
            x = alpha_norm(pv, alpha)
            assert lo - 1e-9 <= x <= hi + 1e-9


class TestEntropyRangeForNorm:
    def test_pinches(self):
        n, alpha = 5, 2.0
        u = norm_uniform(n, alpha)
        assert entropy_range_for_norm(n, alpha, u) == pytest.approx((LN(n), LN(n)), abs=1e-7)
        assert entropy_range_for_norm(n, alpha, 1.0) == pytest.approx((0.0, 0.0), abs=1e-7)

    def test_orientation(self):
        # below order 1 the peaked curve gives the lower entropy end
        lo, hi = entropy_range_for_norm(3, 0.5, 1.7)
        p = inv_entropy_peaked(3, lo)
        assert norm_peaked(3, p, 0.5) == pytest.approx(1.7, rel=1e-9)
        assert lo <= hi

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            entropy_range_for_norm(3, 2.0, 0.4)  # below 3^(-1/2)
        with pytest.raises(DomainError):
            entropy_range_for_norm(3, 0.5, 3.5)  # above 3

    def test_grid_oracle_containment(self):
        # every simplex grid point with the target norm has entropy inside the range
        n, alpha, target = 3, 2.0, 0.8
        lo, hi = entropy_range_for_norm(n, alpha, target)
        steps = 240
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                a, b = i / steps, j / steps
                pv = probabilities((a, b, 1.0 - a - b), 1, "values")
                x = alpha_norm(pv, alpha)
                if abs(x - target) < 1e-3:
                    h = shannon_entropy(pv)
                    got = entropy_range_for_norm(n, alpha, x)
                    assert got[0] - 1e-6 <= h <= got[1] + 1e-6


class TestCondEntropyRangeForNorm:
    def test_pinches(self):
        n, alpha = 6, 2.0
        u = norm_uniform(n, alpha)
        lo, hi = cond_entropy_range_for_norm(n, alpha, u)
        assert (lo, hi) == pytest.approx((LN(n), LN(n)), abs=1e-7)
        lo, hi = cond_entropy_range_for_norm(n, alpha, 1.0)
        assert (lo, hi) == pytest.approx((0.0, 0.0), abs=1e-7)

    def test_round_trip_with_envelopes(self):
        n, alpha = 8, 0.5
        lo, hi = cond_entropy_range_for_norm(n, alpha, 4.0)
        assert envelope_upper(n, alpha, lo) == pytest.approx(4.0, abs=1e-8)
        assert envelope_lower(n, alpha, hi) == pytest.approx(4.0, abs=1e-8)
        assert lo < hi

    def test_orientation_above_one(self):
        n, alpha = 8, 2.0
        lo, hi = cond_entropy_range_for_norm(n, alpha, 0.6)
        assert envelope_lower(n, alpha, lo) == pytest.approx(0.6, abs=1e-8)
        assert envelope_upper(n, alpha, hi) == pytest.approx(0.6, abs=1e-8)

    @pytest.mark.parametrize("n,alpha", [(2, 0.3), (3, 0.5), (8, 0.9999), (8, 1.0001), (50, 2.0), (1000, 7.0)])
    def test_round_trip_across_pieces(self, n, alpha):
        # norms on the curve and on the segment of the upper envelope, and on
        # every chord of the lower one
        u = norm_uniform(n, alpha)
        for t in np.linspace(0.0, 1.0, 41)[1:]:
            norm = 1.0 + t * (u - 1.0)
            lo, hi = cond_entropy_range_for_norm(n, alpha, norm)
            h_up, h_lo = (lo, hi) if alpha < 1.0 else (hi, lo)
            assert envelope_upper(n, alpha, h_up) == pytest.approx(norm, abs=1e-11)
            assert envelope_lower(n, alpha, h_lo) == pytest.approx(norm, abs=1e-11)

    def test_unsupported_order(self):
        with pytest.raises(DomainError):
            cond_entropy_range_for_norm(8, 0.3, 2.0)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            cond_entropy_range_for_norm(8, 2.0, 1.5)
