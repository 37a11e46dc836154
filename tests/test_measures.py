import math

import mpmath
import numpy as np
import pytest

import mpref
from entnorm.bounds import envelope_upper_half, norm_uniform
from entnorm.measures import (
    Channel,
    JointDist,
    arimoto_mutual_uniform,
    cond_renyi,
    cond_rnorm,
    cond_shannon,
    e0_range_for_mutual,
    expected_alpha_norm,
    gallager_e0_uniform,
    joint_from_channel_uniform,
    mutual_range_for_mutual,
    renyi_map,
    renyi_range_for_entropy,
    rnorm_range_for_entropy,
)
from entnorm.oracle import witness_max, witness_min
from entnorm.simplex import DomainError, make_stepped, make_uniform

LN = math.log


def _pv(*vals):
    return np.array(vals)


def random_joint_arrays(rng, n, y):
    py = rng.standard_exponential(y)
    rows = rng.standard_exponential((y, n))
    return JointDist(py=py / py.sum(), rows=rows / rows.sum(axis=1, keepdims=True))


def random_channel(rng, n_in, n_out):
    t = rng.standard_exponential((n_in, n_out))
    return Channel(t / t.sum(axis=1, keepdims=True))


def edge_rows(rng, rows, cols):
    """Random rows on the simplex with exact zeros and masses near 1e-300."""
    t = rng.standard_exponential((rows, cols))
    t[rng.random((rows, cols)) < 0.25] = 0.0
    tiny = rng.random((rows, cols)) < 0.2
    t[tiny] = 1e-300 * rng.uniform(0.5, 2.0, tiny.sum())
    t[np.arange(rows), rng.integers(cols, size=rows)] = 1.0 + rng.standard_exponential(rows)
    return t / t.sum(axis=1, keepdims=True)


# the two-row joint sitting exactly on the lower boundary between ln 2 and ln 3
WITNESS = JointDist(
    py=_pv(0.5, 0.5), rows=(make_stepped(3, 0.5), make_stepped(3, 1 / 3))
)


class TestJointTypes:
    def test_row_size_mismatch(self):
        with pytest.raises(DomainError):
            JointDist(py=_pv(0.5, 0.5), rows=(_pv(1.0, 0.0), _pv(0.5, 0.25, 0.25)))

    def test_row_count_mismatch(self):
        with pytest.raises(DomainError):
            JointDist(py=_pv(0.5, 0.5), rows=(_pv(1.0, 0.0),))

    def test_channel_mismatch(self):
        with pytest.raises(DomainError):
            Channel((_pv(1.0, 0.0), _pv(0.5, 0.25, 0.25)))

    @pytest.mark.parametrize("py, rows, where", [(["1"], [[1.0]], "field 'py'"),
                                                 ([1.0], [[10**400, 0]], "field 'rows', row 0")])
    def test_entries_must_be_numbers_that_fit_a_double(self, py, rows, where):
        with pytest.raises(DomainError, match=f"{where}: entries must be numbers"):
            JointDist(py=py, rows=rows)


class TestCondShannon:
    def test_point_mass_rows(self):
        j = JointDist(py=_pv(0.3, 0.7), rows=(_pv(1.0, 0.0, 0.0), _pv(0.0, 0.0, 1.0)))
        assert cond_shannon(j) == 0.0

    def test_uniform_rows(self):
        j = JointDist(py=_pv(0.2, 0.8), rows=(make_uniform(4), make_uniform(4)))
        assert cond_shannon(j) == pytest.approx(LN(4), abs=1e-12)

    def test_witness_value(self):
        assert cond_shannon(WITNESS) == pytest.approx(0.8958797346140275, abs=1e-12)


class TestExpectedNorm:
    def test_uniform_rows(self):
        j = JointDist(py=_pv(0.2, 0.8), rows=(make_uniform(4), make_uniform(4)))
        assert expected_alpha_norm(j, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_point_mass_rows(self):
        j = JointDist(py=_pv(0.3, 0.7), rows=(_pv(1.0, 0.0), _pv(0.0, 1.0)))
        assert expected_alpha_norm(j, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_witness_hits_lower_envelope(self):
        assert expected_alpha_norm(WITNESS, 2.0) == pytest.approx(0.6422285251880866, abs=1e-12)


class TestCondRenyi:
    def test_deterministic_rows(self):
        j = JointDist(py=_pv(1.0,), rows=(_pv(0.0, 1.0, 0.0),))
        for alpha in (0.5, 1.0, 2.0):
            assert cond_renyi(j, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rows_all_orders(self):
        j = JointDist(py=_pv(0.4, 0.6), rows=(make_uniform(5), make_uniform(5)))
        for alpha in (0.3, 0.9, 1.0, 2.0, 8.0):
            assert cond_renyi(j, alpha) == pytest.approx(LN(5), rel=1e-12)

    def test_continuity_at_order_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            j = random_joint_arrays(rng, 5, 3)
            h1 = cond_shannon(j)
            assert cond_renyi(j, 1.0 + 1e-6) == pytest.approx(h1, abs=1e-4)
            assert cond_renyi(j, 1.0 - 1e-6) == pytest.approx(h1, abs=1e-4)

    def test_two_evaluation_routes_agree(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            j = random_joint_arrays(rng, 6, 4)
            for alpha in (0.5, 2.0, 5.0):
                direct = cond_renyi(j, alpha)
                mapped = renyi_map(alpha, expected_alpha_norm(j, alpha))
                assert direct == pytest.approx(mapped, abs=1e-12)


class TestCondRnorm:
    def test_deterministic_rows(self):
        j = JointDist(py=_pv(1.0,), rows=(_pv(1.0, 0.0),))
        assert cond_rnorm(j, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rows_closed_form(self):
        j = JointDist(py=_pv(1.0,), rows=(make_uniform(7),))
        assert cond_rnorm(j, 2.0) == pytest.approx(2 * (1 - 7 ** -0.5), rel=1e-12)

    def test_range_check(self):
        rng = np.random.default_rng(31)
        cap = 2 * (1 - 9 ** -0.5)
        for _ in range(50):
            j = random_joint_arrays(rng, 9, 4)
            assert 0.0 <= cond_rnorm(j, 2.0) <= cap

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            cond_rnorm(WITNESS, 1.0)


class TestChannelOps:
    def test_identity_channel(self):
        ch = Channel(tuple(_pv(*[1.0 if j == i else 0.0 for j in range(4)]) for i in range(4)))
        j = joint_from_channel_uniform(ch)
        assert cond_shannon(j) == 0.0
        assert arimoto_mutual_uniform(ch, 1.0) == pytest.approx(LN(4), abs=1e-12)
        assert gallager_e0_uniform(ch, 1.0) == pytest.approx(LN(4), abs=1e-12)

    def test_constant_channel(self):
        ch = Channel(tuple(_pv(0.3, 0.2, 0.5) for _ in range(4)))
        j = joint_from_channel_uniform(ch)
        assert cond_shannon(j) == pytest.approx(LN(4), abs=1e-12)
        assert arimoto_mutual_uniform(ch, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_posterior(self):
        ch = Channel((_pv(0.9, 0.1), _pv(0.1, 0.9)))
        j = joint_from_channel_uniform(ch)
        # posterior entropy equals the crossover's binary entropy
        assert cond_shannon(j) == pytest.approx(0.3250829733914482, abs=1e-12)

    def test_zero_probability_outputs_dropped(self):
        ch = Channel((_pv(0.5, 0.5, 0.0), _pv(0.25, 0.75, 0.0)))
        j = joint_from_channel_uniform(ch)
        assert j.py.shape == (2,)

    def test_mutual_matches_double_sum(self):
        # independent oracle: I = sum_xy P(x)P(y|x) ln(P(y|x)/P(y))
        rng = np.random.default_rng(37)
        for _ in range(25):
            ch = random_channel(rng, 4, 5)
            px = 1.0 / 4
            py = [math.fsum(px * row[y] for row in ch.transitions) for y in range(5)]
            mi = math.fsum(
                px * row[y] * LN(row[y] / py[y])
                for row in ch.transitions
                for y in range(5)
                if row[y] > 0
            )
            assert arimoto_mutual_uniform(ch, 1.0) == pytest.approx(mi, abs=1e-10)

    def test_e0_zero_at_rho_zero(self):
        rng = np.random.default_rng(41)
        ch = random_channel(rng, 3, 4)
        assert gallager_e0_uniform(ch, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_e0_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            ch = random_channel(rng, 5, 3)
            for rho in (-0.5, -0.1, 0.25, 1.0, 2.0):
                e0 = gallager_e0_uniform(ch, rho)
                assert e0 == pytest.approx(rho * arimoto_mutual_uniform(ch, 1 / (1 + rho)), abs=1e-10)

    def test_rho_domain(self):
        rng = np.random.default_rng(47)
        ch = random_channel(rng, 3, 3)
        with pytest.raises(DomainError):
            gallager_e0_uniform(ch, -1.0)


class TestRenyiRange:
    def test_pinches(self):
        for alpha in (0.5, 2.0):
            lo, hi = renyi_range_for_entropy(16, alpha, LN(16))
            assert (lo, hi) == pytest.approx((LN(16), LN(16)), rel=1e-9)
            lo, hi = renyi_range_for_entropy(16, alpha, 0.0)
            assert (lo, hi) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_upper_absent_small_order(self):
        lo, hi = renyi_range_for_entropy(8, 0.3, 1.0)
        assert hi is None and lo > 0

    def test_ordered(self):
        lo, hi = renyi_range_for_entropy(16, 2.0, 1.5)
        assert lo <= hi

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            j = random_joint_arrays(rng, 8, 5)
            h = cond_shannon(j)
            for alpha in (0.3, 0.5, 0.8, 2.0, 6.0):
                lo, hi = renyi_range_for_entropy(8, alpha, h)
                val = cond_renyi(j, alpha)
                assert val >= lo - 1e-9
                if hi is not None:
                    assert val <= hi + 1e-9


class TestRnormRange:
    def test_pinches(self):
        r = 2.0
        lo, hi = rnorm_range_for_entropy(10, r, 0.0)
        assert (lo, hi) == pytest.approx((0.0, 0.0), abs=1e-9)
        lo, hi = rnorm_range_for_entropy(10, r, LN(10))
        cap = (r / (r - 1)) * (1 - norm_uniform(10, r))
        assert (lo, hi) == pytest.approx((cap, cap), rel=1e-9)

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            j = random_joint_arrays(rng, 10, 4)
            h = cond_shannon(j)
            for r in (0.3, 0.6, 2.0, 4.0):
                lo, hi = rnorm_range_for_entropy(10, r, h)
                val = cond_rnorm(j, r)
                assert val >= lo - 1e-9
                if hi is not None:
                    assert val <= hi + 1e-9


class TestMutualRange:
    def test_pinches(self):
        for alpha in (0.5, 2.0):
            lo, hi = mutual_range_for_mutual(9, alpha, LN(9))
            assert (lo, hi) == pytest.approx((LN(9), LN(9)), rel=1e-9)
            lo, hi = mutual_range_for_mutual(9, alpha, 0.0)
            assert (lo, hi) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_lower_absent_small_order(self):
        lo, hi = mutual_range_for_mutual(9, 0.3, 1.0)
        assert lo is None and hi is not None

    def test_ends_lie_in_zero_to_ln_n(self):
        # ln n - r rounded below 0: (2, 0.05) at i = 1e-15 gave -1.1e-16, (100, 0.99) at i = 0 gave -3.5e-14
        assert mutual_range_for_mutual(2, 0.05, 1e-15)[0] == 0.0
        assert mutual_range_for_mutual(100, 0.99, 0.0) == (0.0, 0.0)
        assert e0_range_for_mutual(2, 19.0, 1e-15)[0] == 0.0
        for n in (2, 3, 5, 8, 100, 10**4, 10**6):
            for alpha in (0.005, 0.05, 0.3, 0.5, 0.7, 0.99, 1.01, 2.0, 10.0, 50.0):
                if (1.0 / alpha - 1.0) * LN(n) > 709.0:  # ||u_n||_alpha beyond doubles: refused
                    continue
                for i in (0.0, 1e-15, 1e-9, 0.3 * LN(n), 0.7 * LN(n), LN(n) - 1e-12, LN(n)):
                    for end in mutual_range_for_mutual(n, alpha, i):
                        assert end is None or 0.0 <= end <= LN(n), (n, alpha, i)

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            ch = random_channel(rng, 9, 6)
            i1 = max(arimoto_mutual_uniform(ch, 1.0), 0.0)
            for alpha in (0.5, 0.8, 2.0):
                lo, hi = mutual_range_for_mutual(9, alpha, i1)
                val = arimoto_mutual_uniform(ch, alpha)
                assert lo - 1e-9 <= val <= hi + 1e-9


class TestE0Range:
    def test_rho_zero(self):
        assert e0_range_for_mutual(5, 0.0, 0.7) == (0.0, 0.0)

    def test_pinch_at_full_mutual(self):
        for rho in (-0.5, 0.25, 1.0):
            lo, hi = e0_range_for_mutual(5, rho, LN(5))
            assert lo == pytest.approx(rho * LN(5), rel=1e-9, abs=1e-12)
            assert hi == pytest.approx(rho * LN(5), rel=1e-9, abs=1e-12)

    def test_cutoff_rate_lower_bound_closed_form(self):
        n, i = 5, 1.2
        lo, _ = e0_range_for_mutual(n, 1.0, i)
        assert lo == pytest.approx(LN(n) - LN(envelope_upper_half(n, LN(n) - i)), abs=1e-10)

    def test_lower_absent_above_one(self):
        lo, hi = e0_range_for_mutual(5, 2.0, 1.0)
        assert lo is None and hi is not None

    def test_ordered_when_both_exist(self):
        for rho in (-0.9, -0.5, 0.25, 1.0):
            for i in (0.2, 0.8, 1.4):
                lo, hi = e0_range_for_mutual(5, rho, i)
                assert lo <= hi + 1e-12

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(67)
        for _ in range(150):
            ch = random_channel(rng, 5, 6)
            i1 = min(max(arimoto_mutual_uniform(ch, 1.0), 0.0), LN(5))
            for rho in (-0.5, 0.25, 1.0, 2.0):
                lo, hi = e0_range_for_mutual(5, rho, i1)
                e0 = gallager_e0_uniform(ch, rho)
                assert e0 <= hi + 1e-9
                if lo is not None:
                    assert e0 >= lo - 1e-9

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            e0_range_for_mutual(5, -1.0, 0.5)


def _shift_channel(joint):
    """The channel T[x, (j, s)] = w_j r_j[(x - s) mod n], one output per row j and shift s.

    Its rows sum to the weights' sum, 1. Under uniform input the posterior
    at output (j, s) is r_j shifted by s, with weight w_j, so the channel
    carries the joint's conditional entropy and expected norms.
    """
    x = np.arange(joint.n)
    return Channel(np.stack([w * r[(x - s) % joint.n] for w, r in zip(joint.py, joint.rows) for s in x], axis=1))


class TestE0RangeIsTight:
    """The joint witnesses, made channels by cyclic shifts, attain both ends of the E0 and mutual ranges."""

    def test_witness_channels_attain_the_ends(self):
        rng = np.random.default_rng(19)
        lower_ends = 0
        for _ in range(200):
            n = int(rng.choice([2, 3, 4, 5, 8, 13]))
            rho, i = float(rng.uniform(-0.95, 4.0)), float(rng.uniform(0.01, 0.99)) * LN(n)
            alpha = 1.0 / (1.0 + rho)
            e0_lo, e0_hi = e0_range_for_mutual(n, rho, i)
            m_lo, m_hi = mutual_range_for_mutual(n, alpha, i)
            # the least norm gives the largest Renyi entropy above order 1 and the least below it
            sides = [(witness_min(n, LN(n) - i), e0_hi, m_hi if alpha < 1.0 else m_lo)]
            if e0_lo is not None:
                lower_ends += 1
                sides.append((witness_max(n, alpha, LN(n) - i), e0_lo, m_lo if alpha < 1.0 else m_hi))
            for joint, e0_end, mutual_end in sides:
                ch = _shift_channel(joint)
                assert LN(n) - cond_shannon(joint_from_channel_uniform(ch)) == pytest.approx(i, abs=1e-9)
                assert gallager_e0_uniform(ch, rho) == pytest.approx(e0_end, rel=1e-9, abs=1e-9), (n, rho, i)
                assert arimoto_mutual_uniform(ch, alpha) == pytest.approx(mutual_end, rel=1e-9, abs=1e-9)
        assert 0 < lower_ends < 200  # rho > 1 at n >= 3 leaves no lower end


class TestHighPrecisionReference:
    """Measures of seeded joints and channels against 50-digit mpmath, within 1e-13 relative."""

    ORDERS = (0.5, 0.9, 2.0, 40.0, math.inf)

    @staticmethod
    def ref_renyi(py, rows, alpha):
        e = mpmath.fsum(w * mpref.norm([(1, v) for v in r], alpha) for w, r in zip(py, rows))
        scale = -1 if alpha == math.inf else mpmath.mpf(alpha) / (1 - mpmath.mpf(alpha))
        return e, scale * mpmath.log(e)

    @staticmethod
    def mp(array):
        return [[mpmath.mpf(float(v)) for v in row] for row in np.atleast_2d(array)]

    def test_joint_measures(self):
        rng = np.random.default_rng(71)
        with mpmath.workdps(50):
            for n, y in ((2, 3), (5, 4), (9, 6), (16, 2)):
                for _ in range(4):
                    j = JointDist(py=edge_rows(rng, 1, y)[0], rows=edge_rows(rng, y, n))
                    py, rows = self.mp(j.py)[0], self.mp(j.rows)
                    h = mpmath.fsum(w * mpref.entropy(r) for w, r in zip(py, rows))
                    assert cond_shannon(j) == pytest.approx(float(h), rel=1e-13)
                    assert cond_renyi(j, 1.0) == pytest.approx(float(h), rel=1e-13)
                    for alpha in self.ORDERS:
                        e, renyi = self.ref_renyi(py, rows, alpha)
                        assert expected_alpha_norm(j, alpha) == pytest.approx(float(e), rel=1e-13)
                        assert cond_renyi(j, alpha) == pytest.approx(float(renyi), rel=1e-13)

    def test_channel_posterior_and_e0(self):
        rng = np.random.default_rng(73)
        with mpmath.workdps(50):
            for n_in, n_out in ((2, 3), (4, 5), (8, 8), (3, 16)):
                for _ in range(4):
                    # column 0 is an output no input reaches
                    ch = Channel(np.hstack([np.zeros((n_in, 1)), edge_rows(rng, n_in, n_out - 1)]))
                    cols = list(zip(*self.mp(ch.transitions)))
                    sums = [mpmath.fsum(c) for c in cols]
                    kept = [k for k, s in enumerate(sums) if s > 0]
                    total = mpmath.fsum(sums)
                    j = joint_from_channel_uniform(ch)
                    assert j.py.shape == (len(kept),) and len(kept) < n_out
                    for y, k in enumerate(kept):
                        assert j.py[y] == pytest.approx(float(sums[k] / total), rel=1e-13)
                        want = [float(v / sums[k]) for v in cols[k]]
                        assert j.rows[y].tolist() == pytest.approx(want, rel=1e-13, abs=0.0)
                    for rho in (-0.5, 0.25, 1.0, 2.0, 200.0, 700.0, 999.0):
                        beta = 1 / (1 + mpmath.mpf(rho))
                        inner = [mpmath.fsum(v**beta for v in c if v > 0) / n_in for c in cols]
                        e0 = -mpmath.log(mpmath.fsum(v ** (1 + mpmath.mpf(rho)) for v in inner))
                        assert gallager_e0_uniform(ch, rho) == pytest.approx(float(e0), rel=1e-13)
