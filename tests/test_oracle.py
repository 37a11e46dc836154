import math
import tracemalloc

import numpy as np
import pytest

from entnorm import oracle
from entnorm.bounds import (
    cond_entropy_range_for_norm,
    envelope_lower,
    envelope_upper,
    has_upper_envelope,
)
from entnorm.measures import cond_shannon, expected_alpha_norm
from entnorm.oracle import (
    brute_force_lower,
    brute_force_upper,
    random_joint,
    sample_joint_batch,
    verify_envelope,
    witness_max,
    witness_min,
)
from entnorm.simplex import DomainError, alpha_norm, shannon_entropy

LN = math.log


class TestWitnessMin:
    def test_anchor_entropy(self):
        j = witness_min(8, LN(3))
        assert cond_shannon(j) == pytest.approx(LN(3), abs=1e-12)
        assert expected_alpha_norm(j, 2.0) == pytest.approx(3 ** -0.5, rel=1e-12)

    def test_midpoint(self):
        h = (LN(2) + LN(3)) / 2
        j = witness_min(8, h)
        assert cond_shannon(j) == pytest.approx(h, abs=1e-12)
        assert expected_alpha_norm(j, 2.0) == pytest.approx(0.6422285251880866, abs=1e-12)

    def test_extremes(self):
        assert cond_shannon(witness_min(5, 0.0)) == 0.0
        j = witness_min(5, LN(5))
        assert j.py.shape == (1,)  # degenerate single-outcome joint
        assert cond_shannon(j) == pytest.approx(LN(5), abs=1e-12)

    def test_achieves_lower_for_every_order(self):
        h = 1.3
        j = witness_min(6, h)
        for alpha in (0.3, 0.5, 0.9, 2.0, 7.0):
            assert expected_alpha_norm(j, alpha) == pytest.approx(
                envelope_lower(6, alpha, cond_shannon(j)), rel=1e-12
            )


class TestWitnessMax:
    def test_curve_branch_single_row(self):
        j = witness_max(5, 2.0, 0.4)
        assert j.py.shape == (1,)
        assert cond_shannon(j) == pytest.approx(0.4, abs=1e-9)
        assert expected_alpha_norm(j, 2.0) == pytest.approx(envelope_upper(5, 2.0, 0.4), abs=1e-9)

    def test_tangent_branch_mixture(self):
        j = witness_max(4, 0.5, 1.2)
        assert j.py.shape == (2,)
        assert cond_shannon(j) == pytest.approx(1.2, abs=1e-12)
        assert expected_alpha_norm(j, 0.5) == pytest.approx(3.66085512961858, abs=1e-9)

    def test_max_entropy_is_uniform_row(self):
        j = witness_max(4, 2.0, LN(4))
        assert cond_shannon(j) == pytest.approx(LN(4), abs=1e-12)
        assert expected_alpha_norm(j, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(DomainError):
            witness_max(5, 0.3, 0.7)

    def test_achievement_sweep(self):
        rng = np.random.default_rng(101)
        orders = [0.5, 0.6, 0.75, 0.9, 1.5, 2.0, 4.0, 8.0]
        for _ in range(100):
            n = int(rng.integers(2, 13))
            alpha = float(rng.choice(orders))
            h = float(rng.uniform(0.0, LN(n)))
            jmin = witness_min(n, h)
            assert cond_shannon(jmin) == pytest.approx(h, abs=1e-9)
            assert abs(expected_alpha_norm(jmin, alpha) - envelope_lower(n, alpha, h)) < 1e-9
            jmax = witness_max(n, alpha, h)
            assert cond_shannon(jmax) == pytest.approx(h, abs=1e-9)
            assert abs(expected_alpha_norm(jmax, alpha) - envelope_upper(n, alpha, h)) < 1e-9


class TestRandomJoint:
    def test_deterministic(self):
        a, b, c = (random_joint(3, 4, seed=s) for s in (9, 9, 10))
        assert np.array_equal(a.py, b.py) and np.array_equal(a.rows, b.rows)
        assert not (np.array_equal(a.py, c.py) and np.array_equal(a.rows, c.rows))

    def test_single_outcome(self):
        j = random_joint(5, 1, seed=0)
        assert j.py.tolist() == [1.0]
        assert j.rows.shape == (1, 5)

    def test_coordinates_uniform_on_average(self):
        _, rows = sample_joint_batch(3, 1, 10000, seed=4)
        means = rows[:, 0, :].mean(axis=0)
        assert np.allclose(means, 1 / 3, atol=0.01)

    def test_batch_chunks_differ(self):
        a = sample_joint_batch(3, 2, 10, seed=4, chunk_index=0)
        b = sample_joint_batch(3, 2, 10, seed=4, chunk_index=1)
        assert not np.allclose(a[1], b[1])

    def test_domain(self):
        with pytest.raises(DomainError):
            random_joint(1, 4, seed=0)
        with pytest.raises(DomainError):
            random_joint(3, 0, seed=0)


class TestVerifyEnvelope:
    def test_clean_two_sided(self):
        rep = verify_envelope(8, 2.0, 30000, seed=42)
        assert rep.violations_lower == 0
        assert rep.violations_upper == 0
        assert rep.seed == 42 and rep.samples == 30000

    def test_upper_skipped_small_order(self):
        rep = verify_envelope(8, 0.3, 30000, seed=42)
        assert not has_upper_envelope(8, 0.3)
        assert rep.violations_lower == 0 and rep.violations_upper == 0

    def test_binary_small_order_two_sided(self):
        rep = verify_envelope(2, 0.3, 30000, seed=42, y_size=2)
        assert rep.violations_lower == 0 and rep.violations_upper == 0

    def test_deterministic_in_seed(self):
        assert verify_envelope(4, 2.0, 5000, seed=7) == verify_envelope(4, 2.0, 5000, seed=7)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            verify_envelope(4, 2.0, 0, seed=7)

    def test_memory_does_not_grow_with_the_chunk(self):
        # two full chunks of 16384 joints of 4 x 256: 128 MB of rows per chunk if held whole
        tracemalloc.start()
        try:
            rep = verify_envelope(256, 2.0, 32768, seed=7, y_size=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.violations_lower == 0 and rep.violations_upper == 0
        assert peak < 16 * 2**20


class TestChunkMeasures:
    """The sliced evaluation of a verify chunk equals the kernels on the whole chunk, bit for bit."""

    @pytest.mark.parametrize("n, y_size", [(2, 8), (3, 2), (8, 8), (256, 4), (70000, 1)])
    @pytest.mark.parametrize("chunk_index", [0, 1])
    def test_bitwise_whole_chunk(self, n, y_size, chunk_index):
        step = max(1, oracle._BLOCK // (y_size * n))
        count = 2 * step + step // 2 + 1  # three slices, the last one partial
        py, rows = sample_joint_batch(n, y_size, count, seed=11, chunk_index=chunk_index)
        for alpha in (0.3, 2.0, math.inf):
            h, norm = oracle._chunk_measures(n, y_size, alpha, count, 11, chunk_index)
            want_h = np.clip((py * shannon_entropy(rows)).sum(axis=1), 0.0, LN(n))
            want_norm = (py * alpha_norm(rows, alpha)).sum(axis=1)
            assert np.array_equal(h, want_h) and np.array_equal(norm, want_norm)


class TestBruteForce:
    def test_trivial_endpoints(self):
        assert brute_force_upper(8, 2.0, LN(8), 64) == pytest.approx(8 ** -0.5, rel=1e-12)
        assert brute_force_upper(8, 2.0, 0.0, 64) == pytest.approx(1.0, abs=1e-12)
        assert brute_force_lower(8, 2.0, 0.0, 64) == pytest.approx(1.0, abs=1e-12)
        assert brute_force_lower(8, 2.0, LN(4), 4096) == pytest.approx(0.5, abs=1e-5)

    def test_integer_entropy_anchor(self):
        # the hull's lower boundary passes through the uniform-on-m points
        got = brute_force_lower(6, 0.5, LN(3), 2048)
        assert got == pytest.approx(3.0, abs=1e-5)

    def test_upper_converges_from_below(self):
        n, alpha, h = 4, 0.5, 1.2
        exact = envelope_upper(n, alpha, h)
        prev_gap = None
        for grid in (256, 512, 1024, 2048, 4096):
            bf = brute_force_upper(n, alpha, h, grid)
            gap = exact - bf
            assert gap >= -1e-9
            if prev_gap is not None:
                assert gap <= prev_gap + 1e-15
            prev_gap = gap
        assert prev_gap < 1e-3
        assert brute_force_upper(n, alpha, h, 4096) == pytest.approx(3.66085512961858, abs=1e-3)

    def test_lower_converges_from_above(self):
        n, alpha, h = 8, 2.0, (LN(2) + LN(3)) / 2
        exact = envelope_lower(n, alpha, h)
        prev_gap = None
        for grid in (256, 512, 1024, 2048, 4096):
            bf = brute_force_lower(n, alpha, h, grid)
            gap = bf - exact
            assert gap >= -1e-9
            if prev_gap is not None:
                assert gap <= prev_gap + 1e-15
            prev_gap = gap
        assert prev_gap < 1e-3
        assert brute_force_lower(n, alpha, h, 4096) == pytest.approx(0.6422285251880866, abs=1e-3)

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            brute_force_upper(4, 2.0, 0.5, 8)


class TestInverseContainment:
    def test_sampled_joints_inside_entropy_range(self):
        # every sampled joint's (norm, entropy) pair respects the inverse bounds
        n, alpha = 8, 0.5
        py, rows = sample_joint_batch(n, 4, 400, seed=77)
        ent = -(np.where(rows > 0, rows * np.log(rows), 0.0)).sum(axis=2)
        nrm = np.power(rows, alpha).sum(axis=2) ** (1.0 / alpha)
        h = (py * ent).sum(axis=1)
        norm = (py * nrm).sum(axis=1)
        for hi, ni in zip(h, norm):
            lo, up = cond_entropy_range_for_norm(n, alpha, float(ni))
            assert lo - 1e-6 <= hi <= up + 1e-6

    def test_target_window_sweep(self):
        # joints whose expected norm lands near a target still satisfy their own range
        n, alpha = 8, 0.5
        py, rows = sample_joint_batch(n, 2, 3000, seed=78)
        nrm = np.power(rows, alpha).sum(axis=2) ** (1.0 / alpha)
        norm = (py * nrm).sum(axis=1)
        ent = -(np.where(rows > 0, rows * np.log(rows), 0.0)).sum(axis=2)
        h = (py * ent).sum(axis=1)
        target = float(np.median(norm))
        near = np.abs(norm - target) < 5e-2
        assert near.any()
        for hi, ni in zip(h[near], norm[near]):
            lo, up = cond_entropy_range_for_norm(n, alpha, float(ni))
            assert lo - 1e-6 <= hi <= up + 1e-6
