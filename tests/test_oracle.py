import math
import tracemalloc

import numpy as np
import pytest

from entnorm import bounds, curves, oracle, simplex
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
from entnorm.simplex import DomainError, NumericalError

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

    @pytest.mark.parametrize("n", [3, 8, 100, 10**4])
    def test_entropy_just_below_a_vertex(self, n):
        # the mixing weight for h just below ln m is just below 1, not 1
        for m in sorted({2, max(2, n // 2), n}):
            for d in (1e-15, 1e-13, 1e-12, 1e-11, 1e-10):
                h = LN(m) - d
                assert abs(cond_shannon(witness_min(n, h)) - h) <= 4e-15, (m, d)

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


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_witnesses_at_large_n(n):
    # both witnesses at the top of the supported n: read-only rows, h met and the envelope attained
    for frac in (0.001, 0.5, 0.999):
        h = frac * LN(n)
        jmin = witness_min(n, h)
        assert abs(cond_shannon(jmin) - h) <= 1e-12
        for alpha in (0.5, 2.0, 50.0):
            jmax = witness_max(n, alpha, h)
            assert abs(cond_shannon(jmax) - h) <= 1e-12
            for j, env in ((jmin, envelope_lower(n, alpha, h)), (jmax, envelope_upper(n, alpha, h))):
                assert not (j.py.flags.writeable or j.rows.flags.writeable)
                assert abs(expected_alpha_norm(j, alpha) - env) <= 1e-12 * max(1.0, env)


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

    @pytest.mark.parametrize("n, y_size, seed, message", [
        (0, 2, 0, "n=0 must be from 2 to 100000000000000"),
        (3, 0, 0, "y_size=0 must be >= 1"),
        (3, 2, -1, "seed=-1 must be >= 0"),
    ])
    def test_batch_refuses_before_drawing(self, monkeypatch, n, y_size, seed, message):
        def drawn(*args):
            raise AssertionError("drew a joint")

        monkeypatch.setattr(oracle, "_sample_simplex", drawn)
        monkeypatch.setattr(oracle, "_chunk_rng", drawn)
        with pytest.raises(DomainError) as info:
            sample_joint_batch(n, y_size, 4, seed)
        assert str(info.value) == message


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


class TestVerifySandwich:
    @pytest.mark.parametrize("n, alpha, samples, message", [
        (3, 2.0, 0, "samples=0 must be >= 1"),
        (2**24 + 1, 2.0, 5, "a sample of 16777217 floats exceeds the 16777216-float chunk budget"),
        (3, 0.0, 5, "alpha=0.0 must be positive"),
        (3, math.nan, 5, "alpha=nan must be positive"),
        (2, 1e-4, 5, "unsupported order alpha=0.0001: a value at this order is not a finite double"),
    ])
    def test_refuses_before_drawing(self, monkeypatch, n, alpha, samples, message):
        def drawn(*args):
            raise AssertionError("drew a point")

        monkeypatch.setattr(oracle, "_sample_simplex", drawn)
        monkeypatch.setattr(oracle, "_chunk_rng", drawn)  # every chunk's generator, so every draw
        with pytest.raises(DomainError) as info:
            oracle.verify_sandwich(n, alpha, samples, seed=0)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [2, 3, 1000])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, math.inf])
    def test_excesses_match_the_whole_chunk(self, n, alpha, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 1000)  # three chunks, the last partial; 16 blocks a chunk at n = 1000
        got = []
        real_tally = oracle._tally

        def kept(samples, seed, chunk, slack, excesses):
            return real_tally(samples, seed, chunk, slack, lambda *a: got.append(excesses(*a)) or got[-1])

        monkeypatch.setattr(oracle, "_tally", kept)
        oracle.verify_sandwich(n, alpha, 2500, seed=4)
        assert len(got) == 3
        for chunk_index, (lower, upper) in enumerate(got):
            pts = oracle._sample_simplex(oracle._chunk_rng(4, chunk_index), 1000 if chunk_index < 2 else 500, n)
            h = np.clip(_whole_entropy(pts), 0.0, LN(n))
            lo = curves.norm_stepped(n, curves.inv_entropy_stepped(n, h), alpha)
            hi = curves.norm_peaked(n, curves.inv_entropy_peaked(n, h), alpha)
            x = _whole_norm(pts, alpha)
            assert _same_bits(lower, lo - x) and _same_bits(upper, x - hi)

    def test_memory_does_not_grow_with_the_chunk(self):
        # one full chunk of 16384 points on 1000 symbols: 131 MB of points if held whole
        tracemalloc.start()
        try:
            rep = oracle.verify_sandwich(1000, 2.0, 16384, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.violations_lower == 0 and rep.violations_upper == 0
        assert peak < 16 * 2**20


class TestTally:
    def test_non_finite_excess_raises(self):
        # NaN > 1e-9 is False and max(0.0, nan) is 0.0: without the check this reports a clean pass
        def excesses(count, chunk_index):
            return np.full(count, np.nan), None

        with pytest.raises(NumericalError, match="non-finite"):
            oracle._tally(10, 0, oracle._chunk_plan(10, 4), 1e-9, excesses)


_EXACT_UPPER = bounds._envelope_upper_vec


def _exact_report(n, alpha, samples, seed, y_size, kernel=_EXACT_UPPER):
    """verify_envelope without the chord screen: the exact upper kernel on every sample."""

    def excesses(count, chunk_index):
        h, norm = oracle._chunk_measures(n, y_size, alpha, count, seed, chunk_index)
        return bounds._envelope_lower_vec(n, alpha, h) - norm, norm - kernel(n, alpha, h)

    slack = 1e-9 * max(1.0, curves.norm_uniform(n, alpha))
    return oracle._tally(samples, seed, oracle._chunk_plan(samples, y_size * n), slack, excesses)


@pytest.fixture
def exact_calls(monkeypatch):
    """Sizes of the entropy arrays verify hands the exact upper kernel, the screen's nodes first."""
    sizes = []

    def counted(n, alpha, h):
        sizes.append(np.size(h))
        return _EXACT_UPPER(n, alpha, h)

    monkeypatch.setattr(bounds, "_envelope_upper_vec", counted)
    return sizes


class TestUpperScreen:
    """verify_envelope's chord screen leaves every report as the exact kernel on every sample makes it."""

    @pytest.mark.parametrize(
        "n, alpha",
        [(2, 0.3)] + [(n, a) for n in (2, 3, 8, 256) for a in (0.5, 0.55, 1.5, 2.0, 4.0)],
    )
    @pytest.mark.parametrize("y_size", [1, 2, 4, 8])
    def test_matches_exact_reference(self, n, alpha, y_size, exact_calls):
        samples = 600 if n == 256 else 3000
        got = verify_envelope(n, alpha, samples, seed=5, y_size=y_size)
        assert got == _exact_report(n, alpha, samples, 5, y_size)
        assert exact_calls[0] == oracle._NODES
        if n == 2 and y_size == 1:  # every binary distribution lies on the curve, so none is settled
            assert sum(exact_calls[1:]) == samples

    @pytest.mark.parametrize("n, alpha, y_size", [(2, 0.3, 2), (8, 2.0, 4)])
    def test_matches_exact_reference_over_chunks(self, n, alpha, y_size, exact_calls):
        samples = oracle._CHUNK + 5000
        got = verify_envelope(n, alpha, samples, seed=9, y_size=y_size)
        assert got == _exact_report(n, alpha, samples, 9, y_size)
        assert len(exact_calls) <= 3  # the nodes, then at most one call per chunk
        if (n, alpha) == (8, 2.0):
            assert sum(exact_calls[1:]) < samples // 100

    @staticmethod
    def _plant(monkeypatch, h, norm):
        def planted(n, y_size, alpha, count, seed, chunk_index):
            assert count == h.size
            return h.copy(), norm.copy()

        monkeypatch.setattr(oracle, "_chunk_measures", planted)

    @pytest.mark.parametrize("n, alpha", [(2, 0.3), (3, 0.5), (8, 2.0), (8, 0.7), (256, 4.0)])
    def test_planted_samples_land_where_the_exact_kernel_puts_them(self, n, alpha, monkeypatch, exact_calls):
        ts = curves.tangent_point(n, alpha)
        top = math.log(n)
        node = float(np.linspace(0.0, top, oracle._NODES)[17])
        centres = [0.0, 1e-12, ts.h, node, top - 1e-12, top]
        h = np.clip([c + d for c in centres for d in (-1e-7, -1e-15, 0.0, 1e-15, 1e-7)], 0.0, top)
        h = np.repeat(h, 6)
        norm = _EXACT_UPPER(n, alpha, h) + np.tile([-1e-6, -1e-9, -1e-13, 1e-13, 1e-9, 1e-6], h.size // 6)
        self._plant(monkeypatch, h, norm)
        got = verify_envelope(n, alpha, h.size, seed=0, y_size=1)
        want = _exact_report(n, alpha, h.size, 0, 1)
        assert got == want
        assert got.violations_upper >= h.size // 6  # at least every +1e-6 plant
        assert got.max_excess > 0.0
        assert 0 < sum(exact_calls[1:]) < h.size  # both the screen and the exact kernel decided some

    @pytest.mark.parametrize("n, alpha", [(2, 0.05), (8, 0.7), (8, 2.0)])
    def test_slack_scales_with_the_uniform_norm(self, n, alpha, monkeypatch):
        scale = max(1.0, curves.norm_uniform(n, alpha))  # 2^19 at (2, 0.05), 1 at order 2
        h = np.repeat(np.linspace(0.0, math.log(n), 25), 4)
        lower, upper = bounds._envelope_lower_vec(n, alpha, h), _EXACT_UPPER(n, alpha, h)
        off = scale * np.tile([1e-8, 1e-10], h.size // 2)  # beyond the slack, then within it
        norm = np.where(np.arange(h.size) % 4 < 2, upper + off, lower - off)
        self._plant(monkeypatch, h, norm)
        got = verify_envelope(n, alpha, h.size, seed=0, y_size=1)
        assert (got.violations_lower, got.violations_upper) == (h.size // 4, h.size // 4)
        assert got.max_excess == pytest.approx(1e-8 * scale, rel=1e-3)  # absolute, not scaled

    def test_nan_norm_reaches_the_exact_kernel(self, monkeypatch):
        h = np.array([0.3, 0.9])
        self._plant(monkeypatch, h, np.array([0.5, np.nan]))
        with pytest.raises(NumericalError, match="non-finite"):
            verify_envelope(8, 2.0, 2, seed=0, y_size=1)

    def test_non_concave_nodes_send_every_sample_to_the_exact_kernel(self, monkeypatch):
        n, alpha, samples = 8, 2.0, 3000
        bump_at = float(np.linspace(0.0, math.log(n), oracle._NODES)[-4])
        assert bump_at > curves.tangent_point(n, alpha).h  # on the straight segment, where U'' = 0
        sizes = []

        def bumped(n, alpha, h):  # a narrow rise of 1e-6 at one node: the nodes are no longer concave
            sizes.append(np.size(h))
            return _EXACT_UPPER(n, alpha, h) + 1e-6 * np.exp(-(((h - bump_at) / 1e-3) ** 2))

        want = _exact_report(n, alpha, samples, 3, 4, kernel=bumped)
        sizes.clear()
        monkeypatch.setattr(bounds, "_envelope_upper_vec", bumped)
        assert verify_envelope(n, alpha, samples, seed=3, y_size=4) == want
        assert sizes == [oracle._NODES, samples]


def _slack_pin(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item 12: {reason}")


_SMALL_ORDER = "verify's slack at (2, 0.01) is 1e-9 * ||u_2|| = 6.3e20, while U and L here are 1 to 2.5"
_NEAR_ORDER_1 = "verify's slack at (n, 1 - 1e-4) is 1.0e-9 * ||u_n||, twice the excess planted here"


class TestSlackBlindSpots:
    """verify judges every sample against 1e-9 * max(1, ||u_n||). Each row planted here lies off an envelope, so
    the mathematics has a violation there, and the slack hides it: at small orders the slack dwarfs the norms, and
    near order 1 it exceeds the planted excess. A slack that follows the sample turns these pins into XPASS."""

    @pytest.mark.parametrize(
        "n, alpha, hs, rel",
        [
            pytest.param(2, 0.01, (0.0, 1e-200), 1e-6, marks=_slack_pin(_SMALL_ORDER)),
            pytest.param(3, 1.0 - 1e-4, (0.3,), 5e-10, marks=_slack_pin(_NEAR_ORDER_1)),
            pytest.param(8, 1.0 - 1e-4, (1.5,), 5e-10, marks=_slack_pin(_NEAR_ORDER_1)),
        ],
    )
    def test_planted_violations_count(self, n, alpha, hs, rel, monkeypatch):
        h = np.repeat(hs, 2)
        upper, lower = _EXACT_UPPER(n, alpha, h), bounds._envelope_lower_vec(n, alpha, h)
        norm = np.where(np.arange(h.size) % 2 == 0, upper * (1.0 + rel), lower * (1.0 - rel))  # above U, below L
        TestUpperScreen._plant(monkeypatch, h, norm)
        got = verify_envelope(n, alpha, h.size, seed=0, y_size=1)
        assert (got.violations_lower, got.violations_upper) == (h.size // 2, h.size // 2)  # 0 and 0 today


def _whole_entropy(rows):
    """Row entropies by the np.where form of x ln x on the whole array, written out."""
    return -(rows * np.log(np.where(rows > 0.0, rows, 1.0))).sum(axis=-1)


def _whole_norm(rows, alpha):
    """Row alpha-norms on the whole array, written out: the power sum unshifted below the underflow shift."""
    if alpha == math.inf:
        return rows.max(axis=-1)
    assert not (alpha > 1.0 and alpha * LN(rows.shape[-1]) > 700.0)
    return np.power(np.power(rows, alpha).sum(axis=-1), 1.0 / alpha)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class _ZeroAt:
    """A generator whose exponential draws read 0.0 at the given positions of its stream, counted over every call."""

    def __init__(self, rng, positions):
        self.rng, self.positions, self.drawn = rng, positions, 0

    def standard_exponential(self, size=None, out=None):
        e = self.rng.standard_exponential(size=size, out=out)
        flat = e.reshape(-1)  # a view: the draws are C-contiguous
        for i in self.positions:
            if self.drawn <= i < self.drawn + flat.size:
                flat[i - self.drawn] = 0.0
        self.drawn += flat.size
        return e


class TestChunkMeasures:
    """The block evaluation of a verify chunk equals the whole-chunk formulas, bit for bit."""

    @pytest.mark.parametrize("n, y_size", [(2, 8), (3, 2), (8, 8), (256, 4), (70000, 1)])
    @pytest.mark.parametrize("chunk_index", [0, 1])
    def test_bitwise_whole_chunk(self, n, y_size, chunk_index):
        step = max(1, oracle._BLOCK // (y_size * n))
        count = 2 * step + step // 2 + 1  # three blocks, the last one partial
        py, rows = sample_joint_batch(n, y_size, count, seed=11, chunk_index=chunk_index)
        for alpha in (0.3, 2.0, math.inf):
            h, norm = oracle._chunk_measures(n, y_size, alpha, count, 11, chunk_index)
            want_h = np.clip((py * _whole_entropy(rows)).sum(axis=1), 0.0, LN(n))
            want_norm = (py * _whole_norm(rows, alpha)).sum(axis=1)
            assert _same_bits(h, want_h) and _same_bits(norm, want_norm)

    @pytest.mark.parametrize("n, y_size", [(3, 2), (256, 4)])
    def test_a_zero_entry_takes_the_repair(self, n, y_size, monkeypatch):
        step = max(1, oracle._BLOCK // (y_size * n))
        count = 2 * step + 1
        at = count * y_size + step * y_size * n + 5  # after the marginals: an entry of the second block
        real_rng = oracle._chunk_rng
        monkeypatch.setattr(oracle, "_chunk_rng", lambda seed, index: _ZeroAt(real_rng(seed, index), [at]))
        py, rows = sample_joint_batch(n, y_size, count, seed=3, chunk_index=0)
        assert (rows == 0.0).sum() == 1 and rows.reshape(-1)[at - count * y_size] == 0.0
        repairs = []
        real_xlogx = simplex._xlogx
        monkeypatch.setattr(simplex, "_xlogx", lambda x: repairs.append(x.shape) or real_xlogx(x))
        for alpha in (0.5, 2.0):
            h, norm = oracle._chunk_measures(n, y_size, alpha, count, 3, 0)
            assert _same_bits(h, np.clip((py * _whole_entropy(rows)).sum(axis=1), 0.0, LN(n)))
            assert _same_bits(norm, (py * _whole_norm(rows, alpha)).sum(axis=1))
        assert repairs == [(step, y_size, n)] * 2  # only the block holding the zero


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

    @pytest.mark.parametrize("grid_size", [16.5, 2**40, (1 << 24) + 1, math.nan, math.inf])
    def test_bad_grid_refused_in_one_line_before_any_build(self, grid_size):
        misses = oracle._sample_hull.cache_info().misses
        for fn in (brute_force_upper, brute_force_lower):
            with pytest.raises(DomainError, match=r"^grid_size=\S+ must be an integer from 16 to 16777216$"):
                fn(8, 2.0, 1.0, grid_size)
        assert oracle._sample_hull.cache_info().misses == misses  # nothing was sampled

    def test_integral_float_grid_shares_the_int_key(self):
        assert brute_force_upper(8, 2.0, 1.0, 64.0) == brute_force_upper(8, 2.0, 1.0, 64)


def _curve_samples(n: int, alpha: float, grid: int, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's curve samples at t = i/G: peaked for the upper side, stepped for the lower."""
    t = np.arange(grid + 1, dtype=np.float64) / grid
    if upper:
        p = t * (1.0 / n)
        return curves.entropy_peaked(n, p), curves.norm_peaked(n, p, alpha)
    p = 1.0 / n + t * (1.0 - 1.0 / n)
    return curves.entropy_stepped(n, p), curves.norm_stepped(n, p, alpha)


def _pair_search(h_pts: np.ndarray, n_pts: np.ndarray, h: float, want_max: bool) -> float:
    """Best two-point mixture at abscissa h over every left x right sample pair: O(G^2) reference."""
    h = min(max(h, float(h_pts.min())), float(h_pts.max()))
    left = h_pts <= h
    right = h_pts >= h
    hl, nl = h_pts[left], n_pts[left]
    hr, nr = h_pts[right], n_pts[right]
    span = hr[None, :] - hl[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (hr[None, :] - h) / span
        vals = lam * nl[:, None] + (1.0 - lam) * nr[None, :]
    ok = span > 0.0
    best = float(np.max(np.where(ok, vals, -np.inf))) if want_max else float(np.min(np.where(ok, vals, np.inf)))
    exact = h_pts == h
    if exact.any():
        hit = n_pts[exact]
        cand = float(hit.max() if want_max else hit.min())
        best = max(best, cand) if want_max else min(best, cand)
    return best


class TestHullAgainstPairSearch:
    """The cached hull against the O(G^2) search over every two-point mixture of the samples.

    Agreement is to 1e-15 relative, and not always bitwise: where hull
    vertices are collinear within rounding, the pair search's maximum over
    every chord can pick a pair of non-adjacent samples whose chord rounds
    one ulp above the hull's. A sweep over n in {2, 3, 4, 8, 17, 64}, orders
    {0.5, 0.7, 2, 4.5}, G from 16 to 1024, both sides, at 0, ln n, random
    and sample entropies found 7 such queries of 4,032, all on the upper
    side and at most 1.9e-16 relative; the other 4,025 were bitwise equal.
    """

    @pytest.mark.parametrize("grid", [16, 64, 256, 1024])
    def test_agrees_with_the_pair_search(self, grid):
        rng = np.random.default_rng(grid)
        for _ in range(6):
            n = int(rng.integers(2, 65))
            alpha = float(rng.uniform(0.5, 5.0))
            for upper in (True, False):
                hs, vs = _curve_samples(n, alpha, grid, upper)
                for h in [0.0, LN(n), float(rng.choice(hs)), *rng.uniform(0.0, LN(n), 3).tolist()]:
                    got = (brute_force_upper if upper else brute_force_lower)(n, alpha, h, grid)
                    want = _pair_search(hs, vs, curves.clamp_entropy(n, h), upper)
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0), (n, alpha, h, grid, upper)

    def test_tied_entropies_take_the_extreme_norm(self, monkeypatch):
        # the curves' entropies have no float ties at these grids; floored to 0.25 they tie in runs, 0 included
        for name in ("entropy_peaked", "entropy_stepped"):
            exact = getattr(curves, name)
            monkeypatch.setattr(curves, name, lambda n, p, exact=exact: np.floor(4.0 * exact(n, p)) / 4.0)
        n, alpha, grid = 8, 2.0, 48
        oracle._sample_hull.cache_clear()
        try:
            for upper in (True, False):
                hs, vs = _curve_samples(n, alpha, grid, upper)
                assert len(np.unique(hs)) < len(hs)
                for h in np.union1d(hs, np.linspace(0.0, LN(n), 37)).tolist():
                    got = (brute_force_upper if upper else brute_force_lower)(n, alpha, h, grid)
                    assert got == pytest.approx(_pair_search(hs, vs, h, upper), rel=1e-15, abs=0.0), (h, upper)
        finally:
            oracle._sample_hull.cache_clear()

    def test_sample_entropy_is_a_hit_or_a_chord(self):
        # every sample's entropy: a vertex there returns its norm, any other sample lies inside
        n, alpha, grid = 8, 2.0, 64
        for upper in (True, False):
            hs, vs = _curve_samples(n, alpha, grid, upper)
            for h, v in zip(hs.tolist(), vs.tolist()):
                got = (brute_force_upper if upper else brute_force_lower)(n, alpha, h, grid)
                assert got == pytest.approx(_pair_search(hs, vs, h, upper), rel=1e-15, abs=0.0)
                assert (got >= v) if upper else (got <= v)


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
