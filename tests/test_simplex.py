import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entnorm import bounds, curves, measures, oracle
from entnorm.curves import norm_uniform
from entnorm.simplex import (
    DomainError,
    _check_n,
    alpha_log,
    alpha_norm,
    make_peaked,
    make_stepped,
    make_uniform,
    probabilities,
    shannon_entropy,
    step_count,
)

LN = math.log


def simplex_points(max_n=8):
    """Strategy: a random point on a random simplex (via exponential spacings)."""
    return st.builds(
        lambda seed, n: tuple(
            (lambda e: (e / e.sum()).tolist())(np.random.default_rng(seed).standard_exponential(n))
        ),
        st.integers(0, 2**32 - 1),
        st.integers(2, max_n),
    )


# Every entry that takes an alphabet size, at order a (rho = 1/a - 1 for E0, 0 at a = inf): each refuses n = 1
_N_ENTRIES = {
    "envelope": lambda n, a: bounds.envelope(n, a, 0.0),
    "envelope_lower": lambda n, a: bounds.envelope_lower(n, a, 0.0),
    "envelope_upper": lambda n, a: bounds.envelope_upper(n, a, 0.0),
    "envelope_upper_half": lambda n, a: bounds.envelope_upper_half(n, 0.0),
    "entropy_range_for_norm": lambda n, a: bounds.entropy_range_for_norm(n, a, 1.0),
    "cond_entropy_range_for_norm": lambda n, a: bounds.cond_entropy_range_for_norm(n, a, 1.0),
    "renyi_range_for_entropy": lambda n, a: measures.renyi_range_for_entropy(n, a, 0.0),
    "rnorm_range_for_entropy": lambda n, a: measures.rnorm_range_for_entropy(n, a, 0.0),
    "mutual_range_for_mutual": lambda n, a: measures.mutual_range_for_mutual(n, a, 0.0),
    "e0_range_for_mutual": lambda n, a: measures.e0_range_for_mutual(n, 1.0 / a - 1.0 if a < math.inf else 0.0, 0.0),
    "inv_entropy_peaked": lambda n, a: curves.inv_entropy_peaked(n, 0.0),
    "inv_entropy_stepped": lambda n, a: curves.inv_entropy_stepped(n, 0.0),
    "tangent_point": lambda n, a: curves.tangent_point(n, a),
    "witness_min": lambda n, a: oracle.witness_min(n, 0.0),
    "witness_max": lambda n, a: oracle.witness_max(n, a, 0.0),
    "brute_force_upper": lambda n, a: oracle.brute_force_upper(n, a, 0.0, 16),
    "brute_force_lower": lambda n, a: oracle.brute_force_lower(n, a, 0.0, 16),
    "random_joint": lambda n, a: oracle.random_joint(n, 1, 0),
    "sample_joint_batch": lambda n, a: oracle.sample_joint_batch(n, 1, 1, 0),
    "verify_envelope": lambda n, a: oracle.verify_envelope(n, a, 1, 0, y_size=1),
    "verify_sandwich": lambda n, a: oracle.verify_sandwich(n, a, 1, 0),
    "make_peaked": lambda n, a: make_peaked(n, 0.0),
    "make_stepped": lambda n, a: make_stepped(n, 1.0),
}


class TestAlphabetGuard:
    """simplex._check_n is the one check of n: from least (1, 2 or 3) to 10^14, with one text."""

    @pytest.mark.parametrize("least", [1, 2, 3])
    def test_ends_of_each_least(self, least):
        _check_n(least, least)
        _check_n(10**14, least)
        for n in (least - 1, 10**14 + 1, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError) as info:
                _check_n(n, least)
            assert str(info.value) == f"n={n} must be from {least} to 100000000000000"

    @pytest.mark.parametrize("name", sorted(_N_ENTRIES))
    @pytest.mark.parametrize("alpha", [0.3, 2.0, math.inf])
    @pytest.mark.parametrize("n", [1, 10**14 + 1])
    def test_every_entry_refuses_at_every_order(self, name, alpha, n):
        with pytest.raises(DomainError) as info:
            _N_ENTRIES[name](n, alpha)
        assert str(info.value) == f"n={n} must be from 2 to 100000000000000"

    def test_inflection_needs_three(self):
        with pytest.raises(DomainError, match="^n=2 must be from 3 to 100000000000000$"):
            curves.inflection_point(2, 2.0)

    @pytest.mark.parametrize("alpha", [0.3, 2.0, math.inf])
    def test_one_symbol_points_keep_answering(self, alpha):
        assert make_uniform(1).tolist() == [1.0]
        assert bounds.sandwich_norm([1.0], alpha) == (1.0, 1.0)
        lo, hi = bounds.sandwich_norm([[1.0], [1.0]], alpha)
        assert lo.tolist() == hi.tolist() == [1.0, 1.0]


class TestConstructors:
    def test_uniform(self):
        assert make_uniform(1).tolist() == [1.0]
        assert make_uniform(2).tolist() == [0.5, 0.5]
        assert make_uniform(4).tolist() == [0.25] * 4
        assert not make_uniform(4).flags.writeable

    def test_uniform_rejects_zero(self):
        with pytest.raises(DomainError):
            make_uniform(0)

    def test_peaked(self):
        assert make_peaked(3, 0.0).tolist() == [1.0, 0.0, 0.0]
        assert make_peaked(3, 1 / 3).tolist() == pytest.approx(make_uniform(3).tolist())
        assert make_peaked(3, 1 / 6).tolist() == pytest.approx([2 / 3, 1 / 6, 1 / 6])

    def test_peaked_domain(self):
        with pytest.raises(DomainError):
            make_peaked(3, 0.5)
        with pytest.raises(DomainError):
            make_peaked(3, -1e-6)
        # within tolerance: clamped, not rejected
        make_peaked(3, 1 / 3 + 1e-13)
        with pytest.raises(DomainError, match="^n=1 must be from 2 to 100000000000000$"):
            make_peaked(1, 0.0)

    def test_stepped(self):
        assert make_stepped(4, 1.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert make_stepped(4, 0.25).tolist() == pytest.approx([0.25] * 4)
        assert make_stepped(5, 0.4).tolist() == pytest.approx([0.4, 0.4, 0.2, 0.0, 0.0])

    def test_stepped_domain(self):
        with pytest.raises(DomainError):
            make_stepped(4, 0.1)
        with pytest.raises(DomainError):
            make_stepped(4, 1.1)
        with pytest.raises(DomainError, match="^n=1 must be from 2 to 100000000000000$"):
            make_stepped(1, 1.0)

    def test_stepped_exact_reciprocals(self):
        # floor(1/p) must not round down at representable 1/m
        for m in range(2, 40):
            pv = make_stepped(40, 1.0 / m)
            assert int((pv > 0).sum()) == m
            assert shannon_entropy(pv) == pytest.approx(LN(m), abs=1e-12)

    @given(simplex_points())
    def test_probvector_accepts_sampled_points(self, vals):
        pv = probabilities(vals, 1, "values")
        assert math.fsum(pv) == pytest.approx(1.0, abs=1e-9)

    def test_probvector_invariants(self):
        with pytest.raises(DomainError):
            probabilities((0.5, 0.6), 1, "values")
        with pytest.raises(DomainError):
            probabilities((1.2, -0.2), 1, "values")
        with pytest.raises(DomainError):
            probabilities((), 1, "values")
        with pytest.raises(DomainError, match="numbers"):
            probabilities(("0.5", "0.5"), 1, "values")  # numpy would convert the strings

    def test_non_sequence_rows_name_the_field_only(self):
        from entnorm.measures import JointDist

        with pytest.raises(DomainError, match="^field 'rows': entries must be numbers"):
            JointDist(py=[1.0], rows=None)  # no rows to iterate, so no row index


class TestEntropy:
    def test_point_mass(self):
        assert shannon_entropy((1.0, 0.0, 0.0)) == 0.0

    def test_uniform(self):
        assert shannon_entropy(make_uniform(4)) == pytest.approx(LN(4), abs=1e-12)

    def test_mixed(self):
        # direct summation: -(2/3)ln(2/3) - 2*(1/6)ln(1/6)
        assert shannon_entropy((2 / 3, 1 / 6, 1 / 6)) == pytest.approx(
            0.8675632284814612, abs=1e-12
        )

    @given(simplex_points())
    def test_range(self, vals):
        h = shannon_entropy(vals)
        assert -1e-12 <= h <= LN(len(vals)) + 1e-9


def where_entropy(p):
    """shannon_entropy through the np.where form of x ln x, written out: the bits the row kernel keeps."""
    p = np.asarray(p, dtype=float)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def same_bits(a, b) -> bool:
    """Equal doubles, NaN payloads and sign bits included, in equal shapes."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _special_entries():
    """Entries where x ln x needs care, and 1000 random ones from the subnormals to 100 to place them among."""
    p = math.nextafter(math.nextafter(1.0 / 3.0, 1.0), 1.0)  # just past a corner of the stepped curve
    remainder = 1.0 - step_count(p) * p  # 1 - k p: two ulps below 0
    assert remainder < 0.0
    special = [0.0, -0.0, -1e-17, remainder, 5e-324, 1e-320, 1.0, math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(20261020)
    return special, rng.permutation(np.concatenate([10.0 ** rng.uniform(-320.0, 2.0, 500), rng.random(500)]))


def _layouts(x):
    """x's values as a contiguous array and as a column, a stride-2 and a reversed view."""
    column = np.stack([np.zeros_like(x), x, np.ones_like(x)], axis=-1)[..., 1]
    spread = np.stack([x, np.full_like(x, 0.5)], axis=-1).reshape(x.shape[:-1] + (2 * x.shape[-1],))[..., ::2]
    reversed_ = np.ascontiguousarray(x[..., ::-1])[..., ::-1]
    views = {"contiguous": x, "column": column, "stride 2": spread, "reversed": reversed_}
    for v in views.values():
        assert same_bits(v, x)
    assert not any(v.flags.forc for k, v in views.items() if k != "contiguous")
    return views


class TestEntropyBits:
    """shannon_entropy skips the np.where copy of x ln x, yet gives its bits on every value and layout.

    numpy's AVX-512 log rounds a reversed 1-D view differently from a contiguous array, which only enough
    random entries show; the tier-1 workflow reruns this class with that dispatch target disabled too.
    """

    def test_each_entry_alone(self):
        special, spread = _special_entries()
        rows = np.concatenate([special, spread])[:, None]  # one entry per row
        with np.errstate(invalid="ignore"):  # -inf ln 1 = -inf * 0 warns in both forms
            assert same_bits(shannon_entropy(rows), where_entropy(rows))

    def test_zero_entries_raise_no_warning(self):
        # pyproject turns every RuntimeWarning into an error: ln 0 and 0 * -inf must stay silent
        for rows in ([0.5, 0.0, 0.5], [[0.5, -1e-17, 0.5], [1.0, 0.0, -0.0]]):
            assert same_bits(shannon_entropy(rows), where_entropy(rows))

    @pytest.mark.parametrize("layout", ["contiguous", "column", "stride 2", "reversed"])
    def test_special_entries_among_random_ones_in_every_layout(self, layout):
        special, spread = _special_entries()
        block = spread.reshape(5, 4, 50).copy()  # rows 0-9 get one special entry each, rows 10-19 none
        for k, x in enumerate(special):
            block.reshape(20, 50)[k, 5 * k] = x
            row = spread.copy()
            row[97 * k] = x
            v = _layouts(row)[layout]
            with np.errstate(invalid="ignore"):
                assert same_bits(shannon_entropy(v), where_entropy(v))
        v = _layouts(block)[layout]
        with np.errstate(invalid="ignore"):
            assert same_bits(shannon_entropy(v), where_entropy(v))

    @pytest.mark.parametrize("shape", [(3000, 4, 2), (3000, 4, 3), (500, 4, 8), (50, 4, 256)])
    @pytest.mark.parametrize("layout", ["contiguous", "column", "stride 2", "reversed"])
    def test_sampled_rows_in_every_layout(self, shape, layout):
        e = np.random.default_rng(11).standard_exponential(shape)
        v = _layouts(e / e.sum(axis=-1, keepdims=True))[layout]
        assert same_bits(shannon_entropy(v), where_entropy(v))

    @pytest.mark.parametrize("layout", ["contiguous", "column", "stride 2", "reversed"])
    def test_one_dimensional_rows_in_every_layout(self, layout):
        # numpy passes a 1-D view's stride to log as it is; with AVX-512 a reversed one rounds about 1 entry in
        # 1000 of these differently, and a row of 3 keeps that last bit in its sum: 8000 rows show it
        e = np.random.default_rng(17).standard_exponential((8000, 3))
        rows = _layouts(e / e.sum(axis=-1, keepdims=True))[layout]
        got = np.array([shannon_entropy(row) for row in rows])
        assert same_bits(got, np.array([where_entropy(row) for row in rows]))

    def test_fortran_and_transposed_rows(self):
        e = np.random.default_rng(13).random((30, 6, 40))
        for v in (np.asfortranarray(e), e.transpose(2, 0, 1), e[::-1, :, ::3].transpose(1, 2, 0)):
            assert same_bits(shannon_entropy(v), where_entropy(v))


class TestAlphaNorm:
    def test_uniform_closed_form(self):
        assert alpha_norm(make_uniform(4), 2.0) == pytest.approx(0.5, abs=1e-15)
        for n in (2, 5, 9):
            assert alpha_norm(make_uniform(n), 0.5) == pytest.approx(n, rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the row kernel misses norm_uniform(2, 0.01) by 2.66e-15 relative, 12 ulp; norm_peaked and "
        "norm_stepped take norm_uniform's value at their corners, alpha_norm does not. Harmless under verify's "
        "slack today, but a per-sample slack (ROADMAP item 12) must clear it",
    )
    def test_uniform_row_matches_norm_uniform(self):
        want = norm_uniform(2, 0.01)
        assert abs(alpha_norm(make_uniform(2), 0.01) - want) <= 2 * math.ulp(want)

    def test_point_mass(self):
        pm = (1.0, 0.0, 0.0, 0.0)
        for alpha in (0.3, 0.5, 1.0, 2.0, 7.5, math.inf):
            assert alpha_norm(pm, alpha) == pytest.approx(1.0, abs=1e-15)

    def test_inf_is_max(self):
        assert alpha_norm((0.5, 0.3, 0.2), math.inf) == 0.5

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            alpha_norm(make_uniform(3), 0.0)
        with pytest.raises(DomainError):
            alpha_norm(make_uniform(3), -2.0)

    @given(simplex_points(), st.sampled_from([0.3, 0.5, 0.9, 1.0, 2.0, 4.0, math.inf]))
    def test_norm_range(self, vals, alpha):
        n = len(vals)
        u = (1.0 / n) if alpha == math.inf else n ** (1.0 / alpha - 1.0)
        lo, hi = min(1.0, u), max(1.0, u)
        assert lo - 1e-9 <= alpha_norm(vals, alpha) <= hi + 1e-9

    @given(simplex_points())
    def test_order_one_is_unit(self, vals):
        assert alpha_norm(vals, 1.0) == pytest.approx(1.0, abs=1e-12)


class TestAlphaLog:
    def test_known_orders(self):
        assert alpha_log(0.0, 3.0) == pytest.approx(2.0, abs=1e-14)
        assert alpha_log(2.0, 4.0) == pytest.approx(0.75, abs=1e-14)
        assert alpha_log(1.0, math.e) == pytest.approx(1.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_log(1.5, 0.0)
        with pytest.raises(DomainError):
            alpha_log(1.5, -3.0)

    @given(st.floats(0.01, 10.0), st.floats(-2.0, 4.0), st.floats(1e-3, 2.0))
    def test_decreasing_in_order(self, x, a, step):
        # equality only at x = 1; strictness asserted only where the analytic
        # gap ~ (ln x)^2 * step / 2 is resolvable in float64
        lo, hi = alpha_log(a + step, x), alpha_log(a, x)
        assert hi >= lo - 1e-12
        if abs(x - 1.0) > 1e-3:
            assert hi > lo

    @given(st.floats(1e-3, 1e3))
    def test_log_sandwich(self, x):
        # orders 2, 1, 0 give the classic 1 - 1/x <= ln x <= x - 1
        assert 1.0 - 1.0 / x <= math.log(x) + 1e-12
        assert math.log(x) <= x - 1.0 + 1e-12


def test_families_meet_at_uniform():
    for n in (2, 3, 5, 8):
        for alpha in (0.3, 0.5, 2.0, 4.0):
            u = n ** (1.0 / alpha - 1.0)
            assert alpha_norm(make_peaked(n, 1.0 / n), alpha) == pytest.approx(u, rel=1e-12)
            assert alpha_norm(make_stepped(n, 1.0 / n), alpha) == pytest.approx(u, rel=1e-12)


def test_constructed_vectors_need_no_renormalization():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        pv = make_peaked(n, float(rng.uniform(0, 1.0 / n)))
        assert abs(math.fsum(pv) - 1.0) <= 1e-12
        pw = make_stepped(n, float(rng.uniform(1.0 / n, 1.0)))
        assert abs(math.fsum(pw) - 1.0) <= 1e-12
        assert not (pv.flags.writeable or pw.flags.writeable)
