"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned in the assertions below.
"""

import math
import time

import numpy as np

from entnorm import oracle
from entnorm.bounds import (
    envelope_lower,
    envelope_upper,
    envelope_upper_half,
    has_upper_envelope,
)
from entnorm.curves import (
    curvature_sign,
    dnorm_dh_peaked,
    entropy_peaked,
    inflection_point,
    norm_peaked,
    solve_tangent_generic,
    tangent_residual,
)
from entnorm.measures import (
    Channel,
    arimoto_mutual_uniform,
    cond_shannon,
    e0_range_for_mutual,
    expected_alpha_norm,
    gallager_e0_uniform,
)
from entnorm.oracle import (
    brute_force_lower,
    brute_force_upper,
    verify_envelope,
    verify_sandwich,
    witness_max,
    witness_min,
)
from entnorm.simplex import alpha_log

LN = math.log


def _report(num: int, text: str, t0: float) -> None:
    print(f"PASS criterion {num}: {text} [{time.monotonic() - t0:.2f}s]")


def test_criterion_01_tangent_closed_form_at_half_order():
    t0 = time.monotonic()
    worst_dp = 0.0
    worst_res = 0.0
    for n in range(3, 65):
        closed = 1.0 / (n * (n - 1))
        got = solve_tangent_generic(n, 0.5)
        worst_dp = max(worst_dp, abs(got - closed))
        worst_res = max(worst_res, abs(tangent_residual(n, closed, 0.5)))
    elapsed = time.monotonic() - t0
    assert worst_dp < 1e-10
    assert worst_res < 1e-9
    assert elapsed < 5.0
    _report(1, f"generic tangent solver at order 1/2, n=3..64 (max dp={worst_dp:.2e}, max residual={worst_res:.2e})", t0)


def test_criterion_02_inflection_limits_and_monotonicity():
    t0 = time.monotonic()
    for n in (3, 8, 16):
        target = LN(2) + LN(math.sqrt(n - 1))
        assert abs(inflection_point(n, 1.0 + 1e-3).h - target) < 1e-2
        assert abs(inflection_point(n, 1.0 - 1e-3).h - target) < 1e-2
        assert abs(inflection_point(n, 32.0).h - LN(n)) < 0.1
        assert inflection_point(n, 0.5).h > LN(n) - (1.0 - 2.0 / n) * LN(n - 1)
        grid = [0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 2.0, 4.0, 8.0]
        hs = [inflection_point(n, a).h for a in grid]
        assert all(b > a for a, b in zip(hs, hs[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, "inflection entropy limits toward orders 1 and inf, half-order bound, monotone in order", t0)


def test_criterion_03_half_order_closed_form_agreement():
    t0 = time.monotonic()
    worst = 0.0
    for n in (3, 4, 8, 16):
        for h in np.linspace(0.0, LN(n), 1024):
            worst = max(worst, abs(envelope_upper_half(n, float(h)) - envelope_upper(n, 0.5, float(h))))
    assert worst < 1e-9
    _report(3, f"order-1/2 closed form vs generic upper envelope on 1024-point grids (max gap={worst:.2e})", t0)


def test_criterion_04_envelope_monte_carlo():
    t0 = time.monotonic()
    worst_config_time = 0.0
    total = 0
    for n in (2, 3, 8):
        for y_size in (2, 4, 8):
            for alpha in (0.3, 0.5, 0.7, 2.0, 4.0):
                c0 = time.monotonic()
                rep = verify_envelope(n, alpha, 100000, seed=1234, y_size=y_size)
                dt = time.monotonic() - c0
                worst_config_time = max(worst_config_time, dt)
                assert dt < 60.0
                assert rep.violations_lower == 0, (n, y_size, alpha, rep)
                assert rep.violations_upper == 0, (n, y_size, alpha, rep)
                total += rep.samples
    _report(4, f"{total} random joints across 45 configurations, zero envelope violations "
               f"(slowest configuration {worst_config_time:.2f}s)", t0)


def test_criterion_05_witness_achievement():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    orders = [0.5, 0.6, 0.75, 0.9, 1.25, 2.0, 4.0, 8.0]
    for _ in range(100):
        n = int(rng.integers(2, 17))
        alpha = float(rng.choice(orders))
        h = float(rng.uniform(0.0, LN(n)))
        jmin = witness_min(n, h)
        assert abs(expected_alpha_norm(jmin, alpha) - envelope_lower(n, alpha, cond_shannon(jmin))) < 1e-9
        jmax = witness_max(n, alpha, h)
        assert abs(expected_alpha_norm(jmax, alpha) - envelope_upper(n, alpha, cond_shannon(jmax))) < 1e-9
    _report(5, "100 random (n, alpha, h) witnesses meet both envelopes within 1e-9", t0)


def test_criterion_06_brute_force_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for n in (3, 4, 8):
        for alpha in (0.5, 2.0):
            for h in np.linspace(0.0, LN(n), 32):
                h = float(h)
                up = envelope_upper(n, alpha, h)
                lo = envelope_lower(n, alpha, h)
                bf_up_fine = brute_force_upper(n, alpha, h, 4096)
                bf_lo_fine = brute_force_lower(n, alpha, h, 4096)
                worst = max(worst, abs(up - bf_up_fine), abs(lo - bf_lo_fine))
                # refinement never widens the gap (coarse candidates are a subset)
                assert (up - brute_force_upper(n, alpha, h, 2048)) >= (up - bf_up_fine) - 1e-15
                assert (brute_force_lower(n, alpha, h, 2048) - lo) >= (bf_lo_fine - lo) - 1e-15
    assert worst < 1e-3
    _report(6, f"two-point-mixture hull search at grid 4096 within 1e-3 of the envelopes (max gap={worst:.2e})", t0)


def test_criterion_06_hull_oracle_at_grid_2_20():
    t0 = time.monotonic()
    worst_up = worst_lo = 0.0
    try:
        for n, alpha in ((8, 2.0), (3, 0.5)):
            for h in np.linspace(1e-3, LN(n) - 1e-3, 65):
                h = float(h)
                worst_up = max(worst_up, abs(envelope_upper(n, alpha, h) - brute_force_upper(n, alpha, h, 1 << 20)))
                worst_lo = max(worst_lo, abs(envelope_lower(n, alpha, h) - brute_force_lower(n, alpha, h, 1 << 20)))
    finally:
        oracle._sample_hull.cache_clear()  # an upper hull here holds up to 12 MB of vertices
    assert max(worst_up, worst_lo) < 1e-9
    _report(6, f"hull oracle at grid 2^20 within 1e-9 of the envelopes (max gap upper={worst_up:.2e}, "
            f"lower={worst_lo:.2e})", t0)


def test_criterion_07_e0_identity_and_containment():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    worst_resid = 0.0
    violations = 0
    for n_in in (2, 5, 9):
        for n_out in (2, 8):
            mats = rng.standard_exponential((1000, n_in, n_out))
            mats /= mats.sum(axis=2, keepdims=True)
            for mat in mats:
                ch = Channel(mat)
                for rho in (-0.5, 0.25, 1.0, 2.0):
                    e0 = gallager_e0_uniform(ch, rho)
                    ident = rho * arimoto_mutual_uniform(ch, 1.0 / (1.0 + rho))
                    worst_resid = max(worst_resid, abs(e0 - ident))
                i1 = min(max(arimoto_mutual_uniform(ch, 1.0), 0.0), LN(n_in))
                for rho in (-0.5, 1.0):
                    lo, hi = e0_range_for_mutual(n_in, rho, i1)
                    e0 = gallager_e0_uniform(ch, rho)
                    if e0 < lo - 1e-9 or e0 > hi + 1e-9:
                        violations += 1
    assert worst_resid < 1e-10
    assert violations == 0
    _report(7, f"E0 = rho * I_(1/(1+rho)) on 6000 random channels (max residual={worst_resid:.2e}), "
               "containment at rho in {-0.5, 1} with zero violations", t0)


def test_criterion_08_deformed_log_monotone_in_order():
    t0 = time.monotonic()
    xs = np.append(np.linspace(0.05, 10.0, 99), 1.0)
    orders = np.linspace(-2.0, 4.0, 100)
    for x in xs:
        vals = [alpha_log(float(a), float(x)) for a in orders]
        deltas = np.diff(vals)
        if abs(x - 1.0) < 1e-15:
            assert np.all(np.abs(deltas) < 1e-12)
        else:
            assert np.all(deltas < 0.0)
    _report(8, "deformed logarithm strictly decreasing in the order on a 100x100 grid (constant at x=1)", t0)


def test_criterion_09_zero_order_curvature_root_bracket():
    t0 = time.monotonic()
    for n in range(3, 11):
        lo, hi = math.exp(-n), 1.0 / (n * (n - 1))
        assert curvature_sign(n, lo, 0.0) < 0.0 < curvature_sign(n, hi, 0.0)
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if curvature_sign(n, mid, 0.0) < 0.0:
                a = mid
            else:
                b = mid
        root = 0.5 * (a + b)
        assert lo < root < hi
    _report(9, "order-0 curvature root inside (e^-n, 1/(n(n-1))) for n=3..10", t0)


def test_criterion_10_unconditional_sandwich_monte_carlo():
    t0 = time.monotonic()
    total = 0
    for n in (2, 3, 8):
        for alpha in (0.3, 0.5, 0.7, 2.0, 4.0):
            rep = verify_sandwich(n, alpha, 100000, seed=31337)
            assert rep.violations_lower == 0, (n, alpha, rep)
            assert rep.violations_upper == 0, (n, alpha, rep)
            total += rep.samples
    _report(10, f"{total} random distributions across 15 (n, alpha) pairs, zero sandwich violations", t0)


def test_criterion_11_norm_derivative_vs_finite_differences():
    t0 = time.monotonic()
    worst = 0.0
    for n in (3, 8):
        for alpha in (0.5, 0.7, 2.0, 4.0):
            for p in np.linspace(0.02 / n, 0.98 / n, 50):
                p = float(p)
                d = dnorm_dh_peaked(n, p, alpha)
                dp = p * 1e-6
                dn = norm_peaked(n, p + dp, alpha) - norm_peaked(n, p - dp, alpha)
                dh = entropy_peaked(n, p + dp) - entropy_peaked(n, p - dp)
                worst = max(worst, abs(d - dn / dh) / abs(d))
    assert worst < 1e-6
    _report(11, f"norm derivative vs centered differences on interior grids (max rel err={worst:.2e})", t0)
