import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entnorm.cli import UsageError, build_parser, main
from entnorm.measures import cond_shannon, expected_alpha_norm
from entnorm.oracle import witness_max, witness_min

LN = math.log


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_envelope_at_entropy(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "4", "--alpha", "0.5", "--h", "1.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["upper"] == pytest.approx(3.66085512961858, abs=1e-9)
        assert payload["lower"] <= payload["upper"]

    def test_upper_null_small_order(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "8", "--alpha", "0.3", "--h", "1.0")
        assert code == 0
        assert json.loads(out)["upper"] is None

    def test_pinch(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "3", "--alpha", "2", "--h", str(LN(3)))
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(3 ** -0.5, rel=1e-9)
        assert payload["upper"] == pytest.approx(3 ** -0.5, rel=1e-9)

    def test_entropy_range_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "8", "--alpha", "0.5", "--N", "4.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["h_lower"] < payload["h_upper"]

    def test_needs_h_or_norm(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "8", "--alpha", "0.5")
        assert code == 1 and "error" in err

    def test_unsupported_order_message(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "8", "--alpha", "0.3", "--N", "2.0")
        assert code == 1 and "unsupported order" in err

    def test_mutual_range_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "9", "--alpha", "0.5", "--i", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["mutual_lower"] <= payload["mutual_upper"]

    def test_e0_range_mode(self, capsys):
        from entnorm.bounds import envelope_upper_half

        code, out, _ = run(capsys, "eval", "--n", "5", "--rho", "1", "--i", "1.2")
        payload = json.loads(out)
        want = LN(5) - LN(envelope_upper_half(5, LN(5) - 1.2))
        assert payload["e0_lower"] == pytest.approx(want, abs=1e-10)
        assert payload["e0_lower"] <= payload["e0_upper"]

    def test_e0_range_lower_null_large_rho(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "5", "--rho", "2", "--i", "1.0")
        assert json.loads(out)["e0_lower"] is None

    @pytest.mark.parametrize("argv", [
        "--n 3 --alpha 0.5 --h 1.098612288667011",
        "--n 8 --alpha 0.5 --h 2.0794415416777565",
        "--n 10000 --alpha 0.5 --h 9.210340371976175",
        "--n 100000 --alpha 0.5 --i 1e-15",
        "--n 2 --alpha 0.005 --h 0.6931471805599453",
        "--n 2 --alpha 0.01 --N 6.338253001141148e+29",  # one ulp above ||u_2||
    ])
    def test_rounding_in_large_norms_answers(self, capsys, argv):
        # each comparison of norms tolerates its factor times max(1, the norm it is compared against)
        code, out, err = run(capsys, "eval", *argv.split())
        assert code == 0 and err == "" and json.loads(out)["n"] == int(argv.split()[1])

    @pytest.mark.parametrize("norm", ["0.9999999", "6.34e29"])
    def test_norm_outside_range_refused(self, capsys, norm):
        code, out, err = run(capsys, "eval", "--n", "2", "--alpha", "0.01", "--N", norm)
        assert code == 1 and out == "" and "outside attainable range" in err

    def test_i_needs_alpha_or_rho(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "5", "--i", "1.0")
        assert code == 1 and "--alpha" in err and "--rho" in err


class TestTangent:
    def test_half_order(self, capsys):
        code, out, _ = run(capsys, "tangent", "--n", "7", "--alpha", "0.5")
        payload = json.loads(out)
        assert payload["p_star"] == pytest.approx(1 / 42, abs=1e-12)

    def test_binary_inflection_null(self, capsys):
        code, out, _ = run(capsys, "tangent", "--n", "2", "--alpha", "3")
        payload = json.loads(out)
        assert payload["p_star"] == 0.5
        assert payload["h_inflection"] is None and payload["p_inflection"] is None

    def test_ordering(self, capsys):
        code, out, _ = run(capsys, "tangent", "--n", "8", "--alpha", "2")
        payload = json.loads(out)
        assert payload["h_star"] < payload["h_inflection"] < LN(8)

    def test_unsupported(self, capsys):
        code, _, err = run(capsys, "tangent", "--n", "8", "--alpha", "0.3")
        assert code == 1


class TestCurve:
    def test_row_count_and_endpoints(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "8", "--alpha", "0.5", "--grid", "512")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "h,norm_peaked,norm_stepped,lower,upper"
        assert len(lines) == 513
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 1.0 and float(first[4]) == 1.0
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(LN(8), rel=1e-15)
        assert float(last[3]) == pytest.approx(8.0, rel=1e-12)
        assert float(last[4]) == pytest.approx(8.0, rel=1e-12)

    def test_last_row_stepped_norm_is_the_uniform_norm(self, capsys):
        # h = ln 2 inverts the stepped curve to its corner p = 1/2, the vector u_2; its power sum missed ||u_2||
        code, out, _ = run(capsys, "curve", "--n", "2", "--alpha", "0.01", "--grid", "16")
        last = out.strip().split("\n")[-1].split(",")
        assert code == 0 and last[2] == last[3]

    def test_upper_column_empty_when_absent(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "8", "--alpha", "0.3", "--grid", "16")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(r[4] == "" for r in rows)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "4", "--alpha", "2", "--grid", "9", "--format", "json")
        payload = json.loads(out)
        assert len(payload["h"]) == 9
        assert payload["upper"][0] == pytest.approx(1.0)

    def test_json_upper_null_small_order(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "3", "--alpha", "0.3", "--grid", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["upper"] is None
        assert len(payload["lower"]) == 4

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "curve", "--n", "4", "--alpha", "2", "--grid", "5", "--output", str(path))
        assert code == 0 and out == ""
        assert len(path.read_text().strip().split("\n")) == 6

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "curve", "--n", "4", "--alpha", "2", "--output", str(tmp_path / "nope" / "x.csv")
        )
        assert code == 2 and "cannot write" in err

    def test_bits_rescales_h_only(self, capsys):
        _, out_nats, _ = run(capsys, "curve", "--n", "4", "--alpha", "2", "--grid", "3")
        _, out_bits, _ = run(capsys, "curve", "--n", "4", "--alpha", "2", "--grid", "3", "--bits")
        last_nats = out_nats.strip().split("\n")[-1].split(",")
        last_bits = out_bits.strip().split("\n")[-1].split(",")
        assert float(last_bits[0]) == pytest.approx(float(last_nats[0]) / LN(2), rel=1e-15)
        assert last_bits[1:] == last_nats[1:]

    @pytest.mark.parametrize("grid", [2**20 + 1, 10**10])
    def test_grid_above_bound_refused_before_allocating(self, capsys, monkeypatch, grid):
        def no_arrays(*args, **kwargs):
            raise AssertionError("allocated a grid")

        monkeypatch.setattr("entnorm.cli.np.arange", no_arrays)
        code, out, err = run(capsys, "curve", "--n", "8", "--alpha", "2", "--grid", str(grid))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "1048576" in err


class TestVerify:
    def test_ok_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "8", "--alpha", "2", "--samples", "5000", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations_lower"] == 0 and payload["violations_upper"] == 0
        assert payload["seed"] == 42

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--n", "3", "--alpha", "0.5", "--samples", "4000", "--seed", "5", "--output", str(a))
        run(capsys, "verify", "--n", "3", "--alpha", "0.5", "--samples", "4000", "--seed", "5", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_samples_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "8", "--alpha", "2", "--samples", "0")
        assert code == 1

    def test_empty_y_alphabet_usage_error(self, capsys):
        # no joint has an empty Y alphabet: not a violation of the bound
        code, out, err = run(capsys, "verify", "--n", "8", "--alpha", "2", "--y-size", "0")
        assert code == 1 and out == "" and "y_size" in err

    def test_negative_seed_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "8", "--alpha", "2", "--seed", "-1")
        assert code == 1 and out == "" and "seed" in err

    def test_joint_beyond_chunk_budget_refused(self, capsys):
        # ten joints of 1e8 binary rows would take 16 GB: refused before sampling
        code, out, err = run(capsys, "verify", "--n", "2", "--alpha", "2", "--samples", "10", "--y-size", "100000000")
        assert code == 1 and out == "" and err.count("\n") == 1

    def test_nonpositive_order_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "8", "--alpha", "0", "--samples", "10")
        assert code == 1 and out == "" and "alpha" in err

    def test_binary_alphabet_needed_before_sampling(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--n", "1", "--alpha", "2")
        assert code == 1 and out == "" and err.count("\n") == 1

    # every binary sample lies on the envelope; the norms, near 5e5 and 6e29, round by more than 1e-9
    @pytest.mark.parametrize("alpha, samples", [("0.05", "4000"), ("0.01", "1000")])
    def test_rounding_in_large_norms_is_no_violation(self, capsys, alpha, samples):
        code, out, _ = run(capsys, "verify", "--n", "2", "--alpha", alpha, "--samples", samples, "--y-size", "1")
        payload = json.loads(out)
        assert code == 0 and payload["violations_lower"] == 0 and payload["violations_upper"] == 0

    def test_violations_exit_three(self, capsys, monkeypatch):
        import entnorm.cli as cli
        from entnorm.oracle import VerifyReport

        fake = VerifyReport(samples=5, violations_lower=1, violations_upper=0, max_excess=2e-9, seed=0)
        monkeypatch.setattr(cli.oracle, "verify_envelope", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify", "--n", "8", "--alpha", "2", "--samples", "5")
        assert code == 3
        assert json.loads(out)["violations_lower"] == 1


_BRACKET = ("unsupported order alpha=10000000000.0 for n=3: no sign change of the tangency residual brackets the root "
            "in double precision, f(0.333333333321826)=4.277023180065953e-12, "
            "f(1.0000000000000004e-34)=0.6526336885500562")


class TestRefusalsBeforeWork:
    """Each refusal keeps its message, and none waits for a drawn joint or an inverted grid."""

    @pytest.mark.parametrize("argv, message", [
        ("--n 1 --alpha 2", "n=1 must be from 2 to 100000000000000"),
        ("--n 8 --alpha 2 --y-size 0", "y_size=0 must be >= 1"),
        ("--n 8 --alpha 2 --seed -1", "seed=-1 must be >= 0"),
        ("--n 8 --alpha 2 --samples 0", "samples=0 must be >= 1"),
        ("--n 8 --alpha 2 --y-size 10000000", "a sample of 80000000 floats exceeds the 16777216-float chunk budget"),
        ("--n 8 --alpha 0", "alpha=0.0 must be positive"),
        ("--n 8 --alpha -1", "alpha=-1.0 must be positive"),
        ("--n 8 --alpha nan", "alpha=nan must be positive"),
        ("--n 8 --alpha 1", "unsupported order alpha=1.0: the envelopes need a positive alpha != 1"),
        ("--n 2 --alpha 1e-4", "unsupported order alpha=0.0001: a value at this order is not a finite double"),
        ("--n 3 --alpha 1e10 --samples 1000000", _BRACKET),
    ])
    def test_verify_refuses_before_drawing(self, capsys, monkeypatch, argv, message):
        def drawn(*args):
            raise AssertionError("drew a joint")

        monkeypatch.setattr("entnorm.oracle._chunk_measures", drawn)
        monkeypatch.setattr("entnorm.oracle._sample_simplex", drawn)
        assert run(capsys, "verify", *argv.split()) == (1, "", f"ent-norm: error: {message}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curve_solves_the_tangent_before_inverting_the_grid(self, capsys, monkeypatch, fmt):
        def inverted(n, h):
            raise AssertionError("inverted the grid")

        monkeypatch.setattr("entnorm.curves.inv_entropy_peaked", inverted)
        monkeypatch.setattr("entnorm.curves.inv_entropy_stepped", inverted)
        argv = ["curve", "--n", "3", "--alpha", "1e10", "--grid", "1048576", "--format", fmt]
        assert run(capsys, *argv) == (1, "", f"ent-norm: error: {_BRACKET}\n")


class TestMeasures:
    def test_lower_boundary_witness_file(self, capsys, tmp_path):
        j = witness_min(3, (LN(2) + LN(3)) / 2)
        path = tmp_path / "joint.json"
        path.write_text(
            json.dumps({"py": j.py.tolist(), "rows": j.rows.tolist()})
        )
        code, out, _ = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["on_lower_boundary"] is True
        assert payload["h"] == pytest.approx(cond_shannon(j), abs=1e-12)
        assert payload["expected_norm"] == pytest.approx(expected_alpha_norm(j, 2.0), abs=1e-12)

    @pytest.mark.parametrize("h", [0.05, 0.4, 0.69])
    def test_binary_small_order_witnesses_on_their_boundary(self, capsys, tmp_path, h):
        # norms near 1e29 agree to 3e-15 relative, far above an absolute 1e-9
        for joint, flag in ((witness_min(2, h), "on_lower_boundary"), (witness_max(2, 0.01, h), "on_upper_boundary")):
            path = tmp_path / "joint.json"
            path.write_text(json.dumps({"py": joint.py.tolist(), "rows": joint.rows.tolist()}))
            code, out, _ = run(capsys, "measures", "--alpha", "0.01", "--input", str(path))
            assert code == 0 and json.loads(out)[flag] is True

    def test_uniform_rows(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"py": [0.5, 0.5], "rows": [[0.25] * 4, [0.25] * 4]}))
        code, out, _ = run(capsys, "measures", "--alpha", "0.5", "--input", str(path))
        payload = json.loads(out)
        assert payload["renyi"] == pytest.approx(LN(4), rel=1e-12)
        assert payload["on_upper_boundary"] is True

    def test_bits_scales_entropic_fields_only(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"py": [0.5, 0.5], "rows": [[0.25] * 4, [0.25] * 4]}))
        _, out_n, _ = run(capsys, "measures", "--alpha", "0.5", "--input", str(path))
        _, out_b, _ = run(capsys, "measures", "--alpha", "0.5", "--input", str(path), "--bits")
        nats, bits = json.loads(out_n), json.loads(out_b)
        assert bits["h"] == pytest.approx(nats["h"] / LN(2), rel=1e-15)
        assert bits["renyi"] == pytest.approx(2.0, rel=1e-12)  # ln 4 in bits
        assert bits["rnorm"] == nats["rnorm"]
        assert bits["expected_norm"] == nats["expected_norm"]

    def test_deterministic_rows(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"py": [0.4, 0.6], "rows": [[1, 0, 0], [0, 0, 1]]}))
        code, out, _ = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        payload = json.loads(out)
        assert payload["h"] == 0.0 and payload["renyi"] == 0.0 and payload["rnorm"] == 0.0

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"py": [1.0], "rows": [[1.0]], "extra": 1}))
        code, _, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and "unknown field" in err

    def test_malformed_row_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"py": [0.5, 0.5], "rows": [[0.6, 0.4], [0.7, 0.5]]}))
        code, _, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and "row 1" in err

    @pytest.mark.parametrize("data, where", [
        ({"py": [0.5, "0.5"], "rows": [[1.0], [1.0]]}, "field 'py'"),
        ({"py": [0.5, 0.5], "rows": [[1.0, 0.0], [0.5, "0.5"]]}, "field 'rows', row 1"),
        ({"py": [0.5, 0.5], "rows": [[1.0, 0.0], [0.5, 0.25, 0.25]]}, "field 'rows', row 1"),
        ({"py": [0.5, 0.5], "rows": [[1.0, 0.0], [10**400, 0]]}, "field 'rows', row 1"),  # beyond any double
    ])
    def test_string_or_ragged_entries_name_field_and_row(self, capsys, tmp_path, data, where):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and out == "" and where in err and err.count("\n") == 1

    def test_invalid_json_line_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text('{"py": [1.0],\n "rows": [[1.0]],}')
        code, _, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "measures", "--alpha", "2", "--input", str(tmp_path / "gone.json"))
        assert code == 2

    @pytest.mark.parametrize("data, message", [
        ([{"py": [1.0], "rows": [[1.0]]}], "top level must be a JSON object"),
        ({"py": [1.0]}, "missing required field(s) ['rows']"),
    ])
    def test_wrong_shape_of_file_exits_two(self, capsys, tmp_path, data, message):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and out == "" and message in err and err.count("\n") == 1


class TestChannel:
    def write_bsc(self, tmp_path, eps=0.1):
        path = tmp_path / "bsc.json"
        path.write_text(json.dumps({"transitions": [[1 - eps, eps], [eps, 1 - eps]]}))
        return path

    def test_identity_channel_cutoff(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"transitions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, out, _ = run(capsys, "channel", "--rho", "1", "--input", str(path))
        payload = json.loads(out)
        assert payload["e0"] == pytest.approx(LN(3), rel=1e-12)
        assert payload["identity_residual"] < 1e-12

    def test_constant_channel_pinch(self, capsys, tmp_path):
        path = tmp_path / "const.json"
        path.write_text(json.dumps({"transitions": [[0.4, 0.6], [0.4, 0.6], [0.4, 0.6]]}))
        code, out, _ = run(capsys, "channel", "--rho", "0.25", "--input", str(path))
        payload = json.loads(out)
        assert payload["mutual"] == pytest.approx(0.0, abs=1e-9)
        assert payload["e0"] == pytest.approx(0.0, abs=1e-9)
        assert payload["e0_lower"] == pytest.approx(0.0, abs=1e-6)
        assert payload["e0_upper"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("flag, value, rho", [("--rho", "700", 700.0), ("--alpha", "1e-3", 999.0)])
    def test_identity_channel_large_rho(self, capsys, tmp_path, flag, value, rho):
        # every inner mean to the power 1 + rho is below the smallest float here
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"transitions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, out, err = run(capsys, "channel", flag, value, "--input", str(path))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["rho"] == pytest.approx(rho, rel=1e-15)
        assert payload["e0"] == pytest.approx(payload["rho"] * LN(3), rel=1e-13)

    @pytest.mark.parametrize("argv", [["channel", "--alpha", "5e-324"], ["channel", "--rho", "inf"],
                                      ["eval", "--n", "3", "--rho", "inf", "--i", "0.5"]])
    def test_non_finite_rho_names_rho(self, capsys, tmp_path, argv):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"transitions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, out, err = run(capsys, *argv, *(["--input", str(path)] if argv[0] == "channel" else []))
        assert code == 1 and out == "" and err.count("\n") == 1 and "rho=inf" in err

    def test_identity_channel_huge_rho_answers(self, capsys, tmp_path):
        # order 1e-6 at h = 0: the lower envelope is the norm 1 of u_1, and u_2's norm (beyond
        # any double) has weight 0
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"transitions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, out, err = run(capsys, "channel", "--rho", "1e6", "--input", str(path))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["e0_lower"] is None and payload["e0_upper"] == pytest.approx(1e6 * LN(3), rel=1e-15)
        assert payload["e0"] == pytest.approx(payload["e0_upper"], rel=1e-15)

    def test_bsc_containment(self, capsys, tmp_path):
        code, out, _ = run(capsys, "channel", "--rho", "1", "--input", str(self.write_bsc(tmp_path)))
        payload = json.loads(out)
        assert payload["identity_residual"] < 1e-12
        assert payload["e0_lower"] - 1e-9 <= payload["e0"] <= payload["e0_upper"] + 1e-9

    def test_alpha_instead_of_rho(self, capsys, tmp_path):
        code, out, _ = run(capsys, "channel", "--alpha", "0.5", "--input", str(self.write_bsc(tmp_path)))
        payload = json.loads(out)
        assert payload["rho"] == pytest.approx(1.0)

    def test_needs_alpha_or_rho(self, capsys, tmp_path):
        code, _, err = run(capsys, "channel", "--input", str(self.write_bsc(tmp_path)))
        assert code == 1 and "--alpha or --rho" in err

    @pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.5, "0.5"]], [[1.0, 0.0], [1.0]], [[1.0, 0.0], [0, 10**400]]])
    def test_string_or_ragged_entries_name_field_and_row(self, capsys, tmp_path, rows):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"transitions": rows}))
        code, out, err = run(capsys, "channel", "--rho", "1", "--input", str(path))
        assert code == 2 and out == "" and "field 'transitions', row 1" in err and err.count("\n") == 1

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"transitions": [[1.0]], "name": "x"}))
        code, _, err = run(capsys, "channel", "--rho", "1", "--input", str(path))
        assert code == 2


class TestExtremeOrders:
    @pytest.mark.parametrize("argv", [["tangent", "--n", "8", "--alpha", "1000"],
                                      ["eval", "--n", "8", "--alpha", "1000", "--h", "1"],
                                      ["eval", "--n", "3", "--rho", "-0.999999", "--i", "0.5"]])
    def test_large_orders_answer(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and all(math.isfinite(v) for v in json.loads(out).values() if v is not None)

    def test_small_order_at_zero_entropy_answers(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "3", "--alpha", "1e-6", "--h", "0")
        assert code == 0 and err == ""
        assert json.loads(out) == {"n": 3, "alpha": 1e-6, "h": 0.0, "lower": 1.0, "upper": None}

    @pytest.mark.parametrize("argv", [["tangent", "--n", "3", "--alpha", "1e10"],
                                      ["eval", "--n", "1000000", "--alpha", "1e6", "--h", "1"],
                                      ["eval", "--n", "10000", "--alpha", "0.999999999999", "--h", "1"]])
    def test_tangent_bracket_failure_names_the_order(self, capsys, argv):
        # the tangency residual has one sign at both ends of its bracket in doubles
        code, out, err = run(capsys, *argv)
        n, alpha = int(argv[2]), float(argv[4])
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"unsupported order alpha={alpha!r} for n={n}: " in err

    def test_measures_large_order(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"py": [0.5, 0.5], "rows": [[0.7, 0.2, 0.1], [0.3, 0.3, 0.4]]}))
        code, out, err = run(capsys, "measures", "--alpha", "1000", "--input", str(path))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["lower"] <= payload["expected_norm"] <= payload["upper"]

    # at n = 2 and order 1e4 every direct power underflowed: 64 false lower violations, exit 3
    @pytest.mark.parametrize("n, alpha, samples, y", [("8", "1000", "20000", "4"), ("2", "1e4", "64", "3")])
    def test_large_order_verify_has_no_violations(self, capsys, n, alpha, samples, y):
        code, out, _ = run(capsys, "verify", "--n", n, "--alpha", alpha, "--samples", samples, "--y-size", y)
        payload = json.loads(out)
        assert code == 0 and payload["violations_lower"] == 0 and payload["violations_upper"] == 0

    @pytest.mark.parametrize("argv", [["eval", "--n", "8", "--alpha", "1e-3", "--h", "1"],
                                      ["verify", "--n", "2", "--alpha", "1e-300"],
                                      ["verify", "--n", "3", "--alpha", "1e-300", "--samples", "1000"],
                                      # exited 0 over 1000 NaN excesses: the norms overflow
                                      ["verify", "--n", "8", "--alpha", "1e-3", "--samples", "1000"],
                                      ["curve", "--n", "8", "--alpha", "1e300", "--grid", "8"]])
    def test_orders_beyond_doubles_exit_one_naming_the_order(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "unsupported" in err and "alpha" in err


_TOP = 10**14  # the largest alphabet


class TestAlphabetEdges:
    """Every command that takes n answers at 10^14 and refuses n = 1 and 10^14 + 1 with one line."""

    @pytest.mark.parametrize("argv", ["eval --alpha 2 --h 1", "eval --alpha 0.7 --N 2", "eval --alpha 2 --i 1",
                                      "eval --rho 1 --i 1", "tangent --alpha 2", "curve --alpha 2 --grid 3"])
    def test_answers_at_the_top_and_refuses_above(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--n", str(_TOP))
        assert code == 0 and out and err == ""
        assert run(capsys, *argv.split(), "--n", str(_TOP + 1)) == (
            1, "", f"ent-norm: error: n={_TOP + 1} must be from 2 to {_TOP}\n")

    @pytest.mark.parametrize("alpha", ["0.3", "2", "inf"])
    @pytest.mark.parametrize("cmd, doc", [("measures", {"py": [1.0], "rows": [[1.0]]}),
                                          ("channel", {"transitions": [[1.0]]})])
    def test_one_symbol_files_refused_at_every_order(self, capsys, tmp_path, cmd, doc, alpha):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        # channel at order inf is rho = -1, which the E0 parameter's own check refuses first
        message = "rho=-1.0 must be finite and exceed -1" if (cmd, alpha) == ("channel", "inf") else (
            f"n=1 must be from 2 to {_TOP}")
        assert run(capsys, cmd, "--alpha", alpha, "--input", str(path)) == (1, "", f"ent-norm: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("--n -5 --i nan", f"n=-5 must be from 2 to {_TOP}"),
        ("--n 0 --i 1e300", f"n=0 must be from 2 to {_TOP}"),
        ("--n 1 --i 0", f"n=1 must be from 2 to {_TOP}"),
        ("--n 5 --i nan", "i=nan outside [0, ln 5]"),
        ("--n 5 --i 1e300", "i=1e+300 outside [0, ln 5]"),
    ])
    def test_rho_zero_checks_n_and_i(self, capsys, argv, message):
        assert run(capsys, "eval", "--rho", "0", *argv.split()) == (1, "", f"ent-norm: error: {message}\n")

    def test_rho_zero_answers_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "5", "--rho", "0", "--i", "1")
        assert code == 0 and json.loads(out)["e0_lower"] == json.loads(out)["e0_upper"] == 0.0


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "curve", "--alpha", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [["curve", "--alpha", "2"], ["eval", "--alpha", "2", "--i", "0.1"]])
    def test_empty_alphabet_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--n", "0")
        assert code == 1 and out == "" and "n=0" in err

    def test_alpha_one_rejected(self, capsys):
        code, _, err = run(capsys, "curve", "--n", "4", "--alpha", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [["eval", "--n", "12", "--h", "0", "--alpha", "0.5", "--rho", "0.78"],
                                      ["eval", "--n", "5", "--alpha", "2", "--rho", "1", "--i", "1.2"],
                                      ["channel", "--alpha", "1e300", "--rho", "5997.7"],
                                      ["channel", "--alpha", "2", "--rho", "1"]])
    def test_alpha_and_rho_exclude_each_other(self, capsys, tmp_path, argv):
        # each used to answer with one of the two and drop the other
        path = tmp_path / "bsc.json"
        path.write_text(json.dumps({"transitions": [[0.9, 0.1], [0.1, 0.9]]}))
        code, out, err = run(capsys, *argv, *(["--input", str(path)] if argv[0] == "channel" else []))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "--rho" in err and "--alpha" in err


@pytest.mark.parametrize("argv, entropic", [
    (["eval", "--n", "8", "--alpha", "2", "--h", "1.2"], {"h"}),
    (["eval", "--n", "8", "--alpha", "0.5", "--N", "4.0"], {"h_lower", "h_upper"}),
    (["eval", "--n", "9", "--alpha", "0.5", "--i", "1.0"], {"i", "mutual_lower", "mutual_upper"}),
    (["eval", "--n", "5", "--rho", "1", "--i", "1.2"], {"i", "e0_lower", "e0_upper"}),
    (["tangent", "--n", "8", "--alpha", "2"], {"h_star", "h_inflection"}),
    (["channel", "--rho", "0.5", "--input", "channel.json"],
     {"mutual", "mutual_alpha", "e0", "identity_residual", "e0_lower", "e0_upper"}),
    (["measures", "--alpha", "2", "--input", "joint.json"], {"h", "renyi"}),
    (["curve", "--n", "4", "--alpha", "2", "--grid", "5", "--format", "json"], {"h"}),
])
def test_bits_divides_exactly_the_entropic_entries(capsys, tmp_path, argv, entropic):
    docs = {"channel.json": {"transitions": [[0.9, 0.1], [0.1, 0.9]]},
            "joint.json": {"py": [0.5, 0.5], "rows": [[0.25] * 4, [0.7, 0.1, 0.1, 0.1]]}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    _, out_nats, _ = run(capsys, *argv)
    _, out_bits, _ = run(capsys, *argv, "--bits")
    nats, bits = json.loads(out_nats), json.loads(out_bits)
    assert bits.keys() == nats.keys() and all(nats[k] is not None for k in entropic)
    for k, v in nats.items():
        if k in entropic:
            v = [x / LN(2) for x in v] if isinstance(v, list) else v / LN(2)
        assert bits[k] == v, k


def test_python_dash_m_runs_the_cli():
    import entnorm

    src = str(Path(entnorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "entnorm", "tangent", "--n", "3", "--alpha", "0.5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["p_star"] == pytest.approx(1 / 6, abs=1e-15)


# Numbers from the whole float range, with the edges spelled out, and orders inside the domain.
_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0, -1.0, 0.5]
_NUMBER = st.one_of(st.sampled_from(_EDGES), st.floats(), st.floats(1e-3, 1e4), st.floats(0.0, 3.0))
_N = st.one_of(st.integers(-1, 12), st.integers(2, 10**30), st.sampled_from([10**14, 10**14 + 1]))


def _flag(name, x):
    return f"--{name}={x!r}"  # '=' keeps '-inf' and '-1e+300' from reading as flags


@st.composite
def _argv(draw, files):
    cmd = draw(st.sampled_from(["curve", "eval", "tangent", "verify", "measures", "channel"]))
    n = draw(_N)
    if cmd == "curve":
        argv = ["curve", f"--n={n}", _flag("alpha", draw(_NUMBER)), f"--grid={draw(st.integers(-1, 64))}",
                f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    elif cmd == "eval":
        argv = ["eval", f"--n={n}", _flag(draw(st.sampled_from(["h", "N", "i"])), draw(_NUMBER))]
        argv += [_flag(k, draw(_NUMBER)) for k in draw(st.sampled_from([["alpha"], ["rho"], ["alpha", "rho"], []]))]
    elif cmd == "tangent":
        argv = ["tangent", f"--n={n}", _flag("alpha", draw(_NUMBER))]
    elif cmd == "verify":
        y = draw(st.integers(-1, 8))
        if 1 << 20 < n <= 1 << 24:
            n = 1 << 20  # a joint this wide fits the chunk budget and would draw up to 128 MB; wider ones are refused
        if abs(n) * max(y, 1) > 1 << 20:
            y = 1  # at most 2^20 row entries: the widest alphabets draw one small joint
        samples = min(draw(st.integers(-1, 256)), max(1, (1 << 20) // (abs(n) * max(y, 1) or 1)))
        argv = ["verify", f"--n={n}", _flag("alpha", draw(_NUMBER)), f"--samples={samples}",
                f"--seed={draw(st.integers(-1, 3))}", f"--y-size={y}"]
    else:
        argv = [cmd, f"--input={draw(st.sampled_from(files[cmd]))}"]
        argv += [_flag(k, draw(_NUMBER)) for k in ("alpha", "rho") if cmd == "channel" and draw(st.booleans())]
        if cmd == "measures" or draw(st.booleans()):
            argv.append(_flag("alpha", draw(_NUMBER)))
    if draw(st.booleans()):
        argv.append("--bits")
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {
        "measures": [{"py": [1.0], "rows": [[1.0, 0.0, 0.0]]},
                     {"py": [0.5, 0.5], "rows": [[0.25] * 4, [0.7, 0.1, 0.1, 0.1]]},
                     {"py": [0.2, 0.3, 0.5], "rows": [[0.5, 0.5], [1.0, 0.0], [0.1, 0.9]]},
                    {"py": [1.0], "rows": [[1.0]]}],
        "channel": [{"transitions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    {"transitions": [[0.9, 0.1], [0.1, 0.9]]},
                    {"transitions": [[0.4, 0.6], [0.4, 0.6], [0.4, 0.6]]},
                    {"transitions": [[0.5, 0.25, 0.25, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4, 0.0],
                                     [0.0, 0.0, 0.0, 0.0, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2]]},
                    {"transitions": [[1.0]]}],
    }
    files = {}
    for cmd, objs in docs.items():
        files[cmd] = []
        for i, obj in enumerate(objs):
            path = root / f"{cmd}{i}.json"
            path.write_text(json.dumps(obj))
            files[cmd].append(str(path))
    return files


def test_any_argv_exits_with_a_documented_code(fuzz_files):
    # the RuntimeWarning filter turns any numpy warning inside main into a failure here
    @settings(max_examples=1500)
    @given(_argv(fuzz_files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert not (code == 0 and {a.split("=")[0] for a in argv} >= {"--alpha", "--rho"}), argv
        if code in (1, 2):
            assert err.getvalue().count("\n") == 1 and out.getvalue() == "", (argv, err.getvalue())

    check()


# Command lines for both parse paths: help, no command, unknown commands, "--" on either side of the command,
# unknown, duplicate, abbreviated and conflicting flags, bad types, extra positionals and runs that answer.
# "{measures}" and "{channel}" name a fuzz file.
_DISPATCH_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["--h"], ["-h", "eval"], ["--bits"], ["--n", "8", "tangent"],
    ["frobnicate"], ["frobnicate", "--n", "8"], ["Eval"], ["ev", "--n", "8", "--alpha", "2", "--h", "1"],
    ["--", "tangent", "--n", "8", "--alpha", "2"], ["tangent", "--", "--n", "8", "--alpha", "2"],
    ["tangent", "--n", "8", "--alpha", "2", "--"], ["tangent", "--n", "8", "--", "--alpha", "2"],
    *([cmd, flag] for cmd in ("curve", "eval", "tangent", "verify", "measures", "channel") for flag in ("-h", "--he")),
    ["tangent", "--n", "8", "-h"], ["eval", "-h", "--zzz"],
    ["tangent", "--n", "8", "--alpha", "2"], ["tangent", "--n=8", "--alpha=2", "--bits"],
    ["tangent", "--n", "8", "--alpha", "2", "--zzz"], ["tangent", "--n", "8", "--n", "9", "--alpha", "2"],
    ["tangent", "--n", "8", "--al", "2", "--b"], ["tangent", "--n", "8", "--alpha", "2", "extra"],
    ["tangent", "extra", "--n", "8", "--alpha", "2"], ["tangent"], ["tangent", "--n", "x", "--alpha", "2"],
    ["eval", "--n", "8", "--alpha", "2", "--h", "1"], ["eval", "--n", "8", "--alpha", "2"],
    ["eval", "--n", "8", "--alpha", "2", "--h", "1", "--N", "2"],
    ["eval", "--n", "8", "--alpha", "2", "--rho", "1", "--h", "1"],
    ["eval", "--n", "8", "--alpha", "2", "--h", "-1"], ["eval", "--n", "8", "--alpha", "0.5", "--N=-inf"],
    ["eval", "--n", "5", "--rho", "1", "--i", "1.2"], ["eval", "--n", "8", "--alpha", "1", "--h", "1"],
    ["curve", "--n", "4", "--alpha", "2", "--grid", "5"], ["curve", "--n", "4", "--alpha", "2", "--grid", "1.5"],
    ["curve", "--n", "4", "--alpha", "2", "--grid", "5", "--format", "xml"],
    ["curve", "--n", "4", "--alpha", "2", "--grid", "5", "--fo", "json"],
    ["verify", "--n", "4", "--alpha", "2", "--samples", "50", "--seed", "1"],
    ["verify", "--n", "4", "--alpha", "2", "--samples", "0"],
    ["measures", "--alpha", "2", "--input", "{measures}"], ["measures", "--alpha", "2", "--input", "/nonexistent"],
    ["measures", "--alpha", "2"], ["channel", "--rho", "0.5", "--input", "{channel}"],
    ["channel", "--alpha", "2", "--rho", "1", "--input", "{channel}"], ["channel", "--input", "{channel}", "--n", "3"],
]


def _main_outcome(argv):
    """main(argv)'s exit code (or ("SystemExit", code) where it raised that), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _namespace(parse, argv):
    """The repr of the namespace parse gives argv, without `command` (repr tells a NaN and -0.0 apart), or the
    UsageError's text."""
    try:
        found = vars(parse(argv))
    except UsageError as exc:
        return str(exc)
    found.pop("command", None)
    return repr(sorted(found.items()))


class TestDispatch:
    """main sends a command line to its command's parser directly: every outcome is the top-level parser's."""

    @pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
    def test_main_matches_the_top_level_parser(self, fuzz_files, monkeypatch, argv):
        argv = [a.format(measures=fuzz_files["measures"][1], channel=fuzz_files["channel"][1]) for a in argv]
        direct = _main_outcome(argv)
        monkeypatch.setattr(build_parser(), "commands", {})  # no command found: all of argv to the top level
        assert direct == _main_outcome(argv)
        if "-h" in argv[:2]:
            assert direct[0] == ("SystemExit", 0) and direct[1].startswith("usage: ent-norm") and direct[2] == ""

    def test_fuzzed_argv_parse_to_the_same_namespace(self, fuzz_files):
        parser = build_parser()

        @settings(max_examples=300)
        @given(_argv(fuzz_files))
        def check(argv):
            assert _namespace(parser.commands[argv[0]].parse_args, argv[1:]) == _namespace(parser.parse_args, argv)

        check()

    def test_main_after_the_parser_cache_is_cleared(self):
        argv = ["tangent", "--n", "8", "--alpha", "2"]
        before, old = _main_outcome(argv), build_parser()
        build_parser.cache_clear()  # as perfbench does before every pass
        assert _main_outcome(argv) == before and before[0] == 0
        new = build_parser()
        assert new is not old and new.commands["tangent"] is not old.commands["tangent"]
