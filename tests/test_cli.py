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

from entnorm.cli import main
from entnorm.measures import cond_shannon, expected_alpha_norm
from entnorm.oracle import witness_min

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

    def test_violations_exit_three(self, capsys, monkeypatch):
        import entnorm.cli as cli
        from entnorm.oracle import VerifyReport

        fake = VerifyReport(samples=5, violations_lower=1, violations_upper=0, max_excess=2e-9, seed=0)
        monkeypatch.setattr(cli.oracle, "verify_envelope", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify", "--n", "8", "--alpha", "2", "--samples", "5")
        assert code == 3
        assert json.loads(out)["violations_lower"] == 1


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
    ])
    def test_string_or_ragged_entries_name_field_and_row(self, capsys, tmp_path, data, where):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and out == "" and where in err

    def test_invalid_json_line_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text('{"py": [1.0],\n "rows": [[1.0]],}')
        code, _, err = run(capsys, "measures", "--alpha", "2", "--input", str(path))
        assert code == 2 and "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "measures", "--alpha", "2", "--input", str(tmp_path / "gone.json"))
        assert code == 2


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

    @pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.5, "0.5"]], [[1.0, 0.0], [1.0]]])
    def test_string_or_ragged_entries_name_field_and_row(self, capsys, tmp_path, rows):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"transitions": rows}))
        code, out, err = run(capsys, "channel", "--rho", "1", "--input", str(path))
        assert code == 2 and out == "" and "field 'transitions', row 1" in err

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
_N = st.one_of(st.integers(-1, 12), st.integers(2, 10**6))


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
                     {"py": [0.2, 0.3, 0.5], "rows": [[0.5, 0.5], [1.0, 0.0], [0.1, 0.9]]}],
        "channel": [{"transitions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    {"transitions": [[0.9, 0.1], [0.1, 0.9]]},
                    {"transitions": [[0.4, 0.6], [0.4, 0.6], [0.4, 0.6]]},
                    {"transitions": [[0.5, 0.25, 0.25, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4, 0.0],
                                     [0.0, 0.0, 0.0, 0.0, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2]]}],
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
        if code in (1, 2):
            assert err.getvalue().count("\n") == 1 and out.getvalue() == "", (argv, err.getvalue())

    check()
