"""Command line front end: curve export, bound evaluation, verification sweeps.

Commands
--------
curve     write (h, curve and envelope values) on a uniform h-grid (csv/json)
eval      envelope at a given entropy, or entropy range at a given norm (json)
tangent   tangency and inflection data for (n, alpha) (json)
verify    Monte Carlo envelope sweep; exit 3 if any violation is found
measures  conditional measures of a joint-distribution file and its envelope
channel   mutual information, E0 and their bounds for a channel file

Exit codes: 0 ok, 1 usage / unsupported parameters, 2 I/O or malformed
input, 3 verification failure. All entropic outputs are in nats unless
--bits is given, which only rescales the presentation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import bounds, curves, measures, oracle
from .simplex import DomainError, NumericalError, np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VIOLATION = 3

_LN2 = math.log(2.0)


class UsageError(Exception):
    """Bad flags or parameter combinations (exit 1)."""


class InputError(Exception):
    """Unreadable or malformed input files (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for I/O only
        raise UsageError(message)


def _scale(x: float | None, bits: bool) -> float | None:
    if x is None or not bits:
        return x
    return x / _LN2


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


def _load_json_object(path: str, allowed: set[str], required: set[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"{path}: unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(data)
    if missing:
        raise InputError(f"{path}: missing required field(s) {sorted(missing)}")
    return data


def _check_numbers(path: str, field: str, raw, index: int | None = None) -> None:
    if not isinstance(raw, list) or not all(isinstance(v, (int, float)) for v in raw):
        where = f"{path}: field '{field}'" + ("" if index is None else f", row {index}")
        raise InputError(f"{where}: expected a list of numbers")


def _check_rows(path: str, field: str, raw) -> None:
    if not isinstance(raw, list):
        raise InputError(f"{path}: field '{field}' must be a list of rows")
    for i, row in enumerate(raw):
        _check_numbers(path, field, row, i)


def load_joint(path: str) -> measures.JointDist:
    """Read a joint-distribution file: {"py": [...], "rows": [[...], ...]}."""
    data = _load_json_object(path, allowed={"py", "rows"}, required={"py", "rows"})
    _check_numbers(path, "py", data["py"])
    _check_rows(path, "rows", data["rows"])
    try:
        return measures.JointDist(py=data["py"], rows=data["rows"])
    except DomainError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_channel(path: str) -> measures.Channel:
    """Read a channel file: {"transitions": [[...], ...]}."""
    data = _load_json_object(path, allowed={"transitions"}, required={"transitions"})
    _check_rows(path, "transitions", data["transitions"])
    try:
        return measures.Channel(transitions=data["transitions"])
    except DomainError as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_curve(args) -> int:
    n, alpha = args.n, args.alpha
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    curves._check_n(n)
    h = math.log(n) * np.arange(args.grid) / (args.grid - 1)
    cols = {
        "h": _scale(h, args.bits),
        "norm_peaked": curves.norm_peaked(n, curves.inv_entropy_peaked(n, h), alpha),
        "norm_stepped": curves.norm_stepped(n, curves.inv_entropy_stepped(n, h), alpha),
        "lower": bounds.envelope_lower(n, alpha, h),
        "upper": bounds.envelope_upper(n, alpha, h) if bounds.has_upper_envelope(n, alpha) else None,
    }
    cols = {k: None if v is None else v.tolist() for k, v in cols.items()}
    if args.format == "csv":
        lines = [",".join(cols)]
        for row in zip(*(v or [None] * args.grid for v in cols.values())):
            lines.append(",".join("" if x is None else "%.17g" % x for x in row))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_dump_json({"n": n, "alpha": alpha, **cols}), args.output)
    return EXIT_OK


def cmd_eval(args) -> int:
    n = args.n
    if args.i is not None:
        if args.rho is not None:
            lo, hi = measures.e0_range_for_mutual(n, args.rho, args.i)
            payload = {
                "n": n,
                "rho": args.rho,
                "i": _scale(args.i, args.bits),
                "e0_lower": _scale(lo, args.bits),
                "e0_upper": _scale(hi, args.bits),
            }
        elif args.alpha is not None:
            lo, hi = measures.mutual_range_for_mutual(n, args.alpha, args.i)
            payload = {
                "n": n,
                "alpha": args.alpha,
                "i": _scale(args.i, args.bits),
                "mutual_lower": _scale(lo, args.bits),
                "mutual_upper": _scale(hi, args.bits),
            }
        else:
            raise UsageError("--i needs --alpha (mutual range) or --rho (E0 range)")
        _emit(_dump_json(payload), None)
        return EXIT_OK
    if args.alpha is None:
        raise UsageError("--h and --N need --alpha")
    alpha = args.alpha
    if args.h is not None:
        env = bounds.envelope(n, alpha, args.h)
        payload = {
            "n": n,
            "alpha": alpha,
            "h": _scale(args.h, args.bits),
            "lower": env.lower,
            "upper": env.upper,
        }
    else:
        h_lo, h_hi = bounds.cond_entropy_range_for_norm(n, alpha, args.norm)
        payload = {
            "n": n,
            "alpha": alpha,
            "norm": args.norm,
            "h_lower": _scale(h_lo, args.bits),
            "h_upper": _scale(h_hi, args.bits),
        }
    _emit(_dump_json(payload), None)
    return EXIT_OK


def cmd_tangent(args) -> int:
    n, alpha = args.n, args.alpha
    ts = curves.tangent_point(n, alpha)
    if n >= 3:
        ip = curves.inflection_point(n, alpha)
        h_inf, p_inf = ip.h, ip.p
    else:
        h_inf = p_inf = None  # binary curve is concave throughout
    payload = {
        "n": n,
        "alpha": alpha,
        "p_star": ts.p,
        "h_star": _scale(ts.h, args.bits),
        "norm_star": ts.norm,
        "h_inflection": _scale(h_inf, args.bits),
        "p_inflection": p_inf,
    }
    _emit(_dump_json(payload), None)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = oracle.verify_envelope(args.n, args.alpha, args.samples, args.seed, y_size=args.y_size)
    _emit(_dump_json(dataclasses.asdict(report)), args.output)
    if report.violations_lower or report.violations_upper:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_measures(args) -> int:
    joint = load_joint(args.input)
    n, alpha = joint.n, args.alpha
    h = measures.cond_shannon(joint)
    norm = measures.expected_alpha_norm(joint, alpha)
    env = bounds.envelope(n, alpha, h)
    payload = {
        "n": n,
        "alpha": alpha,
        "h": _scale(h, args.bits),
        "expected_norm": norm,
        "renyi": _scale(measures.cond_renyi(joint, alpha), args.bits),
        "rnorm": measures.cond_rnorm(joint, alpha),
        "lower": env.lower,
        "upper": env.upper,
        "on_lower_boundary": bool(abs(norm - env.lower) <= 1e-9),
        "on_upper_boundary": None if env.upper is None else bool(abs(norm - env.upper) <= 1e-9),
    }
    _emit(_dump_json(payload), None)
    return EXIT_OK


def cmd_channel(args) -> int:
    channel = load_channel(args.input)
    if args.rho is None and not args.alpha > 0.0:
        raise UsageError(f"--alpha must be positive, got {args.alpha}")
    rho = 1.0 / args.alpha - 1.0 if args.rho is None else args.rho
    measures._check_rho(rho)
    alpha = 1.0 / (1.0 + rho) if args.rho is not None else args.alpha
    n = channel.n_in
    # under uniform input I_a = ln n - H_a(X|Y): one posterior serves both orders
    joint = measures.joint_from_channel_uniform(channel)
    mutual = min(max(math.log(n) - measures.cond_shannon(joint), 0.0), math.log(n))
    mutual_alpha = math.log(n) - measures.cond_renyi(joint, alpha)
    e0 = measures.gallager_e0_uniform(channel, rho)
    residual = abs(e0 - rho * mutual_alpha)
    e0_lo, e0_hi = measures.e0_range_for_mutual(n, rho, mutual)
    payload = {
        "n_in": n,
        "alpha": alpha,
        "rho": rho,
        "mutual": _scale(mutual, args.bits),
        "mutual_alpha": _scale(mutual_alpha, args.bits),
        "e0": _scale(e0, args.bits),
        "identity_residual": _scale(residual, args.bits),
        "e0_lower": _scale(e0_lo, args.bits),
        "e0_upper": _scale(e0_hi, args.bits),
    }
    _emit(_dump_json(payload), None)
    return EXIT_OK


@functools.cache  # argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ent-norm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, alpha=True):
        p.add_argument("--n", type=int, required=True, help="alphabet size of X")
        if alpha:
            p.add_argument("--alpha", type=float, required=True, help="norm order")
        p.add_argument("--bits", action="store_true", help="print entropic values in bits")

    p = sub.add_parser("curve", help="export curves and envelopes on an h-grid")
    common(p)
    p.add_argument("--grid", type=int, default=512, help="number of h points (default 512)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser(
        "eval", help="envelope at --h, entropy range at --N, or mutual/E0 range at --i"
    )
    p.add_argument("--n", type=int, required=True, help="alphabet size of X")
    p.add_argument("--alpha", type=float, default=None, help="norm order")
    p.add_argument("--rho", type=float, default=None, help="E0 parameter (with --i)")
    p.add_argument("--bits", action="store_true", help="print entropic values in bits")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=float, default=None, help="conditional entropy (nats)")
    group.add_argument("--N", dest="norm", type=float, default=None, help="expected norm")
    group.add_argument("--i", type=float, default=None, help="mutual information (nats)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tangent", help="tangency and inflection data")
    common(p)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("verify", help="Monte Carlo envelope verification")
    common(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y-size", type=int, default=4, help="outcomes of Y per sampled joint")
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("measures", help="conditional measures of a joint file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", required=True, help='JSON file {"py": [...], "rows": [[...], ...]}')
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("channel", help="mutual information and E0 of a channel file")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--input", required=True, help='JSON file {"transitions": [[...], ...]}')
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_channel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is cmd_channel and args.rho is None and args.alpha is None:
            raise UsageError("channel needs --alpha or --rho")
        return args.func(args)
    except (UsageError, DomainError, NumericalError) as exc:
        print(f"ent-norm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"ent-norm: error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
