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
import functools
import json
import math
import sys

from . import bounds, curves, measures, oracle
from .simplex import DomainError, NumericalError, _check_n, np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VIOLATION = 3

_LN2 = math.log(2.0)
_MAX_GRID = 2**20  # memory grows with the grid: `curve --n 8 --alpha 2` took 15 s and 620 MB at 2^20 on 2 x86-64 cores


class UsageError(Exception):
    """Bad flags or parameter combinations (exit 1)."""


class InputError(Exception):
    """Unreadable or malformed input files (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for I/O only
        raise UsageError(message)


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


# Every entropy, mutual information and E0 a JSON report holds, by key: --bits divides these by ln 2.
_ENTROPIC = frozenset(("h", "h_lower", "h_upper", "i", "mutual_lower", "mutual_upper", "e0_lower", "e0_upper",
                       "h_star", "h_inflection", "renyi", "mutual", "mutual_alpha", "e0", "identity_residual"))


def _report(args, payload: dict, path: str | None = None) -> None:
    """Write payload as a JSON report, its entropic entries in bits under --bits."""
    if args.bits:
        payload = {k: v / _LN2 if k in _ENTROPIC and v is not None else v for k, v in payload.items()}
    _emit(_dump_json(payload), path)


def _load(path: str, make, fields: set[str]):
    """make(**data) for the JSON object data in path, which must hold exactly fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = set(data) - fields
    if unknown:
        raise InputError(f"{path}: unknown field(s) {sorted(unknown)}; allowed: {sorted(fields)}")
    missing = fields - set(data)
    if missing:
        raise InputError(f"{path}: missing required field(s) {sorted(missing)}")
    try:
        return make(**data)
    except DomainError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_joint(path: str) -> measures.JointDist:
    """Read a joint-distribution file: {"py": [...], "rows": [[...], ...]}."""
    return _load(path, measures.JointDist, {"py", "rows"})


def load_channel(path: str) -> measures.Channel:
    """Read a channel file: {"transitions": [[...], ...]}."""
    return _load(path, measures.Channel, {"transitions"})


def cmd_curve(args) -> int:
    n, alpha = args.n, args.alpha
    if not 2 <= args.grid <= _MAX_GRID:
        raise UsageError(f"--grid must be from 2 to {_MAX_GRID} (2^20)")
    _check_n(n)
    h = math.log(n) * np.arange(args.grid) / (args.grid - 1)
    # first: a tangent point that doubles cannot bracket is refused here, before the grid is inverted
    upper = bounds.envelope_upper(n, alpha, h) if bounds.has_upper_envelope(n, alpha) else None
    cols = {
        "h": h / _LN2 if args.bits else h,  # the one array entry, so scaled here and not by _report
        "norm_peaked": curves.norm_peaked(n, curves.inv_entropy_peaked(n, h), alpha),
        "norm_stepped": curves.norm_stepped(n, curves.inv_entropy_stepped(n, h), alpha),
        "lower": bounds.envelope_lower(n, alpha, h),
        "upper": upper,
    }
    cols = {k: None if v is None else v.tolist() for k, v in cols.items()}
    if args.format == "csv":
        fmt = ",".join("" if v is None else "%.17g" for v in cols.values())  # an absent column stays empty
        rows = zip(*(v for v in cols.values() if v is not None))
        _emit("\n".join([",".join(cols), *(fmt % row for row in rows)]) + "\n", args.output)
    else:
        _emit(_dump_json({"n": n, "alpha": alpha, **cols}), args.output)
    return EXIT_OK


def cmd_eval(args) -> int:
    n, alpha, rho = args.n, args.alpha, args.rho
    if args.i is None and alpha is None:
        raise UsageError("--h and --N need --alpha")  # --rho, exclusive with --alpha, serves --i only
    if args.i is not None and alpha is None and rho is None:
        raise UsageError("--i needs --alpha (mutual range) or --rho (E0 range)")
    if rho is not None:
        lo, hi = measures.e0_range_for_mutual(n, rho, args.i)
        payload = {"n": n, "rho": rho, "i": args.i, "e0_lower": lo, "e0_upper": hi}
    elif args.i is not None:
        lo, hi = measures.mutual_range_for_mutual(n, alpha, args.i)
        payload = {"n": n, "alpha": alpha, "i": args.i, "mutual_lower": lo, "mutual_upper": hi}
    elif args.h is not None:
        env = bounds.envelope(n, alpha, args.h)
        payload = {"n": n, "alpha": alpha, "h": args.h, "lower": env.lower, "upper": env.upper}
    else:
        h_lo, h_hi = bounds.cond_entropy_range_for_norm(n, alpha, args.norm)
        payload = {"n": n, "alpha": alpha, "norm": args.norm, "h_lower": h_lo, "h_upper": h_hi}
    _report(args, payload)
    return EXIT_OK


def cmd_tangent(args) -> int:
    n, alpha = args.n, args.alpha
    ts = curves.tangent_point(n, alpha)
    ip = curves.inflection_point(n, alpha) if n >= 3 else None  # binary curve is concave throughout
    payload = {
        "n": n,
        "alpha": alpha,
        "p_star": ts.p,
        "h_star": ts.h,
        "norm_star": ts.norm,
        "h_inflection": None if ip is None else ip.h,
        "p_inflection": None if ip is None else ip.p,
    }
    _report(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = oracle.verify_envelope(args.n, args.alpha, args.samples, args.seed, y_size=args.y_size)
    _report(args, report._asdict(), args.output)
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
        "h": h,
        "expected_norm": norm,
        "renyi": measures.renyi_map(alpha, norm),
        "rnorm": measures.rnorm_map(alpha, norm),
        "lower": env.lower,
        "upper": env.upper,
        "on_lower_boundary": bool(abs(norm - env.lower) <= 1e-9 * max(1.0, env.lower)),
        "on_upper_boundary": None if env.upper is None else bool(abs(norm - env.upper) <= 1e-9 * max(1.0, env.upper)),
    }
    _report(args, payload)
    return EXIT_OK


def cmd_channel(args) -> int:
    if args.alpha is None and args.rho is None:
        raise UsageError("channel needs --alpha or --rho")
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
    e0_lo, e0_hi = measures.e0_range_for_mutual(n, rho, mutual)
    payload = {
        "n_in": n,
        "alpha": alpha,
        "rho": rho,
        "mutual": mutual,
        "mutual_alpha": mutual_alpha,
        "e0": e0,
        "identity_residual": abs(e0 - rho * mutual_alpha),
        "e0_lower": e0_lo,
        "e0_upper": e0_hi,
    }
    _report(args, payload)
    return EXIT_OK


@functools.cache  # argparse keeps no state between parse_args calls, of the subparsers either
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ent-norm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser by name, as the top-level parser looks it up: main's table

    def command(name, func, help, *, n=True, rho=False):
        """A subcommand with --n unless n is false, --alpha (or, with rho, either --alpha or --rho) and --bits."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if n:
            p.add_argument("--n", type=int, required=True, help="alphabet size of X")
        if rho:
            order = p.add_mutually_exclusive_group()
            order.add_argument("--alpha", type=float, default=None, help="norm order")
            order.add_argument("--rho", type=float, default=None, help="E0 parameter, for order 1/(1 + rho)")
        else:
            p.add_argument("--alpha", type=float, required=True, help="norm order")
        p.add_argument("--bits", action="store_true", help="print entropic values in bits")
        return p

    p = command("curve", cmd_curve, "export curves and envelopes on an h-grid")
    p.add_argument("--grid", type=int, default=512, help=f"number of h points, 2 to {_MAX_GRID} (default 512)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("eval", cmd_eval, "envelope at --h, entropy range at --N, or mutual/E0 range at --i", rho=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=float, default=None, help="conditional entropy (nats)")
    group.add_argument("--N", dest="norm", type=float, default=None, help="expected norm")
    group.add_argument("--i", type=float, default=None, help="mutual information (nats)")

    command("tangent", cmd_tangent, "tangency and inflection data")

    p = command("verify", cmd_verify, "Monte Carlo envelope verification")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y-size", type=int, default=4, help="outcomes of Y per sampled joint")
    p.add_argument("--output", default=None, help="report path (default stdout)")

    p = command("measures", cmd_measures, "conditional measures of a joint file", n=False)
    p.add_argument("--input", required=True, help='JSON file {"py": [...], "rows": [[...], ...]}')

    p = command("channel", cmd_channel, "mutual information and E0 of a channel file", n=False, rho=True)
    p.add_argument("--input", required=True, help='JSON file {"transitions": [[...], ...]}')

    return parser


def main(argv=None) -> int:
    """Run one command line; its exit code. One that starts with a command's name goes straight to that command's
    parser, where the top-level parser would send all of it; the top-level parser serves no arguments, help and
    unknown commands."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.func(args)
    except (UsageError, DomainError, NumericalError) as exc:
        print(f"ent-norm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"ent-norm: error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
