"""Command-line front end: design, simulate, eval and verify subcommands.

Outputs are byte-deterministic for a fixed configuration and seed: JSON is
written with sorted keys, floats use shortest round-trip repr, and nothing
time- or path-dependent goes into a report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .codec import ScaledDesign, SourceSpec, simulate
from .errors import InvalidInput, MdlqError, PropertyCheckFailed
from .evaluation import (
    admissible_asymptotic_indices,
    asymptotic_limit_check,
    bound_sandwich,
    design_report,
    edge_histogram,
    figure_data,
    rate_targeted_beta,
)
from .labeling import build_labeling, labeling_from_dict
from .lattices import get_lattice
from .sublattices import design_sublattice


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise InvalidInput(f"cannot write {out}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are named package errors."""

    def error(self, message):
        raise InvalidInput(message)


def _read_json(path: str, what: str):
    """The JSON document in ``path``; an unreadable or non-JSON file is InvalidInput."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InvalidInput(f"cannot read {what} {path}: {err.strerror or err}") from None
    except (ValueError, RecursionError) as err:  # RecursionError: nested too deep
        raise InvalidInput(f"{what} {path} is not JSON: {err}") from None


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse flags; a JSON ``--config`` file supplies further flags.

    Config entries are parsed as flags placed before the command line's own,
    so they pass the same argparse types and choices, and flags take
    precedence over them.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    config = _read_json(args.config, "config file")
    if not isinstance(config, dict):
        raise InvalidInput(f"config file {args.config} must hold a JSON object")
    flags = []
    for key, value in config.items():
        if value is None:
            continue
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise InvalidInput(f"config value {key}={value!r} must be a string or a number")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def _float_where(ok, what: str):
    """argparse type: a number for which ``ok`` holds."""
    def parse(text: str) -> float:
        if not ok(value := float(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


_finite_float = _float_where(math.isfinite, "a finite number")  # --rate, --entropy
_positive_float = _float_where(lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_exponent = _float_where(lambda v: 0 < v < 1, "in (0, 1)")  # --a


def _parse_params(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidInput(f"--params takes comma-separated integers, got {text!r}") from None


def _build_from_args(args):
    if args.lattice is None:
        raise InvalidInput("--lattice is required (or supply it via --config)")
    if args.index is None and args.params is None:
        raise InvalidInput("one of --index or --params is required")
    sub = design_sublattice(args.lattice, index=args.index, params=_parse_params(args.params))
    return build_labeling(sub)


def _resolve_beta(args, labeling) -> float:
    if args.beta is not None and args.rate is not None:
        raise InvalidInput("--beta and --rate are mutually exclusive")
    if args.rate is not None:
        return rate_targeted_beta(labeling.lattice, args.rate, args.a, args.entropy)
    return args.beta if args.beta is not None else 1.0


def cmd_design(args) -> int:
    lab = _build_from_args(args)  # verifies the properties
    doc = lab.to_dict()
    hist = edge_histogram(lab)
    summary = [
        f"design {lab.lattice.name} N={lab.index} params={tuple(lab.sub.params)}",
        "property-1 reuse        PASS",
        "property-2 shift        PASS",
        "property-3 midpoint-sum PASS",
        "cost: total=%s mean_excess=%s"
        % (doc["cost_summary"]["total"], doc["cost_summary"]["mean_excess"]),
        "edge shells: B=A below K: %s, B<=A at K: %s"
        % (hist["B_eq_A_below_K"], hist["B_le_A_at_K"]),
    ]
    _write(_json_text(doc), args.out)
    # Without --out the design file itself goes to stdout, which must stay JSON.
    print("\n".join(summary), file=sys.stdout if args.out else sys.stderr)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    source = SourceSpec.parse(args.source)
    lab = _build_from_args(args)
    beta = _resolve_beta(args, lab)
    design = ScaledDesign(lab, beta)
    report = simulate(design, source, args.samples, args.seed)
    doc = report.to_dict()
    if args.format == "csv":
        keys = sorted(doc)
        text = _csv_text(keys, [[doc[k] if not isinstance(doc[k], list) else " ".join(map(str, doc[k])) for k in keys]])
    else:
        text = _json_text(doc)
    _write(text, args.out)
    return 0


def cmd_eval(args) -> int:
    if args.figure:
        kwargs = {}
        if args.n_max is not None:
            kwargs["n_max"] = args.n_max
        header, rows = figure_data(args.figure, **kwargs)
        if args.format == "json":
            text = _json_text({"figure": args.figure, "header": header, "rows": rows})
        else:
            text = _csv_text(header, rows)
        _write(text, args.out)
        return 0
    if args.asymptotic:
        lat = get_lattice(args.asymptotic)
        n_max = args.n_max if args.n_max is not None else 1000
        ns = admissible_asymptotic_indices(lat, n_max)
        rows = asymptotic_limit_check(lat, ns, args.a, args.entropy)
        header = ["N", "K", "R", "beta", "d_tilde", "ratio", "sphere_G", "d0_normalized"]
        table = [[r[k] for k in header] for r in rows]
        if args.format == "json":
            text = _json_text({"lattice": lat.name, "a": args.a, "rows": rows})
        else:
            text = _csv_text(header, table)
        _write(text, args.out)
        return 0
    # Single-design analytic report.
    lab = _build_from_args(args)
    rep = design_report(lab, _resolve_beta(args, lab), args.entropy)
    _write(_json_text(rep.to_dict()), args.out)
    return 0


def cmd_verify(args) -> int:
    doc = _read_json(args.design, "design file")
    # The rebuild verifies the properties; a failure raises PropertyCheckFailed.
    lab = labeling_from_dict(doc)
    checks = [("properties-1-2-3", True)]
    sand = bound_sandwich(lab, 1.0)
    checks.append(("bound-sandwich", sand.holds()))
    hist = edge_histogram(lab)
    checks.append(("edge-histogram", hist["B_eq_A_below_K"] and hist["B_le_A_at_K"]))
    checks.append(("cost-summary", doc.get("cost_summary") == lab.to_dict()["cost_summary"]))
    for name, passed in checks:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    failed = [name for name, passed in checks if not passed]
    if failed:
        raise PropertyCheckFailed(", ".join(failed), "the design file fails these checks")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdlq",
        description="Design and evaluate two-channel multiple-description lattice quantizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_design_args(p):
        p.add_argument("--lattice", choices=["Z1", "Z2", "Z4", "Z8", "A2"], default=None)
        p.add_argument("--index", type=int, default=None, help="sublattice index N")
        p.add_argument("--params", default=None, help="a,b or a,b,c,d (overrides search)")
        p.add_argument("--config", default=None, help="JSON config; flags take precedence")
        p.add_argument("--out", default=None)

    def add_scale_args(p):
        p.add_argument("--beta", type=_positive_float, default=None)
        p.add_argument("--rate", type=_finite_float, default=None, help="target per-channel rate (bits)")
        p.add_argument("--a", type=_exponent, default=0.5, help="rate-split exponent in (0,1)")
        p.add_argument("--entropy", type=_finite_float, default=0.0, help="source entropy h(p), bits")

    p = sub.add_parser("design", help="build a labeling design and write the design file")
    add_design_args(p)

    p = sub.add_parser("simulate", help="Monte-Carlo rate/distortion simulation")
    add_design_args(p)
    add_scale_args(p)
    p.add_argument("--source", default="uniform:10", help="uniform:W | gauss:S | periods:M")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("eval", help="analytic tables: figures, asymptotics, design reports")
    add_design_args(p)
    p.add_argument("--figure", choices=["fig1", "fig9", "fig10"], default=None)
    p.add_argument("--asymptotic", choices=["Z1", "Z2", "A2"], default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    add_scale_args(p)
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = sub.add_parser("verify", help="replay all checks on a design file")
    p.add_argument("--design", required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(make_parser(), argv)
        if args.command == "design":
            return cmd_design(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_verify(args)
    except MdlqError as err:
        print(f"{err.name}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
