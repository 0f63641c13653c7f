"""Command line front-end.

Four subcommands: check (membership of a series file in one class),
extremal (emit a named catalog function as series JSON), suite (run a
verification suite and write its JSON report), decompose (convex weights of
a negative-coefficient member). Exit codes: 0 verified/pass, 1 refuted or a
failed suite, 2 usage or IO problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import repeat

import numpy as np

from . import extremal, harness, tme
from .classes import ClassSpec, Family, check_class, grid_margins
from .series import DEFAULT_ANGULAR_SAMPLES, DiscGrid, scalar, serialize_coeffs


def _build_grid(args) -> DiscGrid:
    if args.grid_rmax is None and args.grid_theta is None:
        return DiscGrid.default()  # shared: its points are computed once per process
    theta = DEFAULT_ANGULAR_SAMPLES if args.grid_theta is None else args.grid_theta
    if args.grid_rmax is None:
        return DiscGrid(angular_samples=theta)
    return DiscGrid.with_rmax(args.grid_rmax, theta)


# rows per write of the margin CSV; the writer holds one chunk of rows at a time
_CSV_CHUNK = 512


def _dump_margin_csv(path: str, grid: DiscGrid, margins: np.ndarray) -> None:
    """One CRLF row per grid point, radius-major; every number is its float repr.

    Written a chunk of _CSV_CHUNK points of one ring at a time: the thetas
    are formatted once per call, and each of re, im and margin once per chunk
    in one map(repr) pass, whose rows go out in one write. Memory stays
    O(angular_samples) for the thetas plus O(_CSV_CHUNK) for the chunk. A
    float repr holds no comma, quote or newline, so no field needs CSV quoting.
    """
    m = grid.angular_samples
    thetas = list(map(repr, grid.thetas.tolist()))
    pts = grid.points
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("radius,theta,re,im,margin\r\n")
        for k, r in enumerate(grid.radii):
            radius = repr(r)
            for start in range(0, m, _CSV_CHUNK):
                chunk = slice(k * m + start, k * m + min(start + _CSV_CHUNK, m))
                z = pts[chunk]
                columns = (z.real.tolist(), z.imag.tolist(), margins[chunk].tolist())
                rows = zip(repeat(radius), thetas[start : start + _CSV_CHUNK], *(map(repr, c) for c in columns))
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _cmd_check(args) -> int:
    grid = _build_grid(args)
    alpha = float(args.alpha)
    payload = {"class": args.klass, "alpha": alpha}
    if args.klass == "tme":  # decided by the exact test; the CSV writes its ME margins
        f = harness.load_tme(args.series)
        verdict = harness.classify_tme(f, alpha)
        payload["exact_margin"] = verdict.min_margin
        spec, lf = ClassSpec(Family.ME, alpha), f.to_laurent() if args.csv else None
    else:
        lf, spec = harness.load_series(args.series), ClassSpec(Family(args.klass), alpha)
        verdict = harness.classify_me(lf, alpha, grid) if args.klass == "me" else check_class(spec, lf, grid)
    payload.update(
        status=verdict.status.value,
        min_margin=verdict.min_margin,
        witness=None if verdict.witness is None else [verdict.witness.real, verdict.witness.imag],
        samples_checked=verdict.samples_checked,
        proof=verdict.proof,
    )
    for key in ("min_margin", "exact_margin"):  # JSON has no infinity or NaN: write null
        if not math.isfinite(payload.get(key, 0.0)):
            payload[key] = None
    if args.csv:  # before the verdict, so an unwritable path exits 2 with nothing printed
        _dump_margin_csv(args.csv, grid, grid_margins(spec, lf, grid))
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return 0 if verdict.is_member else 1


# name -> (constructor, tail bound or None if exact, the options both take);
# an unset --degree is not passed, so its default lives in the signature alone.
_CATALOG = {
    "thm21": (extremal.theorem21_extremal, extremal.theorem21_tail_bound, ("alpha", "degree")),
    "thm23": (extremal.theorem23_extremal, extremal.theorem23_tail_bound, ("alpha", "n", "degree")),
    "rem1": (extremal.remark1_witness, None, ("n",)),
    "expz": (extremal.mf_not_me_witness, extremal.mf_not_me_tail_bound, ("degree",)),
    "onemz2": (extremal.starlike_not_mf_witness, None, ()),
}


def _cmd_extremal(args) -> int:
    build, tail_bound, options = _CATALOG[args.name]
    for key in ("alpha", "n", "degree"):  # an option the name does not take gets its takers' bounds
        if key not in options and (value := getattr(args, key)) is not None:
            scalar(value, key, float if key == "alpha" else int, low=0 if key == "alpha" else 1)
    given = {key: getattr(args, key) for key in options if getattr(args, key) is not None}
    payload = serialize_coeffs(build(**given))
    payload["tail_bound"] = 0.0 if tail_bound is None else tail_bound(**given)
    print(json.dumps(payload, allow_nan=False))
    return 0


def _cmd_suite(args) -> int:
    params = {key: getattr(args, key) for key in ("alpha", "n", "delta", "eps", "seed", "count")}
    report = harness.run_suite(args.name, params)
    harness.save_report(report, args.out)
    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["check", "status", "margin"])
                for c in report.checks:
                    writer.writerow([c.name, c.status.value, "" if c.margin is None else repr(c.margin)])
        except OSError:  # exit 2 leaves no report behind, as on every other error path
            os.remove(args.out)
            raise
    n_checks = len(report.checks)
    verdict = "pass" if report.passed else "FAIL"
    print(f"suite {report.suite}: {verdict} ({n_checks} checks, {report.runtime_ms} ms) -> {args.out}")
    return 0 if report.passed else 1


def _cmd_decompose(args) -> int:
    f = harness.load_tme(args.series)
    alpha = float(args.alpha)
    member, margin = tme.check_tme_exact(f, alpha)
    if not member:
        print(f"error: not a member (weighted sum exceeds 1 by {-margin})", file=sys.stderr)
        return 1
    weights = tme.decompose(f, alpha)
    print(json.dumps({"alpha": alpha, "weights": list(weights)}, indent=2, allow_nan=False))
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and its subparsers action's map from each
    command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="merostar",
        description="Membership checks and verification suites for meromorphic "
        "function classes on the punctured unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test a series file against one class")
    p_check.add_argument("--class", dest="klass", required=True, choices=[f.value for f in Family] + ["tme"])
    p_check.add_argument("--alpha", type=float, required=True)
    p_check.add_argument("--series", required=True)
    p_check.add_argument("--grid-rmax", dest="grid_rmax", type=float, default=None)
    p_check.add_argument("--grid-theta", dest="grid_theta", type=int, default=None)
    p_check.add_argument("--csv", default=None, help="write per-point margins to this CSV path")
    p_check.set_defaults(func=_cmd_check)

    p_ext = sub.add_parser("extremal", help="emit a catalog function as series JSON")
    p_ext.add_argument("--name", required=True, choices=list(_CATALOG))
    p_ext.add_argument("--alpha", type=float, default=1.0)
    p_ext.add_argument("--n", type=int, default=1)
    p_ext.add_argument("--degree", type=int, default=None)
    p_ext.set_defaults(func=_cmd_extremal)

    p_suite = sub.add_parser("suite", help="run a verification suite, write a JSON report")
    p_suite.add_argument("--name", required=True, choices=list(harness.SUITE_IDS))
    domains = "; ".join(f"{sid} {harness.alpha_domain(sid)}" for sid in harness.SUITE_IDS[:-1])
    p_suite.add_argument("--alpha", type=float, default=None, help=f"the order, in the suite's domain: {domains}")
    p_suite.add_argument("--n", type=int, default=None)
    p_suite.add_argument("--delta", type=float, default=None)
    p_suite.add_argument("--eps", type=float, default=None)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--count", type=int, default=None)
    p_suite.add_argument("--out", required=True)
    p_suite.add_argument("--csv", default=None, help="also dump check margins to this CSV path")
    p_suite.set_defaults(func=_cmd_suite)

    p_dec = sub.add_parser("decompose", help="convex weights of a negative-coefficient member")
    p_dec.add_argument("--series", required=True)
    p_dec.add_argument("--alpha", type=float, required=True)
    p_dec.set_defaults(func=_cmd_decompose)

    return parser, sub.choices


# Built once, on import: `main` may be called many times per process, and
# each parse makes a fresh Namespace, so no call sees another's options.
_PARSER, _COMMANDS = build_parser()


def main(argv=None) -> int:
    """Run one command; argv defaults to sys.argv[1:].

    argv is parsed once, by the named command's parser. This is what the
    top-level parser does through its subparsers action, which hands every
    argument after the command name to that parser; leftovers are reported
    by the top-level parser, as there. Empty argv, -h/--help and unknown
    commands go to the top-level parser itself.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        args = _PARSER.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, MemoryError) as exc:  # an evaluation too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
