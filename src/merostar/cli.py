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

import numpy as np

from . import extremal, harness, tme
from .classes import ClassSpec, Family, check_class, grid_margins
from .series import DEFAULT_ANGULAR_SAMPLES, DiscGrid, serialize_coeffs


def _build_grid(args) -> DiscGrid:
    theta = DEFAULT_ANGULAR_SAMPLES if args.grid_theta is None else args.grid_theta
    if args.grid_rmax is None:
        return DiscGrid(angular_samples=theta)
    return DiscGrid.with_rmax(args.grid_rmax, theta)


def _dump_margin_csv(path: str, grid: DiscGrid, margins: np.ndarray) -> None:
    """One CRLF row per grid point, radius-major; every number is its float repr.

    Written one ring at a time: each theta and radius is formatted once, and
    memory stays O(angular_samples). A float repr holds no comma, quote or
    newline, so no field needs CSV quoting.
    """
    m = grid.angular_samples
    thetas = [repr(th) for th in grid.thetas.tolist()]
    pts = grid.points
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("radius,theta,re,im,margin\r\n")
        for k, r in enumerate(grid.radii):
            ring = slice(k * m, (k + 1) * m)
            z = pts[ring]
            row = f"{r!r},{{}},{{!r}},{{!r}},{{!r}}\r\n".format
            fh.writelines(map(row, thetas, z.real.tolist(), z.imag.tolist(), margins[ring].tolist()))


def _cmd_check(args) -> int:
    grid = _build_grid(args)
    alpha = float(args.alpha)
    payload = {"class": args.klass, "alpha": alpha}
    if args.klass == "tme":
        f = harness.load_tme(args.series)
        verdict = harness.classify_tme(f, alpha)
        payload["exact_margin"] = tme.check_tme_exact(f, alpha)[1]
        if args.csv:  # the TME verdict is exact and never sampled the grid
            margins = grid_margins(ClassSpec(Family.TME, alpha), f.to_laurent(), grid)[0]
    else:
        lf = harness.load_series(args.series)
        spec = ClassSpec(Family(args.klass), alpha)
        verdict, margins = check_class(spec, lf, grid)
        if args.csv and verdict.proof is not None:  # decided on the unit circle, not the grid
            margins = grid_margins(spec, lf, grid)[0]
        if spec.family is Family.ME:
            verdict = harness.classify_me(lf, alpha, verdict)
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
        _dump_margin_csv(args.csv, grid, margins)
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return 0 if verdict.is_member else 1


def _cmd_extremal(args) -> int:
    name = args.name
    alpha = float(args.alpha)
    n = int(args.n)
    degree = args.degree
    if name == "thm21":
        d = int(degree) if degree is not None else extremal.DEFAULT_EXTREMAL_DEGREE
        f = extremal.theorem21_extremal(alpha, d)
        tail = extremal.theorem21_tail_bound(alpha, d)
    elif name == "thm23":
        d = int(degree) if degree is not None else extremal.DEFAULT_EXTREMAL_DEGREE
        f = extremal.theorem23_extremal(alpha, n, d)
        tail = extremal.theorem23_tail_bound(alpha, n, d)
    elif name == "rem1":
        f = extremal.remark1_witness(n)
        tail = 0.0
    elif name == "expz":
        d = int(degree) if degree is not None else 30
        f = extremal.mf_not_me_witness(d)
        tail = extremal.mf_not_me_tail_bound(d)
    else:  # onemz2
        f = extremal.starlike_not_mf_witness()
        tail = 0.0
    payload = serialize_coeffs(f)
    payload["tail_bound"] = tail
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merostar",
        description="Membership checks and verification suites for meromorphic "
        "function classes on the punctured unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test a series file against one class")
    p_check.add_argument("--class", dest="klass", required=True, choices=["me", "mf", "starlike", "tme"])
    p_check.add_argument("--alpha", type=float, required=True)
    p_check.add_argument("--series", required=True)
    p_check.add_argument("--grid-rmax", dest="grid_rmax", type=float, default=None)
    p_check.add_argument("--grid-theta", dest="grid_theta", type=int, default=None)
    p_check.add_argument("--csv", default=None, help="write per-point margins to this CSV path")
    p_check.set_defaults(func=_cmd_check)

    p_ext = sub.add_parser("extremal", help="emit a catalog function as series JSON")
    p_ext.add_argument("--name", required=True, choices=["thm21", "thm23", "rem1", "expz", "onemz2"])
    p_ext.add_argument("--alpha", type=float, default=1.0)
    p_ext.add_argument("--n", type=int, default=1)
    p_ext.add_argument("--degree", type=int, default=None)
    p_ext.set_defaults(func=_cmd_extremal)

    p_suite = sub.add_parser("suite", help="run a verification suite, write a JSON report")
    p_suite.add_argument("--name", required=True, choices=list(harness.SUITE_IDS))
    p_suite.add_argument("--alpha", type=float, default=None)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
