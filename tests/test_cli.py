import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from merostar import classes, cli, extremal, harness
from merostar.series import DiscGrid, serialize_coeffs

import hostile
import oracles


def write_series(tmp_path, coeffs, name="series.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"coeffs": coeffs}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pole_is_certified(tmp_path, capsys):
    series = write_series(tmp_path, [])
    code, out, _ = run(capsys, ["check", "--class", "me", "--alpha", "1.0", "--series", series])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "me"
    assert payload["status"] == "CertifiedMember"
    assert payload["min_margin"] == 1.0
    assert payload["samples_checked"] == 0  # no coefficient to sum, and nothing sampled
    assert payload["witness"] is None
    assert payload["proof"] == "coefficients"


def test_check_me_certified_by_its_coefficients_evaluates_nothing(tmp_path, capsys, monkeypatch):
    calls = []
    original = classes.ring_values
    monkeypatch.setattr(classes, "ring_values", lambda *a: calls.append(a) or original(*a))
    coeffs = [[0.1, 0.2], [0.0, -0.05], [0.03, 0.0]]
    argv = ["check", "--class", "me", "--alpha", "1.5", "--series", write_series(tmp_path, coeffs)]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    weighted = math.fsum((1.0 + 1.5 * (n + 1)) * abs(complex(*c)) for n, c in enumerate(coeffs))
    assert (code, payload["status"], payload["proof"], calls) == (0, "CertifiedMember", "coefficients", [])
    assert payload["min_margin"] == 1.0 - weighted
    assert (payload["witness"], payload["samples_checked"]) == (None, 3)
    argv[-1] = write_series(tmp_path, [[0.9, 0.0]])  # not certified: refuted from the circle
    assert run(capsys, argv)[0] == 1 and calls


def test_check_refutation_exits_one(tmp_path, capsys):
    series = write_series(tmp_path, [[0.0, 0.0], [3.0, 0.0]])
    code, out, _ = run(capsys, ["check", "--class", "me", "--alpha", "1.0", "--series", series])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "NonMember"
    assert payload["min_margin"] < 0
    assert payload["witness"] is not None


def test_check_tme_payload_has_exact_margin(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"magnitudes": [0.2]}))
    code, out, _ = run(capsys, ["check", "--class", "tme", "--alpha", "1.0", "--series", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "tme"
    assert payload["status"] == "CertifiedMember"
    assert payload["exact_margin"] == pytest.approx(0.4, abs=1e-12)


def test_check_grid_flags_shrink_the_grid(tmp_path, capsys):
    series = write_series(tmp_path, [])
    code, out, _ = run(
        capsys,
        [
            "check", "--class", "mf", "--alpha", "0.5", "--series", series,
            "--grid-rmax", "0.9", "--grid-theta", "64",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples_checked"] == 64  # the unit circle at --grid-theta points


def test_check_margin_csv(tmp_path, capsys):
    series = write_series(tmp_path, [])
    csv_path = tmp_path / "margins.csv"
    code, _, _ = run(
        capsys,
        [
            "check", "--class", "me", "--alpha", "1.0", "--series", series,
            "--grid-rmax", "0.5", "--grid-theta", "8", "--csv", str(csv_path),
        ],
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["radius", "theta", "re", "im", "margin"]
    assert len(rows) == 1 + 5 * 8
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(1.0)


CSV_CASES = [("me", 2.0), ("mf", 0.3), ("starlike", 0.3), ("tme", 1.0)]


def degree64_series(tmp_path, klass):
    """A degree-64 series file for the class: the thm2.1 extremal, or for tme
    one negative coefficient at index 63."""
    if klass == "tme":
        series = tmp_path / "f.json"
        series.write_text(json.dumps({"magnitudes": [0.0] * 63 + [0.01]}))
        return str(series)
    f = extremal.theorem21_extremal(2.0, 64)
    return write_series(tmp_path, serialize_coeffs(f)["coeffs"])


def test_check_of_a_tie_evaluates_the_circle_and_one_ring(tmp_path, capsys, monkeypatch):
    grids = []
    original = classes.ring_values

    def counting(f, grid):
        grids.append(grid)
        return original(f, grid)

    monkeypatch.setattr(classes, "ring_values", counting)
    series = degree64_series(tmp_path, "me")
    code, out, _ = run(capsys, ["check", "--class", "me", "--alpha", "2.0", "--series", series])
    payload = json.loads(out)
    assert (code, payload["status"], payload["proof"]) == (0, "SampledMember", None)
    # the unit circle leaves the tie open; the grid's outermost ring folds it
    assert [(grid.radii, len(grid)) for grid in grids] == [((1.0,), 2048), ((0.9999,), 2048)]
    assert payload["samples_checked"] == 2 * 2048
    f, spec = harness.load_series(series), classes.ClassSpec(classes.Family.ME, 2.0)
    verdict = classes.check_class(spec, f, DiscGrid.default())
    assert isinstance(verdict, classes.MembershipVerdict)
    assert verdict == classes.decide(spec.rule, 2.0, f, DiscGrid.default())


@pytest.mark.parametrize("klass, alpha", CSV_CASES)
def test_check_csv_evaluates_the_grid_once(tmp_path, capsys, monkeypatch, klass, alpha):
    calls = []
    original = classes.ring_values

    def counting(f, grid):
        calls.append(len(grid))
        return original(f, grid)

    monkeypatch.setattr(classes, "ring_values", counting)
    series = degree64_series(tmp_path, klass)
    csv_path = tmp_path / "margins.csv"
    code, out, _ = run(
        capsys,
        ["check", "--class", klass, "--alpha", str(alpha), "--series", series,
         "--csv", str(csv_path)],
    )
    assert code == 0
    # the grid once, for the CSV; the unit circle and at most its outermost ring before it
    assert calls.count(12 * 2048) == 1
    assert set(calls) - {12 * 2048} <= {2048, 4 * 2048}
    with open(csv_path, newline="") as fh:
        margins = [float(row[4]) for row in list(csv.reader(fh))[1:]]
    assert len(margins) == 12 * 2048
    payload = json.loads(out)
    if payload["proof"] is None:  # sampled on the outermost ring, which holds the CSV's least margin
        assert min(margins) == payload["min_margin"]


@pytest.mark.parametrize("klass, alpha", CSV_CASES)
def test_check_csv_bytes_match_the_csv_writer_oracle(tmp_path, capsys, klass, alpha):
    series = degree64_series(tmp_path, klass)
    csv_path = tmp_path / "margins.csv"
    argv = ["check", "--class", klass, "--alpha", str(alpha), "--series", series, "--csv", str(csv_path)]
    assert run(capsys, argv)[0] == 0
    f = harness.load_tme(series).to_laurent() if klass == "tme" else harness.load_series(series)
    grid = DiscGrid.default()
    family = classes.Family.ME if klass == "tme" else classes.Family(klass)
    margins = classes.grid_margins(classes.ClassSpec(family, alpha), f, grid)
    assert csv_path.read_bytes() == oracles.margin_csv_bytes(grid, margins)


# the last two end each ring in a partial chunk of cli._CSV_CHUNK rows
ORACLE_GRIDS = [
    DiscGrid.default(),
    DiscGrid.with_rmax(0.95, 64),
    DiscGrid((0.3,), 8),
    DiscGrid((0.5, 0.9), 1000),
    DiscGrid((0.7,), 1537),
]


@pytest.mark.parametrize(
    "grid", ORACLE_GRIDS, ids=["default", "rmax-0.95-theta-64", "one-ring-8", "two-rings-1000", "one-ring-1537"]
)
def test_margin_csv_matches_the_csv_writer_oracle(tmp_path, grid):
    rng = np.random.default_rng(len(grid))
    margins = rng.standard_normal(len(grid)) * 10.0 ** rng.uniform(-300.0, 300.0, len(grid))
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.0]
    margins[:6] = special
    margins[-6:] = special[::-1]
    path = tmp_path / "margins.csv"
    cli._dump_margin_csv(str(path), grid, margins)
    assert path.read_bytes() == oracles.margin_csv_bytes(grid, margins)


@given(
    st.integers(1, 3).flatmap(
        lambda rings: st.tuples(
            st.lists(st.floats(0.01, 0.99), min_size=rings, max_size=rings, unique=True).map(sorted),
            st.integers(8, 1600),
        )
    ),
    st.lists(
        st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
        min_size=1,
        max_size=64,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_margin_csv_matches_the_oracle_under_hypothesis(tmp_path, shape, pool, seed):
    # every margin is one of the drawn floats, placed at random so no row's value follows its index
    grid = DiscGrid(tuple(shape[0]), shape[1])
    margins = np.array(pool)[np.random.default_rng(seed).integers(len(pool), size=len(grid))]
    path = tmp_path / "margins.csv"
    cli._dump_margin_csv(str(path), grid, margins)
    assert path.read_bytes() == oracles.margin_csv_bytes(grid, margins)


def test_margin_csv_writer_holds_one_ring_at_a_time(tmp_path):
    grid = DiscGrid.default()
    margins = np.zeros(len(grid))
    grid.points  # the grid's cached array, not the writer's memory
    tracemalloc.start()
    try:
        cli._dump_margin_csv(str(tmp_path / "margins.csv"), grid, margins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is 2 MB: the formatted thetas plus one chunk of rows peak near 0.31 MB, a
    # ring at a time near 0.38 MB and the whole ring in one join near 0.8 MB
    assert peak < 360_000


def test_check_tme_csv_of_an_overflowing_sum_is_the_non_member_verdict(tmp_path, capsys):
    # the CSV takes the grid margins alone, so no margin needs to be finite
    series = tmp_path / "f.json"
    series.write_text(json.dumps({"magnitudes": [1e308]}))
    csv_path = tmp_path / "margins.csv"
    argv = ["check", "--class", "tme", "--alpha", "1", "--series", str(series), "--csv", str(csv_path)]
    code, out, _ = run(capsys, argv)
    assert code == 1 and json.loads(out)["status"] == "NonMember"
    with open(csv_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 12 * 2048


@pytest.mark.parametrize("name", ["thm21", "thm23", "rem1", "expz", "onemz2"])
def test_extremal_emits_series_json(name, capsys):
    code, out, _ = run(capsys, ["extremal", "--name", name, "--alpha", "1.5", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert "coeffs" in payload
    assert payload["tail_bound"] >= 0.0


# name -> the catalog function and its tail bound for the CLI's options,
# with every default written out
CATALOG_ORACLE = {
    "thm21": lambda alpha=1.0, n=1, degree=64: (
        extremal.theorem21_extremal(alpha, degree), extremal.theorem21_tail_bound(alpha, degree)
    ),
    "thm23": lambda alpha=1.0, n=1, degree=64: (
        extremal.theorem23_extremal(alpha, n, degree), extremal.theorem23_tail_bound(alpha, n, degree)
    ),
    "rem1": lambda alpha=1.0, n=1, degree=None: (extremal.remark1_witness(n), 0.0),
    "expz": lambda alpha=1.0, n=1, degree=30: (
        extremal.mf_not_me_witness(degree), extremal.mf_not_me_tail_bound(degree)
    ),
    "onemz2": lambda alpha=1.0, n=1, degree=None: (extremal.starlike_not_mf_witness(), 0.0),
}


@pytest.mark.parametrize("flags", [{}, {"alpha": 2.5}, {"n": 3}, {"degree": 40}], ids=str)
@pytest.mark.parametrize("name", list(CATALOG_ORACLE))
def test_extremal_passes_each_option_to_its_catalog_function(name, flags, capsys):
    argv = ["extremal", "--name", name]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    code, out, err = run(capsys, argv)
    f, tail = CATALOG_ORACLE[name](**flags)
    assert (code, err) == (0, "")
    assert out == json.dumps({**serialize_coeffs(f), "tail_bound": tail}) + "\n"


@pytest.mark.parametrize(
    "name, degree, build",
    [("expz", 5, extremal.mf_not_me_witness), ("thm21", 0, lambda d: extremal.theorem21_extremal(1.0, d))],
)
def test_extremal_out_of_range_degree_exits_two_with_the_constructors_message(name, degree, build, capsys):
    with pytest.raises(ValueError) as refused:
        build(degree)
    code, out, err = run(capsys, ["extremal", "--name", name, "--degree", str(degree)])
    assert (code, out, err) == (2, "", f"error: {refused.value}\n")


@pytest.mark.parametrize(
    "flags, option",
    [
        (["--name", "rem1", "--alpha", "-1", "--n", "2"], "alpha"),
        (["--name", "rem1", "--alpha", "nan"], "alpha"),
        (["--name", "onemz2", "--n", "-5"], "n"),
    ],
)
def test_extremal_checks_the_options_its_name_does_not_take(flags, option, capsys):
    code, out, err = run(capsys, ["extremal", *flags])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} must be ")


def test_extremal_default_sizes_are_pinned(capsys):
    # the defaults live in the constructors' signatures; pin them here
    code, out, _ = run(capsys, ["extremal", "--name", "thm21"])
    assert code == 0 and len(json.loads(out)["coeffs"]) == 65
    code, out, _ = run(capsys, ["extremal", "--name", "expz"])
    payload = json.loads(out)
    assert code == 0 and len(payload["coeffs"]) == 31
    assert payload["tail_bound"] == 1.0 / math.factorial(32)


def test_class_and_name_choices_are_the_declared_ones(capsys):
    for argv, listed in (
        (["check", "-h"], "--class {me,mf,starlike,tme}"),
        (["extremal", "-h"], "--name {thm21,thm23,rem1,expz,onemz2}"),
    ):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert listed in capsys.readouterr().out


def test_extremal_expz_beyond_float_factorials_exits_zero(capsys):
    code, out, err = run(capsys, ["extremal", "--name", "expz", "--degree", "200"])
    assert code == 0 and err == ""
    payload = _strict_json(out)
    assert len(payload["coeffs"]) == 201
    assert payload["tail_bound"] == 0.0


def test_extremal_pipe_to_check(tmp_path, capsys):
    code, out, _ = run(capsys, ["extremal", "--name", "thm21", "--alpha", "2.0"])
    assert code == 0
    payload = json.loads(out)
    series = tmp_path / "extremal.json"
    series.write_text(json.dumps({"coeffs": payload["coeffs"]}))
    code, out, _ = run(capsys, ["check", "--class", "me", "--alpha", "2.0", "--series", str(series)])
    assert code == 0
    assert json.loads(out)["status"] == "SampledMember"


def test_suite_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "checks.csv"
    code, out, _ = run(
        capsys,
        ["suite", "--name", "rem1", "--out", str(out_path), "--csv", str(csv_path)],
    )
    assert code == 0
    assert "suite rem1: pass" in out
    report = json.loads(out_path.read_text())
    assert report["suite"] == "rem1"
    assert report["passed"] is True
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "status", "margin"]
    assert len(rows) == 1 + len(report["checks"])


def test_suite_accepts_overrides(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["suite", "--name", "thm2.2", "--count", "10", "--seed", "5", "--out", str(out_path)],
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["inputs"]["count"] == 10
    assert report["inputs"]["seed"] == 5


def test_decompose_member(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"magnitudes": [1.0 / 6.0, 1.0 / 8.0]}))
    code, out, _ = run(capsys, ["decompose", "--series", str(path), "--alpha", "1.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 1.0
    assert payload["weights"][0] == pytest.approx(0.0, abs=1e-12)
    assert payload["weights"][1] == pytest.approx(0.5, abs=1e-12)
    assert payload["weights"][2] == pytest.approx(0.5, abs=1e-12)


def test_decompose_non_member_exits_one(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"magnitudes": [0.9]}))
    code, _, err = run(capsys, ["decompose", "--series", str(path), "--alpha", "1.0"])
    assert code == 1
    assert err.startswith("error: not a member")


def test_a_zero_magnitude_adds_nothing_where_its_weight_overflows(tmp_path, capsys):
    # at alpha = 1e308 the weight 1 + 2 alpha of a_1 is inf, but a_1 = 0 adds 0:
    # the bare pole is a member with the whole slack, and its weights are strict JSON
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"magnitudes": [0.0]}))
    code, out, _ = run(capsys, ["check", "--class", "tme", "--alpha", "1e308", "--series", str(path)])
    payload = _strict_json(out)
    assert (code, payload["status"], payload["exact_margin"]) == (0, "CertifiedMember", 1.0)
    code, out, _ = run(capsys, ["decompose", "--alpha", "1e308", "--series", str(path)])
    assert (code, _strict_json(out)) == (0, {"alpha": 1e308, "weights": [1.0, 0.0]})


def test_zero_coefficients_are_certified_where_their_weights_overflow(tmp_path, capsys):
    series = write_series(tmp_path, [[0.0, 0.0], [0.0, 0.0]])
    code, out, _ = run(capsys, ["check", "--class", "me", "--alpha", "1e308", "--series", series])
    payload = _strict_json(out)
    assert (code, payload["status"], payload["proof"]) == (0, "CertifiedMember", "coefficients")
    assert (payload["min_margin"], payload["samples_checked"], payload["witness"]) == (1.0, 2, None)


def test_a_finite_term_stays_finite_where_its_weight_overflows(tmp_path, capsys):
    # at alpha = 1e308 the weight 1 + 3 alpha of a_2 = 1e-310 is inf, but its term
    # a_2 + (alpha a_2) 3 is about 0.03: the certificate decides all three commands
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"magnitudes": [0.0, 1e-310]}))
    code, out, _ = run(capsys, ["check", "--class", "tme", "--alpha", "1e308", "--series", str(path)])
    payload = _strict_json(out)
    assert (code, payload["status"], payload["exact_margin"]) == (0, "CertifiedMember", 0.9700000000000001)
    code, out, _ = run(capsys, ["decompose", "--alpha", "1e308", "--series", str(path)])
    weights = [0.9700000000000001, 0.0, 0.02999999999999991]
    assert (code, _strict_json(out)) == (0, {"alpha": 1e308, "weights": weights})
    series = write_series(tmp_path, [[0.0, 0.0], [0.0, 0.0], [1e-310, 0.0]])
    code, out, _ = run(capsys, ["check", "--class", "me", "--alpha", "1e308", "--series", series])
    payload = _strict_json(out)
    assert (code, payload["status"], payload["proof"]) == (0, "CertifiedMember", "coefficients")
    assert (payload["min_margin"], payload["samples_checked"]) == (0.9700000000000001, 3)


@pytest.mark.parametrize("rmax", [[], ["--grid-rmax", "0.9"]], ids=["theta-alone", "with-rmax"])
def test_check_zero_grid_theta_exits_two(tmp_path, capsys, rmax):
    series = write_series(tmp_path, [])
    argv = ["check", "--class", "me", "--alpha", "1", "--series", series, *rmax, "--grid-theta", "0"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: angular_samples must be >= 8, got 0\n"


def test_check_grid_too_large_to_allocate_exits_two(tmp_path, capsys):
    # 2**45 angles need 256 TiB, beyond a 47-bit address space: numpy refuses at once
    # under any overcommit policy. mf samples the grid; a certified me would not reach it.
    series = write_series(tmp_path, [[0.1, 0.0]])
    argv = ["check", "--class", "mf", "--alpha", "0.5", "--series", series, "--grid-theta", str(2**45)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: angular_samples 35184372088832 is too large to allocate its angles\n"


@pytest.mark.parametrize("klass, data", [("me", {"coeffs": []}), ("tme", {"magnitudes": [0.2]})])
def test_check_unwritable_csv_exits_two_before_printing(tmp_path, capsys, klass, data):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    csv_path = tmp_path / "missing" / "margins.csv"
    argv = ["check", "--class", klass, "--alpha", "1", "--series", str(path), "--csv", str(csv_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["check", "--class", "me", "--alpha", "1.0", "--series", str(tmp_path / "nope.json")],
    )
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data in (b"{not json", b"[[[", b"\xff\xfe{}"):  # the last is not UTF-8
        path.write_bytes(data)
        for command in (["check", "--class", "me"], ["check", "--class", "tme"], ["decompose"]):
            code, out, err = run(capsys, [*command, "--alpha", "1.0", "--series", str(path)])
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
@pytest.mark.parametrize("klass", ["me", "mf", "starlike", "tme"])
def test_check_bad_alpha_exits_two(tmp_path, capsys, klass, alpha):
    series = write_series(tmp_path, [[0.0, 0.0], [-0.1, 0.0]])
    code, out, err = run(
        capsys, ["check", "--class", klass, "--alpha", alpha, "--series", series]
    )
    assert code == 2
    assert err.startswith("error:")
    assert "NaN" not in out


@pytest.mark.parametrize(
    "klass, data",
    [
        ("me", {"coeffs": [[True, False]]}),
        ("tme", {"magnitudes": [True]}),
        # every margin overflows, so the grid decides nothing
        ("me", {"coeffs": [[0.0, 0.0], [1e308, 0.0]]}),
        # JSON integers beyond float range
        ("me", {"coeffs": [[0.0, 0.0], [10**400, 0]]}),
        ("tme", {"magnitudes": [0.1, 10**400]}),
    ],
)
def test_check_hostile_series_exits_two(tmp_path, capsys, klass, data):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["check", "--class", klass, "--alpha", "1.0", "--series", str(path)])
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1  # the error line alone, no RuntimeWarning before it
    assert out == ""


@pytest.mark.parametrize("command", [["check", "--class", "tme"], ["decompose"]], ids=["tme", "decompose"])
@pytest.mark.parametrize(
    "entry, message",
    [
        (True, "must be a number, not bool: True"),
        ("0.1", "must be a number, not str: '0.1'"),
        (None, "must be a number, not NoneType: None"),
        ([0.2], "must be a number, not list: [0.2]"),
        (-0.2, "must be finite and >= 0, got -0.2"),
        ({"a": 1}, "must be a number, not dict: {'a': 1}"),
        (10**400, "is beyond float range"),
    ],
    ids=["true", "text", "null", "list", "negative", "dict", "huge"],
)
def test_a_bad_magnitude_exits_two_and_is_named(tmp_path, capsys, command, entry, message):
    # TmeFunction checks the entries of a magnitudes file; load_tme has no check of its own
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"magnitudes": [0.1, entry]}))
    code, out, err = run(capsys, [*command, "--alpha", "1", "--series", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: magnitudes[1] {message}\n"


@pytest.mark.parametrize("command", [["check", "--class", "me"], ["check", "--class", "tme"], ["decompose"]])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)  # beyond the parser's recursion limit
    code, out, err = run(capsys, [*command, "--alpha", "1.0", "--series", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(path) in err
    assert err.count("\n") == 1


def test_bad_suite_parameter_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["suite", "--name", "thm3.2", "--delta", "2.0", "--count", "5",
         "--out", str(tmp_path / "r.json")],
    )
    assert code == 2
    assert "delta" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--name", "rem2", "--count", "0"], "count must be >= 1"),
        (["--name", "thm3.1", "--count", "0"], "count must be >= 1"),
        (["--name", "thm2.2", "--count", "-3"], "count must be >= 1"),
        (["--name", "all", "--alpha", "9", "--count", "1", "--seed", "2"], "not alpha, count"),
    ],
    ids=["rem2-count-0", "thm3.1-count-0", "thm2.2-count-negative", "all-alpha-count"],
)
def test_suite_parameters_it_cannot_use_exit_two(tmp_path, capsys, args, message):
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, ["suite", *args, "--out", str(out_path)])
    assert code == 2
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("name", ["thm2.3", "rem1", "thm4.1", "thm4.2"])  # the suites that take n
def test_suite_with_n_below_one_names_n_and_exits_two(tmp_path, capsys, name):
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, ["suite", "--name", name, "--n", "0", "--out", str(out_path)])
    assert (code, out, err) == (2, "", "error: n must be >= 1, got 0\n")
    assert not out_path.exists()


@pytest.mark.parametrize("name", harness.SUITE_IDS)
def test_suite_with_a_negative_seed_names_seed_and_exits_two(tmp_path, capsys, name):
    # every suite rejects it, not only those whose rng offset leaves it negative
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, ["suite", "--name", name, "--seed", "-1", "--out", str(out_path)])
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")
    assert not out_path.exists()


@pytest.mark.parametrize("unwritable", ["csv", "out"])
def test_suite_with_an_unwritable_path_writes_neither_file(tmp_path, capsys, unwritable):
    paths = {"out": tmp_path / "r.json", "csv": tmp_path / "c.csv"}
    paths[unwritable] = tmp_path / "missing" / paths[unwritable].name
    argv = ["suite", "--name", "rem1", "--out", str(paths["out"]), "--csv", str(paths["csv"])]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha", ["nan", "-0.5", "inf", "1e308"])
@pytest.mark.parametrize("name", harness.SUITE_IDS[:-1])
def test_suite_with_a_bad_order_names_alpha_and_exits_two(tmp_path, capsys, name, alpha):
    # a validated order, not a division by 1 + 2 alpha = 0 or a NaN coefficient, is what fails
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, ["suite", "--name", name, "--alpha", alpha, "--out", str(out_path)])
    assert code == 2
    assert err.startswith("error:") and "alpha" in err
    assert err.count("\n") == 1
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("alpha, code", [(2**54, 2), (math.nextafter(2**54, 0), 0)])
def test_thm21_refuses_an_alpha_whose_order_rounds_to_one(tmp_path, capsys, alpha, code):
    # from 2^54 on, 1 - 1/alpha rounds to 1.0: refused as the alpha given, not as that order
    out_path = tmp_path / "r.json"
    got, out, err = run(capsys, ["suite", "--name", "thm2.1", "--alpha", repr(float(alpha)), "--out", str(out_path)])
    assert got == code
    if code:
        assert err == f"error: alpha must be finite, >= 1 and < {2.0**54!r}, got {2.0**54!r}\n"
        assert not out_path.exists()
    else:
        assert json.loads(out_path.read_text())["passed"]


@pytest.mark.parametrize("alpha, code", [("1e13", 0), (repr(2.0**53), 2), ("1e16", 2)])
def test_thm22_runs_below_two_to_the_53_and_refuses_alpha_from_there(tmp_path, capsys, alpha, code):
    # at 1e13 the extremal's deficit, about -2e-13, is below EXACT_TOL yet still
    # shows that the certificate is not necessary; from 2^53 on it rounds to 0
    # (at 1e16 it is 0.0), so alpha is refused by name
    out_path = tmp_path / "r.json"
    got, out, err = run(capsys, ["suite", "--name", "thm2.2", "--alpha", alpha, "--out", str(out_path)])
    assert got == code
    if code:
        assert err == f"error: alpha must be finite, >= 0 and < {2.0**53!r}, got {float(alpha)!r}\n"
        assert not out_path.exists()
    else:
        assert json.loads(out_path.read_text())["passed"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", harness.SUITE_IDS[:-1])
def test_suite_runs_just_below_the_alpha_bound_without_a_warning(tmp_path, capsys, name):
    # 1 + alpha(n + 1), n <= 40, overflows from about 4.4e306, and from 2^1018
    # on every suite refuses alpha by name (1e308 above); just below that
    # each runs without a floating-point warning, unless its own domain of
    # alpha refuses it
    out_path = tmp_path / "r.json"
    below = repr(math.nextafter(2.0**1018, 0))
    code, _, err = run(capsys, ["suite", "--name", name, "--alpha", below, "--out", str(out_path)])
    if name in ("thm2.1", "thm2.2", "rem1"):  # alpha < 2^54, < 2^53 and < 1
        assert code == 2 and err.startswith("error: alpha") and not out_path.exists()
    else:
        assert (code, err) == (0, "") and json.loads(out_path.read_text())["passed"]


def test_suite_help_names_each_suites_alpha_domain(capsys):
    # the domains that run_suite checks, as harness declares them once
    with pytest.raises(SystemExit):
        cli.main(["suite", "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help at any space
    assert "thm2.1 [1, 2^54)" in text and "rem1 (0, 1)" in text
    assert all(f"{sid} {harness.alpha_domain(sid)}" in text for sid in harness.SUITE_IDS[:-1])


@pytest.mark.parametrize("name", harness.SUITE_IDS[:-1])
def test_each_alpha_domain_is_the_one_run_suite_checks(name):
    # a closed end runs, an open end and one step beyond either end are refused
    low, high = harness.alpha_domain(name)[1:-1].split(", ")
    ends = [float(2 ** int(x[2:]) if x.startswith("2^") else x) for x in (low, high)]
    closed = harness.alpha_domain(name)[0] == "[", harness.alpha_domain(name)[-1] == "]"
    params = {"count": 1} if name not in ("thm2.1", "rem1") else {}
    for end, is_closed, beyond in zip(ends, closed, (-math.inf, math.inf)):
        if is_closed:
            harness.run_suite(name, {**params, "alpha": end})
        for alpha in [math.nextafter(end, beyond)] + ([] if is_closed else [end]):
            with pytest.raises(ValueError, match="^alpha"):
                harness.run_suite(name, {**params, "alpha": alpha})


def test_check_tme_refutes_a_weighted_sum_beyond_float_range(tmp_path, capsys):
    # the exact test's sum overflows to inf, which refutes although no grid margin is finite
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"magnitudes": [1e308]}))
    code, out, err = run(capsys, ["check", "--class", "tme", "--alpha", "1", "--series", str(path)])
    assert (code, err) == (1, "")
    payload = _strict_json(out)
    assert payload["status"] == "NonMember"
    assert payload["min_margin"] is None and payload["exact_margin"] is None


def test_me_at_alpha_zero_is_decided_by_re_g_where_zg_prime_overflows(tmp_path, capsys):
    series = write_series(tmp_path, [[0.1, 0.0], [1e308, 0.0]])
    code, out, err = run(capsys, ["check", "--class", "me", "--alpha", "0", "--series", series])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["status"] == "NonMember"
    assert payload["min_margin"] < -1e307


def test_usage_errors_raise_system_exit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check"])
    with pytest.raises(SystemExit):
        cli.main(["suite", "--name", "nope", "--out", "x.json"])
    with pytest.raises(SystemExit):
        cli.main([])
    capsys.readouterr()


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv), where argparse's exit is a code too."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


CHECK = ["check", "--class", "me", "--alpha", "1", "--series", "f.json"]
PARSE_CASES = {
    "empty": [],
    "help": ["-h"],
    "unknown-command": ["bogus"],
    "check-bare": ["check"],
    "check-help": ["check", "-h"],
    "unknown-option-first": ["check", "--bogus", *CHECK[1:]],
    "unknown-option-last": [*CHECK, "--bogus"],
    "stray-positional": ["extremal", "--name", "rem1", "stray"],
    "abbreviation": ["check", "--class", "me", "--alpha", "1", "--ser", "f.json"],
    "equals-form": ["check", "--class=me", "--alpha", "1", "--series", "f.json"],
}


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_one_pass_parse_matches_the_top_level_parser(tmp_path, capsys, monkeypatch, argv):
    """A command's argv goes to its own parser alone, with the exit code,
    stdout and stderr of _PARSER.parse_args(argv) and then the command."""
    monkeypatch.chdir(tmp_path)
    write_series(tmp_path, [[0.1, 0.0]], "f.json")
    top_level = []
    parse = cli._PARSER.parse_known_args
    monkeypatch.setattr(cli._PARSER, "parse_known_args", lambda *a: top_level.append(a) or parse(*a))
    one_pass = outcome(capsys, argv)
    assert bool(top_level) == (argv[:1] not in (["check"], ["extremal"]))
    monkeypatch.setattr(cli, "_COMMANDS", {})  # every argv through the top-level parser
    assert one_pass == outcome(capsys, argv)
    if "unrecognized arguments" in one_pass[2]:  # leftovers: the top-level usage, as before
        assert one_pass[2].startswith("usage: merostar [-h] {check,extremal,suite,decompose} ...\n")


def test_check_without_grid_flags_decides_on_the_shared_default_grid(tmp_path, capsys, monkeypatch):
    grids = []
    original = cli.check_class
    monkeypatch.setattr(cli, "check_class", lambda spec, f, grid: grids.append(grid) or original(spec, f, grid))
    series = degree64_series(tmp_path, "mf")
    check = ["check", "--class", "mf", "--alpha", "0.3", "--series", series]
    shared = run(capsys, check)
    assert shared == run(capsys, [*check, "--grid-theta", "2048"])
    assert shared[0] == 0 and json.loads(shared[1])["status"] == "SampledMember"
    assert grids[0] is DiscGrid.default() and grids[1] is not DiscGrid.default()
    assert grids[0] == grids[1]


@pytest.mark.parametrize("klass, alpha", CSV_CASES)
def test_two_csv_calls_in_one_process_write_the_same_bytes(tmp_path, capsys, klass, alpha):
    series = degree64_series(tmp_path, klass)
    written = []
    for name in ("a.csv", "b.csv"):
        csv_path = tmp_path / name
        argv = ["check", "--class", klass, "--alpha", str(alpha), "--series", series, "--csv", str(csv_path)]
        code, _, _ = run(capsys, argv)
        written.append((code, csv_path.read_bytes()))
    assert written[0] == written[1]
    assert written[0][1].count(b"\r\n") == 1 + len(DiscGrid.default())


def _fresh_python(args, cwd):
    """(exit code, stdout, stderr) of `python args` in a new interpreter that imports this merostar."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def _zero_runtime(text):
    """Text with the suite's wall-clock time, in a report or its summary line, set to 0."""
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', re.sub(r"\d+ ms\)", "0 ms)", text))


def _take_outputs(cwd):
    """{name: text} of the files a call left in cwd, which are then deleted."""
    files = {}
    for path in sorted(cwd.iterdir()):
        files[path.name] = _zero_runtime(path.read_text())
        path.unlink()
    return files


def test_one_parser_leaks_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Calls in one process, in this order, give what each gives in a fresh process."""
    series = write_series(tmp_path, [])
    check = ["check", "--class", "mf", "--alpha", "0.5", "--series", series]
    usage_error = ["check", "--class", "me", "--series", series]  # no --alpha
    calls = [
        [*check, "--csv", "a.csv"],
        check,
        usage_error,
        [*check, "--grid-theta", "64"],
        check,
        ["suite", "--name", "rem1", "--alpha", "0.2", "--out", "r1.json"],
        usage_error,
        ["suite", "--name", "rem1", "--out", "r2.json"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    outputs = []
    for argv in calls:
        try:
            code, out, err = run(capsys, argv)
        except SystemExit as exc:
            code, (out, err) = exc.code, capsys.readouterr()
        outputs.append((code, _zero_runtime(out), err, _take_outputs(here)))

    for argv, output in zip(calls, outputs):
        code, out, err = _fresh_python(["-m", "merostar.cli", *argv], fresh)
        assert output == (code, _zero_runtime(out), err, _take_outputs(fresh)), argv
    assert [sorted(files) for *_, files in outputs] == [["a.csv"], [], [], [], [], ["r1.json"], [], ["r2.json"]]
    assert [outputs[i][0] for i in (2, 6)] == [2, 2]
    assert [json.loads(outputs[i][1])["samples_checked"] for i in (1, 3, 4)] == [2048, 64, 2048]
    assert json.loads(outputs[5][3]["r1.json"])["inputs"]["alpha"] == 0.2
    assert json.loads(outputs[7][3]["r2.json"])["inputs"]["alpha"] == 0.1


def test_importing_the_library_leaves_the_cli_unloaded(tmp_path):
    """`import merostar` builds no parser: the CLI and argparse load on first use."""
    probe = "import sys, merostar; print(sorted({'merostar.cli', 'argparse'} & set(sys.modules)))"
    assert _fresh_python(["-c", probe], tmp_path) == (0, "[]\n", "")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in output")

    return json.loads(text, parse_constant=reject)


@given(
    st.one_of(
        st.tuples(st.sampled_from(["me", "mf", "starlike"]), hostile.series_file),
        st.tuples(st.sampled_from(["tme", "decompose"]), hostile.tme_file),
    ),
    st.sampled_from(["0", "0.5", "1"]),
)
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_hostile_files_give_strict_json_or_exit_two(tmp_path, capsys, case, alpha):
    command, data = case
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    if command == "decompose":
        argv = ["decompose", "--alpha", alpha, "--series", str(path)]
    else:
        argv = ["check", "--class", command, "--alpha", alpha, "--series", str(path)]
    code, out, err = run(capsys, argv)
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
    elif command == "decompose" and code == 1:
        assert out == "" and err.startswith("error: not a member")
    else:
        assert code in (0, 1)
        payload = _strict_json(out)
        if command == "decompose":
            assert payload["alpha"] == float(alpha)
        else:
            assert (code == 0) is (payload["status"] in ("CertifiedMember", "SampledMember"))
