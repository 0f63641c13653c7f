"""Tests of the benchmark itself.

Run from the repository root with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

import argparse
import json
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

MEMBER_REQ = workloads.Request(
    ("check", "--class", "me", "--alpha", "1.0", "--series", "f.json"),
    kind="me/cert",
    source="certificate",
    expect_exit=0,
    expect_status=workloads.MEMBER,
)


def _snapshot(pool, work: Path):
    """Requests with the work directory stripped, plus every input file's bytes."""
    reqs = [
        (tuple(a.replace(str(work), "<work>") for a in r.argv), r.kind, r.source,
         r.expect_exit, r.expect_status, r.weights)
        for r in pool
    ]
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return reqs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = _snapshot(workloads.generate(workload, 5, tmp_path / "a"), tmp_path / "a")
    b = _snapshot(workloads.generate(workload, 5, tmp_path / "b"), tmp_path / "b")
    assert a == b


def test_other_seed_gives_other_inputs(tmp_path):
    a = _snapshot(workloads.generate("check-lowdeg", 5, tmp_path / "a"), tmp_path / "a")
    b = _snapshot(workloads.generate("check-lowdeg", 6, tmp_path / "b"), tmp_path / "b")
    assert a[1] != b[1]


def test_lowdeg_has_a_fixed_hostile_share(tmp_path):
    pool = workloads.generate("check-lowdeg", 5, tmp_path)
    hostile = [r for r in pool if r.source == "hostile"]
    assert len(hostile) == 14 and len(pool) == 256
    assert all(r.expect_exit == 2 for r in hostile)


def test_non_members_carry_an_mpmath_violation(tmp_path):
    pool = workloads.generate("check-lowdeg", 5, tmp_path)
    for r in pool:
        if r.source == "mpmath":
            klass = r.argv[r.argv.index("--class") + 1]
            alpha = float(r.argv[r.argv.index("--alpha") + 1])
            data = json.loads(Path(r.argv[r.argv.index("--series") + 1]).read_text())
            coeffs = [complex(re, im) for re, im in data["coeffs"]]
            assert workloads._witness(klass, alpha, coeffs) <= -workloads.SLACK


def test_expected_answer_passes():
    out = json.dumps({"status": "CertifiedMember", "min_margin": 0.5})
    assert workloads.judge(MEMBER_REQ, 0, out) is None


def test_wrong_exit_code_is_a_failure():
    out = json.dumps({"status": "CertifiedMember", "min_margin": 0.5})
    assert workloads.judge(MEMBER_REQ, 1, out) == "exit 1, expected 0"


def test_nan_in_stdout_is_a_failure():
    out = '{"status": "SampledMember", "min_margin": NaN}'
    assert workloads.judge(MEMBER_REQ, 0, out).startswith("invalid JSON")


def test_wrong_status_and_crash_are_failures():
    out = json.dumps({"status": "Indeterminate", "min_margin": 0.0})
    assert workloads.judge(MEMBER_REQ, 0, out).startswith("status Indeterminate")
    assert workloads.judge(MEMBER_REQ, None, "") == "raised"


def test_known_hostile_miss_counts_as_failed_but_not_unexpected():
    req = workloads.Request(("check",), kind="hostile/me-nan", source="hostile", expect_exit=2)
    check = run.Checker()
    assert not check(req, 0, '{"alpha": NaN}')
    assert check(req, 2, "")
    assert check.failures == {"hostile/me-nan": ["exit 0, expected 2"]}
    assert check.unexpected == 0
    assert check.rejected == 1


def test_new_hostile_miss_is_unexpected():
    req = workloads.Request(("check",), kind="hostile/malformed-json", source="hostile", expect_exit=2)
    check = run.Checker()
    assert not check(req, 1, "")
    assert check.unexpected == 1


def test_profile_gap_over_ten_points_is_a_failure():
    check = run.Checker()
    assert run.check_profile_gap(check, 0.71, 0.67) == pytest.approx(4.0)
    assert check.unexpected == 0
    assert run.check_profile_gap(check, 0.71, 0.56) == pytest.approx(15.0)
    assert check.unexpected == 1
    assert list(check.failures) == ["trace/profile-gap"]


def _csv_req(tmp_path, margins, member=True):
    path = tmp_path / "m.csv"
    lines = ["radius,theta,re,im,margin"] + [f"0.5,0.0,0.5,0.0,{m}" for m in margins]
    path.write_text("\n".join(lines) + "\n")
    return workloads.Request(
        ("check",), kind="me/cert", source="certificate",
        expect_exit=0 if member else 1, csv_path=str(path),
    )


def test_csv_check_counts_rows_and_catches_contradictions(tmp_path):
    reason, rows, size = workloads.judge_csv(_csv_req(tmp_path, [0.3, 0.1, 0.2]))
    assert reason is None and rows == 3 and size > 0
    assert workloads.judge_csv(_csv_req(tmp_path, [0.3, -0.1]))[0].startswith("CSV minimum")
    assert workloads.judge_csv(_csv_req(tmp_path, [0.3, 0.1], member=False))[0].startswith("CSV minimum")
    assert workloads.judge_csv(_csv_req(tmp_path, [0.3, "nan"]))[0] == "non-finite margin in CSV"
    assert workloads.judge_csv(_csv_req(tmp_path, []))[0] == "no rows in CSV"


def _suite_req(tmp_path, margin):
    checks = [
        {"name": "status_agreement_with_direct_check", "status": "pass", "margin": 1.0},
        {"name": workloads.ROUNDING_CHECK.split("/")[1], "status": "fail", "margin": margin},
    ]
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"checks": checks, "passed": False}))
    argv = ("suite", "--name", "thm3.1", "--seed", "1", "--out", str(path))
    return workloads.Request(argv, kind="suite/thm3.1", source="catalog", expect_exit=0)


def test_suite_rounding_failure_is_known_and_larger_failures_are_not(tmp_path):
    req = _suite_req(tmp_path, -1e-16)
    assert workloads.judge(req, 1, "suite thm3.1: FAIL") is None
    reason, names = workloads.judge_suite(req, 1, "suite thm3.1: FAIL", None)
    assert reason == workloads.SUITE_ROUNDING
    assert names == ["thm3.1/status_agreement_with_direct_check", workloads.ROUNDING_CHECK]
    assert workloads.known_defect(req, reason)
    reason, _ = workloads.judge_suite(_suite_req(tmp_path, -0.5), 1, "suite thm3.1: FAIL", None)
    assert not workloads.known_defect(req, reason)
    reason, _ = workloads.judge_suite(_suite_req(tmp_path, -1e-16), 0, "suite thm3.1: FAIL", None)
    assert not workloads.known_defect(req, reason)


def test_suite_all_pool_is_every_suite_for_each_seed(tmp_path):
    from merostar.harness import SUITE_IDS

    pool = workloads.generate("suite-all", 5, tmp_path)
    assert len(pool) == workloads.SUITE_OPS * (len(SUITE_IDS) - 1)
    assert [r.argv[2] for r in pool[: len(SUITE_IDS) - 1]] == list(SUITE_IDS[:-1])
    assert len({r.unit for r in pool}) == workloads.SUITE_OPS


def test_user_ops_sum_the_requests_of_one_unit_per_pass():
    def req(unit):
        return workloads.Request(("suite",), kind="suite/x", source="catalog", expect_exit=0, unit=unit)

    pool = [req("a"), req("a"), req("b")]
    assert run.user_ops(pool, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) == [3.0, 4.0, 24.0, 32.0]
    plain = [workloads.Request(("check",), kind="me/cert", source="certificate", expect_exit=0)] * 2
    assert run.user_ops(plain, [1.0, 2.0, 4.0]) == [1.0, 2.0, 4.0]


def test_seed_answers_every_well_formed_request(tmp_path):
    check = run.Checker()
    for req in workloads.generate("check-lowdeg", 3, tmp_path):
        code, out, _ = run.invoke(req.argv)
        check(req, code, out)
    assert check.unexpected == 0, check.failures
    assert set(check.failures) == set(workloads.KNOWN_HOSTILE_MISSES)


@pytest.mark.parametrize("extra,evals", [((), 1.0), (("--csv", "m.csv"), 2.0)])
def test_tracer_counts_grid_evaluations_and_restores(tmp_path, extra, evals):
    from merostar import classes, cli, series

    series_path = tmp_path / "f.json"
    series_path.write_text(json.dumps({"coeffs": [[0.1, 0.0]]}))
    argv = ["check", "--class", "me", "--alpha", "1.0", "--series", str(series_path)]
    argv += [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
    before = (classes.eval_g, cli.main, series.DiscGrid.__dict__["points"])
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code, _, dt = run.invoke(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert (classes.eval_g, cli.main, series.DiscGrid.__dict__["points"]) == before
    layers = tracer.layer_metrics(dt, 1)
    assert layers["cli.evals_per_verdict"] == evals
    assert layers["classes.samples_checked"] == 12 * 2048
    assert 0.0 < layers["series.eval_share"] < 1.0


def test_timeline_scales_each_block_by_the_probes_near_it(monkeypatch):
    monkeypatch.setattr(run, "PROBE_WINDOW_S", 0.5)
    ref = run.REF_PROBE_S
    timeline = run.Timeline()
    timeline.probes = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref)]
    timeline.blocks = [
        (0.0, 1.0, [("op", 1.0)]),
        (1.0, 2.0, [("op", 3.0), ("setup", 0.2)]),
        (2.0, 3.0, [("op", 2.0)]),
    ]
    # each block sees the probes at its two ends
    assert timeline.scaled("op") == pytest.approx([1.0, 2.0, 1.0])
    assert timeline.scaled("setup") == pytest.approx([0.2 / 1.5])
    assert timeline.scaled("op", raw=True) == [1.0, 3.0, 2.0]


def test_a_run_makes_whole_passes_so_its_failed_share_is_the_pools(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: 0.1)
    pool = workloads._hostile_requests(workloads._Files(tmp_path))
    args = argparse.Namespace(seconds=0.0)
    timeline, traced, attempted, failed = run.run_loop(args, pool, run.Checker())
    assert (attempted, failed) == (len(pool), len(workloads.KNOWN_HOSTILE_MISSES))
    assert len(timeline.scaled("op")) == len(pool) and traced == []
    assert len(timeline.scaled("setup")) == run.SETUP_STARTS
