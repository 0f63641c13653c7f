"""End-to-end benchmark of the merostar CLI.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload check-lowdeg --seed 1 --seconds 20 --trace 0

Every op is one `merostar.cli.main([...])` call in this process, with stdout
captured, in a closed loop with one client. Its answer is checked against an
expected answer that does not depend on merostar's grid (see workloads.py).
`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a separate traced run. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Earlier lines record the
environment and the details behind each number.
"""

from __future__ import annotations

import os

# One OpenBLAS worker: no merostar path calls BLAS, and a worker per core
# would make the set-up time depend on thread start-up. Must precede numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import bisect
import contextlib
import cProfile
import io
import json
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_STARTS = 15
SAMPLER_DRAWS = 200
# Host-speed probe: a fixed numpy kernel, called from this file only and
# timed between blocks of ops, so no change to merostar can move it. REF_PROBE_S is its time on an idle 2-vCPU
# "Intel(R) Xeon(R) Processor" VM with Python 3.11.7 and numpy 2.4.6.
PROBE_Z = 0.9 * np.exp(2j * np.pi * np.arange(4096) / 4096)
PROBE_C = (0.5 + 0.1j) * np.arange(1, 65)
PROBE_REPS = 6
REF_PROBE_S = 2.5e-3
# a block of ops closes after this long; probes then run for PROBE_SHARE of
# the block's time, at least once
BLOCK_S = 0.05
PROBE_SHARE = 0.05
# a block's host-speed factor comes from the probes this close to it
PROBE_WINDOW_S = 0.15
# how far, in percentage points, the traced series.eval_share may sit from
# numpy polyval's share of a cProfile of the same op
PROFILE_GAP_POINTS = 10.0
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import merostar\n"
    "merostar.DiscGrid.default().points\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup() -> float:
    """Seconds from a fresh interpreter's first statement to a ready grid."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def invoke(argv) -> tuple[int | None, str, float]:
    """(exit code or None if it raised, stdout, seconds) of one CLI call."""
    from merostar import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed op, not a crashed run
            code = None
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


class Checker:
    """Judges each op; suite-all ops must also keep the first passing op's check names."""

    def __init__(self):
        self.first_names: dict[str, list[str]] = {}
        self.failures: dict[str, list[str]] = {}
        self.unexpected = 0
        self.csv_rows = 0
        self.csv_bytes = 0
        self.report_bytes = 0
        self.rejected = 0

    def __call__(self, req, code, stdout) -> bool:
        if code == 2:
            self.rejected += 1
        reason = workloads.judge(req, code, stdout)
        if reason is None and req.argv[0] == "suite":
            report = req.argv[req.argv.index("--out") + 1]
            reason, names = workloads.judge_suite(req, code, stdout, self.first_names.get(req.kind))
            if req.kind not in self.first_names and reason is None:
                self.first_names[req.kind] = names
            self.report_bytes += Path(report).stat().st_size
        if reason is None and req.csv_path is not None:
            reason, rows, size = workloads.judge_csv(req)
            self.csv_rows += rows
            self.csv_bytes += size
        if reason is not None:
            self.failures.setdefault(req.kind, []).append(reason)
            self.unexpected += not workloads.known_defect(req, reason)
        return reason is None

    def record(self, kind: str, reason: str) -> None:
        """A failure of the run's own cross-checks, never a known defect."""
        self.failures.setdefault(kind, []).append(reason)
        self.unexpected += 1


def warm_up(workload: str, pool, work: Path) -> None:
    """Import lazily loaded code and fill caches before anything is timed."""
    if workload == "suite-all":
        from merostar import harness

        for sid in harness.SUITE_IDS[:-1]:
            invoke(["suite", "--name", sid, "--count", "2", "--out", str(work / "warm.json")])
    else:
        for req in pool:
            invoke(req.argv)
    for _ in range(20):
        probe()


def probe() -> float:
    """Seconds for the fixed probe kernel; it grows when the host slows."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        np.polyval(PROBE_C, PROBE_Z)
    return time.perf_counter() - t0


class Timeline:
    """Timed samples in blocks, with host-speed probes between the blocks.

    The host runs through slow phases of seconds to minutes in which all CPU
    work takes up to half as long again. `scaled()` multiplies each sample by
    REF_PROBE_S over the median of the probes within PROBE_WINDOW_S of its
    block, which gives the time the sample would have taken at the reference
    host's speed.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self.blocks: list[tuple[float, float, list[tuple[str, float]]]] = []
        self.block: list[tuple[str, float]] = []
        self._probe(1)
        self.block_t = time.perf_counter()

    def _probe(self, n: int) -> None:
        for _ in range(n):
            self.probes.append((time.perf_counter(), probe()))

    def add(self, kind: str, seconds: float) -> None:
        self.block.append((kind, seconds))
        if time.perf_counter() - self.block_t >= BLOCK_S:
            self.close()

    def close(self) -> None:
        now = time.perf_counter()
        if self.block:
            self.blocks.append((self.block_t, now, self.block))
            self._probe(max(1, round(PROBE_SHARE * (now - self.block_t) / REF_PROBE_S)))
            self.block = []
        self.block_t = time.perf_counter()

    def scaled(self, kind: str, raw: bool = False) -> list[float]:
        self.close()
        starts = [t for t, _ in self.probes]
        out = []
        for t0, t1, items in self.blocks:
            lo = bisect.bisect_left(starts, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + PROBE_WINDOW_S)
            near = statistics.median(dt for _, dt in self.probes[lo:hi])
            factor = 1.0 if raw else REF_PROBE_S / near
            out += [dt * factor for k, dt in items if k == kind]
        return out


def user_ops(pool, samples: list[float]) -> list[float]:
    """Per-request samples of the run's passes, summed into the ops a user
    waits for: on suite-all, the 11 suites of one seed are one op."""
    out, last = [], None
    for i, dt in enumerate(samples):
        unit = pool[i % len(pool)].unit
        key = (i // len(pool), unit)
        if unit is not None and key == last:
            out[-1] += dt
        else:
            out.append(dt)
        last = key
    return out


def run_loop(args, pool, check, traced_tracer=None):
    """Closed loop of whole passes over the pool, with fresh-interpreter
    set-up samples spread through it. With a tracer, each request runs
    untraced and then traced.

    Another pass starts only while at least half a pass fits in --seconds.
    Whole passes make the failed share of a run depend on the pool alone,
    not on how fast the host was.
    """
    seconds = args.seconds
    due = [seconds * (k + 0.5) / SETUP_STARTS for k in range(SETUP_STARTS)]
    timeline, traced = Timeline(), []
    attempted = failed = passes = 0
    t_start = time.perf_counter()
    while True:
        for req in pool:
            code, out, dt = invoke(req.argv)
            timeline.add("op", dt)
            attempted += 1
            failed += not check(req, code, out)
            if traced_tracer is not None:
                traced_tracer.install()
                traced_tracer.begin_op(len(traced))
                try:
                    code, out, dt = invoke(req.argv)
                finally:
                    traced_tracer.uninstall()
                traced.append(dt)
                attempted += 1
                failed += not check(req, code, out)
            if due and time.perf_counter() - t_start >= due[0]:
                due.pop(0)
                timeline.close()
                timeline.add("setup", measure_setup())
                timeline.close()
        passes += 1
        elapsed = time.perf_counter() - t_start
        if seconds - elapsed < 0.5 * elapsed / passes:
            break
    for _ in due:
        timeline.add("setup", measure_setup())
        timeline.close()
    return timeline, traced, attempted, failed


def layer_pass(seed: int) -> dict:
    """Each suite alone and each sampler alone, timed without tracing."""
    from merostar import harness

    out = {}
    for sid in harness.SUITE_IDS[:-1]:
        t0 = time.perf_counter()
        harness.run_suite(sid, {"seed": seed})
        out[f"harness.suite_ms.{sid}"] = (time.perf_counter() - t0) * 1000.0
    rng = np.random.default_rng(seed)
    samplers = {
        "certified": lambda: harness.sample_certified_member(1.0, rng),
        "hypothesis": lambda: harness.sample_hypothesis_member(1.0, rng),
        "tme": lambda: harness.sample_tme_member(1.0, rng),
        "wild": lambda: harness.sample_wild_function(rng),
    }
    for name, draw in samplers.items():
        t0 = time.perf_counter()
        for _ in range(SAMPLER_DRAWS):
            draw()
        out[f"harness.sampler_ms.{name}"] = (time.perf_counter() - t0) * 1000.0
        out[f"harness.sampler_draws.{name}"] = SAMPLER_DRAWS
    return out


def profile_polyval_share(argvs) -> float:
    """Share of one op's profiled time spent in numpy's polyval."""
    prof = cProfile.Profile()
    prof.enable()
    for argv in argvs:
        invoke(argv)
    prof.disable()
    stats = pstats.Stats(prof)
    inside = sum(
        row[3] for (path, _, func), row in stats.stats.items()
        if func == "polyval" and path.endswith("polynomial.py")
    )
    return inside / stats.total_tt


def check_profile_gap(check: Checker, polyval_share: float, eval_share: float) -> float:
    """Gap in points between the profiled and the traced kernel share.

    A gap above PROFILE_GAP_POINTS means the tracer misattributes time, and
    is recorded as a failure of the run.
    """
    gap = 100.0 * abs(polyval_share - eval_share)
    if gap > PROFILE_GAP_POINTS:
        check.record(
            "trace/profile-gap",
            f"series.eval_share {eval_share:.3f} is {gap:.1f} points from "
            f"the cProfile polyval share {polyval_share:.3f}",
        )
    return gap


def end_to_end(args, pool, check) -> tuple[dict, dict]:
    timeline, _, attempted, failed = run_loop(args, pool, check)
    lat, setups = user_ops(pool, timeline.scaled("op")), timeline.scaled("setup")
    raw_lat = user_ops(pool, timeline.scaled("op", raw=True))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "ops": len(lat),
        "op_s_total": sum(lat),
        "setup_samples_s": setups,
        "raw": {
            "setup_s": statistics.median(timeline.scaled("setup", raw=True)),
            "ops_per_s": len(raw_lat) / sum(raw_lat),
            "op_ms_p50": statistics.median(raw_lat) * 1000.0,
        },
        "probe_ms": {
            "median": statistics.median(dt for _, dt in timeline.probes) * 1000.0,
            "count": len(timeline.probes),
        },
        "fail_share": failed / attempted,
    }
    return metrics, detail | {"attempted": attempted, "failed": failed}


def per_layer(args, pool, check) -> tuple[dict, dict]:
    tracer = Tracer()
    timeline, traced, attempted, failed = run_loop(args, pool, check, tracer)
    plain = user_ops(pool, timeline.scaled("op", raw=True))
    traced_calls, traced = traced, user_ops(pool, traced)
    n = len(traced)
    layers = tracer.layer_metrics(sum(traced_calls), n)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    p90 = statistics.quantiles(plain, n=10)[-1] if len(plain) > 1 else plain[0]
    layers |= {
        "cli.rejected": check.rejected / (2 * n),
        "cli.csv_rows": check.csv_rows / (2 * n),
        "cli.csv_bytes": check.csv_bytes / (2 * n),
        "harness.report_bytes": check.report_bytes / (2 * n),
        "trace.overhead_share": statistics.median(traced) / statistics.median(plain) - 1.0,
        "op_ms_p90": p90 * 1000.0,
        "op_p90_beyond": sum(x > p90 for x in plain),
    }
    layers |= layer_pass(args.seed)
    detail = {
        "traced_ops": n,
        "untraced_ops": len(plain),
        "traced_op_s_total": sum(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    if args.workload == "suite-all":
        share = profile_polyval_share([r.argv for r in pool if r.unit == pool[0].unit])
        detail["profile_polyval_share"] = share
        detail["profile_gap_points"] = check_profile_gap(check, share, layers["series.eval_share"])
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in units["per_layer"]}
    metrics = {name: (layers[name], unit) for name, unit in declared.items()}
    detail["layers"] = layers
    return metrics, detail | {"attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "merostar" / "__init__.py").is_file():
        print(f"error: no merostar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        pool = workloads.generate(args.workload, args.seed, work)
        warm_up(args.workload, pool, work)
        check = Checker()
        run = per_layer if args.trace else end_to_end
        metrics, detail = run(args, pool, check)
        print("env " + json.dumps(environment(args)))
        detail["failures"] = {k: v[:3] + ([f"... {len(v)} in all"] if len(v) > 3 else [])
                              for k, v in check.failures.items()}
        print("detail " + json.dumps(detail))
        result = {
            "correct": check.unexpected == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
