"""Seeded inputs, expected answers and the output check for each workload.

Every request is a `merostar` command line plus the answer it must give.
The expected answer never comes from merostar or from its sampling grid. It
comes from one of these sources, named in `Request.source`:

- ``catalog``: closed-form facts about the paper's functions. The theorem 2.1
  extremal g = (1+cz)/(1-cz) is in ME(alpha) and, with slack delta, in
  MF(1 - 1/alpha - delta) and STARLIKE(1 - 1/alpha - delta). e^z/z is in MF(0)
  and STARLIKE(0). (1-z)^2/z is in STARLIKE(0).
- ``certificate``: coefficient sums with a slack of at least 0.01, which prove
  membership on the whole disc.
- ``mpmath``: a margin of -0.01 or less, evaluated in 30-digit arithmetic at
  a point with |z| <= 0.9, which proves non-membership.
- ``exact``: the weighted-sum characterization of the negative-coefficient
  class, with a slack of at least 0.01.
- ``hostile``: requests the CLI must refuse with exit code 2.

Inputs are written as JSON files into a work directory; the program sees
only those files.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

WORKLOADS = ("suite-all", "check-highdeg", "check-lowdeg", "check-csv")
# suite seeds per suite-all pool: one pass is about 19 s at 6.3 s per seed
SUITE_OPS = 3
# suites without a seed parameter; `suite --name all` runs them unchanged
SEEDLESS_SUITES = ("thm2.1", "rem1")

MEMBER = frozenset({"CertifiedMember", "SampledMember"})
NON_MEMBER = frozenset({"NonMember"})
SLACK = 0.01
# the sampling tolerance of merostar's grid checks; members whose grid
# margins dip below it are reported as a wrong CSV
MARGIN_TOL = 1e-9

mpmath.mp.dps = 30

# Failures the code under test had when this benchmark was written. They are
# counted in `failed` like any other; only other failures make a run incorrect.
KNOWN_HOSTILE_MISSES = {
    "hostile/me-nan": "exits 0 and prints NaN",
    "hostile/tme-nan": "exits 1 and prints NaN",
    "hostile/bool-coeff": "accepts true as the coefficient 1+0j and exits 1",
}
ROUNDING_CHECK = "thm3.1/gamma_discretization_within_bound"
SUITE_ROUNDING = f"{ROUNDING_CHECK} failed by rounding"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    source: str
    expect_exit: int
    expect_status: frozenset[str] | None = None
    weights: tuple[float, ...] | None = None  # expected decompose output
    csv_path: str | None = None
    # consecutive requests of one pass with the same unit make up one op a
    # user waits for, such as every suite for one seed
    unit: str | None = None


# ------------------------------------------------------------- margins

def _g_and_zgp(coeffs, z):
    """g(z) = 1 + sum a_n z^{n+1} and z g'(z) = sum (n+1) a_n z^{n+1}."""
    g, zgp, p = 1, 0, z
    for n, a in enumerate(coeffs):
        g += a * p
        zgp += (n + 1) * a * p
        p *= z
    return g, zgp


def _margin(klass, alpha, g, zgp, absf=abs, re=lambda v: v.real):
    if klass == "me":
        return re(g) - alpha * absf(zgp)
    ratio = zgp / g
    return (1 - alpha) - (absf(ratio) if klass == "mf" else re(ratio))


def margin_mp(klass: str, alpha: float, coeffs, z: complex) -> float:
    """Class margin at one point in 30-digit arithmetic (negative = violated)."""
    zz = mpmath.mpc(z.real, z.imag)
    g, zgp = _g_and_zgp([mpmath.mpc(c.real, c.imag) for c in coeffs], zz)
    return float(_margin(klass, mpmath.mpf(alpha), g, zgp, mpmath.fabs, mpmath.re))


_SEARCH = np.concatenate(
    [r * np.exp(2j * np.pi * np.arange(256) / 256) for r in (0.5, 0.7, 0.9)]
)


def _witness(klass: str, alpha: float, coeffs) -> float | None:
    """Smallest margin over points with |z| <= 0.9, confirmed in mpmath."""
    a = np.asarray(coeffs, dtype=complex)
    powers = _SEARCH[:, None] ** np.arange(1, len(a) + 1)[None, :]
    g = 1 + powers @ a
    zgp = powers @ (a * np.arange(1, len(a) + 1))
    with np.errstate(all="ignore"):
        m = _margin(klass, alpha, g, zgp, np.abs, np.real)
    m = np.where(np.isfinite(m) & (np.abs(g) > 1e-3), m, np.inf)
    i = int(np.argmin(m))
    if not m[i] <= -2 * SLACK:
        return None
    return margin_mp(klass, alpha, coeffs, complex(_SEARCH[i]))


# -------------------------------------------------------------- inputs

def _profile(rng: random.Random, degree: int, dense: bool) -> list[complex]:
    """Random unit-phase profile; dense profiles fill every index."""
    n_active = degree + 1 if dense else rng.randint(1, degree + 1)
    idx = set(rng.sample(range(degree + 1), n_active)) | {degree}
    return [
        rng.expovariate(1.0) * complex(math.cos(t), math.sin(t)) if n in idx else 0j
        for n, t in enumerate(rng.uniform(0, 2 * math.pi) for _ in range(degree + 1))
    ]


def thm21(alpha: float, degree: int) -> list[complex]:
    c = 1.0 / (math.sqrt(1.0 + alpha * alpha) + alpha)
    return [complex(2.0 * c ** (n + 1)) for n in range(degree + 1)]


def expz(degree: int) -> list[complex]:
    return [complex(1.0 / math.factorial(n + 1)) for n in range(degree + 1)]


def me_certified(rng, alpha, degree, dense):
    """sum (1 + alpha(n+1))|a_n| = u <= 1 - SLACK, so the ME margin is >= SLACK."""
    p = _profile(rng, degree, dense)
    total = math.fsum((1 + alpha * (n + 1)) * abs(c) for n, c in enumerate(p))
    u = rng.uniform(0.3, 1.0 - SLACK)
    return [c * u / total for c in p]


def mf_certified(rng, beta, degree, dense):
    """|zg'/g| <= S1/(1 - S0) <= (1 - beta) - SLACK, with S1 = sum (n+1)|a_n|
    and S0 = sum |a_n|; this also bounds Re(zg'/g)."""
    p = _profile(rng, degree, dense)
    s0 = math.fsum(abs(c) for c in p)
    s1 = math.fsum((n + 1) * abs(c) for n, c in enumerate(p))
    cap = (1.0 - beta) - SLACK
    t = cap / (s1 + cap * s0) * rng.uniform(0.3, 1.0)
    return [c * t for c in p]


def violating(rng, klass, alpha, degree, dense):
    """Random series whose margin is <= -SLACK at a point with |z| <= 0.9."""
    for _ in range(100):
        p = _profile(rng, degree, dense)
        # normalize by the mass seen at |z| = 0.9, where the witness is sought
        total = math.fsum((n + 1) * abs(c) * 0.9 ** (n + 1) for n, c in enumerate(p))
        scale = rng.uniform(1.5, 4.0) / total
        for _ in range(8):
            coeffs = [c * scale for c in p]
            m = _witness(klass, alpha, coeffs)
            if m is not None and m <= -SLACK:
                return coeffs
            scale *= 1.5
    raise RuntimeError(f"no {klass} violation found at degree {degree}")


# ------------------------------------------------------------- writers

class _Files:
    def __init__(self, work: Path):
        self.work = work
        self.n = 0

    def write(self, payload) -> str:
        self.n += 1
        path = self.work / f"in{self.n:04d}.json"
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    def series(self, coeffs) -> str:
        return self.write({"coeffs": [[c.real, c.imag] for c in coeffs]})


def _check(files, klass, alpha, coeffs, kind, source, member, extra=()):
    if not member:
        m = _witness(klass, alpha, coeffs)
        if m is None or m > -SLACK:
            raise RuntimeError(f"{klass}/{kind}: no violation of {SLACK} found")
    return Request(
        ("check", "--class", klass, "--alpha", repr(alpha), "--series", files.series(coeffs))
        + tuple(extra),
        kind=f"{klass}/{kind}",
        source=source,
        expect_exit=0 if member else 1,
        expect_status=MEMBER if member else NON_MEMBER,
    )


def _grid_class_requests(rng, files, klass, counts, degrees, dense, extra=()):
    """Members and non-members of one grid-checked class.

    Degrees are spread evenly over the range rather than drawn, so that every
    seed gives the same input sizes; the seed draws the coefficients.
    """
    lo, hi = degrees
    out = []
    for kind, n in counts.items():
        for j in range(n):
            d = lo + (j * (hi - lo + 1)) // n
            if kind == "thm21" and klass == "me":
                a = rng.uniform(1.0, 3.0)
                out.append(_check(files, klass, a, thm21(a, d), kind, "catalog", True, extra))
            elif kind == "thm21":
                a = rng.uniform(1.5, 3.0)
                beta = 1.0 - 1.0 / a - rng.uniform(SLACK, 0.3)
                out.append(_check(files, klass, beta, thm21(a, d), kind, "catalog", True, extra))
            elif kind == "expz" and klass == "me":
                d = min(d, 128)
                out.append(_check(files, klass, 1.0, expz(d), kind, "mpmath", False, extra))
            elif kind == "expz":
                d = min(d, 128)
                out.append(_check(files, klass, 0.0, expz(d), kind, "catalog", True, extra))
            elif kind == "onemz2":
                member = klass == "starlike"
                coeffs = [-2 + 0j, 1 + 0j]
                out.append(_check(files, klass, 0.0, coeffs, kind, "catalog", member, extra))
            elif kind == "cert" and klass == "me":
                a = rng.uniform(0.0, 2.0)
                coeffs = me_certified(rng, a, d, dense)
                out.append(_check(files, klass, a, coeffs, kind, "certificate", True, extra))
            elif kind == "cert":
                beta = rng.uniform(0.0, 0.8)
                coeffs = mf_certified(rng, beta, d, dense)
                out.append(_check(files, klass, beta, coeffs, kind, "certificate", True, extra))
            else:  # viol
                a = rng.uniform(0.0, 2.0) if klass == "me" else rng.uniform(0.0, 0.8)
                coeffs = violating(rng, klass, a, d, dense)
                out.append(_check(files, klass, a, coeffs, kind, "mpmath", False, extra))
    return out


def _weights(alpha, mags):
    return [1.0 + alpha * (n + 1) for n in range(1, len(mags) + 1)]


def _tme_requests(rng, files, n_members, n_non, n_dec, n_dec_non):
    """Negative-coefficient files for `check --class tme` and `decompose`."""
    out = []
    plan = (
        [("check", True)] * n_members + [("check", False)] * n_non
        + [("decompose", True)] * n_dec + [("decompose", False)] * n_dec_non
    )
    for i, (cmd, member) in enumerate(plan):
        alpha = rng.uniform(0.0, 2.0)
        k = 1 + i % 4
        raw = [rng.expovariate(1.0) for _ in range(k)]
        w = _weights(alpha, raw)
        total = math.fsum(wi * m for wi, m in zip(w, raw))
        if member:
            u = rng.uniform(0.2, 1.0 - SLACK)
        else:
            # weighted sum at z = 0.9 is >= 1 + SLACK, so the ME margin
            # 1 - sum w_n a_n 0.9^{n+1} on the positive axis is <= -SLACK
            at09 = math.fsum(wi * m * 0.9 ** (n + 2) for n, (wi, m) in enumerate(zip(w, raw)))
            u = total * (1.0 + rng.uniform(SLACK, 0.5)) / at09
        mags = [m * u / total for m in raw]
        path = files.write({"magnitudes": mags})
        a = repr(alpha)
        if cmd == "check":
            out.append(Request(
                ("check", "--class", "tme", "--alpha", a, "--series", path),
                kind="tme/" + ("member" if member else "non"),
                source="exact",
                expect_exit=0 if member else 1,
                expect_status=frozenset({"CertifiedMember"}) if member else NON_MEMBER,
            ))
        else:
            lam = [wi * m for wi, m in zip(w, mags)]
            out.append(Request(
                ("decompose", "--alpha", a, "--series", path),
                kind="decompose/" + ("member" if member else "non"),
                source="exact",
                expect_exit=0 if member else 1,
                weights=(1.0 - math.fsum(lam), *lam) if member else None,
            ))
    return out


def _hostile_requests(files):
    series = files.series([0.1 + 0j, 0.05 + 0j])
    mags = files.write({"magnitudes": [0.1, 0.05]})
    bool_coeff = files.write('{"coeffs": [[true, false]]}')
    malformed = files.write('{"coeffs": [[0.1, 0')

    def req(kind, *argv):
        return Request(tuple(argv), kind=f"hostile/{kind}", source="hostile", expect_exit=2)

    return [
        req("me-nan", "check", "--class", "me", "--alpha", "nan", "--series", series),
        req("mf-nan", "check", "--class", "mf", "--alpha", "nan", "--series", series),
        req("starlike-nan", "check", "--class", "starlike", "--alpha", "nan", "--series", series),
        req("tme-nan", "check", "--class", "tme", "--alpha", "nan", "--series", mags),
        req("bool-coeff", "check", "--class", "me", "--alpha", "1.0", "--series", bool_coeff),
        req("malformed-json", "check", "--class", "me", "--alpha", "1.0", "--series", malformed),
        req("mf-alpha-ge-1", "check", "--class", "mf", "--alpha", "1.0", "--series", series),
    ]


# ------------------------------------------------------------ workloads

def generate(workload: str, seed: int, work: Path) -> list[Request]:
    """The request pool of one workload; the run cycles through it in order.

    The same workload and seed give the same requests and the same file
    bytes. suite-all requests write their report to work/report.json.

    A suite-all op is `suite --name all --seed s_i` done as its 11 suites,
    one CLI call each, with the parameters that `all` gives them. The host
    speed can then be probed between the suites rather than only every 6 s.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    files = _Files(work)
    if workload == "suite-all":
        from merostar.harness import SUITE_IDS

        out = str(work / "report.json")
        pool = []
        for _ in range(SUITE_OPS):
            seed = str(rng.randrange(10**6))
            for sid in SUITE_IDS[:-1]:
                seeded = () if sid in SEEDLESS_SUITES else ("--seed", seed)
                pool.append(Request(
                    ("suite", "--name", sid, *seeded, "--out", out),
                    kind=f"suite/{sid}",
                    source="catalog",
                    expect_exit=0,
                    unit=f"suite all --seed {seed}",
                ))
        return pool
    if workload == "check-highdeg":
        pool = []
        for klass in ("me", "mf", "starlike"):
            counts = {"thm21": 5, "cert": 5, "viol": 4, "expz": 2}
            pool += _grid_class_requests(rng, files, klass, counts, (64, 256), True)
    elif workload == "check-csv":
        extra = ("--csv", str(work / "margins.csv"))
        counts = {"thm21": 2, "cert": 2, "viol": 2}
        pool = _grid_class_requests(rng, files, "me", counts, (64, 64), True, extra)
        pool = [
            Request(r.argv, r.kind, r.source, r.expect_exit, r.expect_status, csv_path=extra[1])
            for r in pool
        ]
    else:  # check-lowdeg: 242 well-formed requests and 14 hostile ones
        pool = _grid_class_requests(rng, files, "me", {"cert": 32, "viol": 24}, (0, 4), False)
        for klass in ("mf", "starlike"):
            counts = {"cert": 24, "viol": 20, "onemz2": 8}
            pool += _grid_class_requests(rng, files, klass, counts, (0, 4), False)
        pool += _tme_requests(rng, files, 24, 20, 24, 14)
        pool += _hostile_requests(files) * 2
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------- judge

def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in output")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def judge(req: Request, code, stdout: str) -> str | None:
    """None when the op gave its expected answer, else the reason it failed.

    `code` is the exit code, or None when the call raised.
    """
    if code is None:
        return "raised"
    if req.argv[0] == "suite":
        return None  # judged from its report by judge_suite
    if code != req.expect_exit:
        return f"exit {code}, expected {req.expect_exit}"
    if req.expect_exit == 2:
        return None
    if req.argv[0] == "decompose" and code == 1:
        return None if not stdout.strip() else "output on refusal"
    try:
        payload = strict_json(stdout)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    if req.weights is not None:
        got = payload.get("weights")
        if not isinstance(got, list) or len(got) != len(req.weights):
            return "wrong weights"
        if any(abs(a - b) > 1e-9 for a, b in zip(got, req.weights)):
            return "wrong weights"
        return None
    status = payload.get("status")
    if status not in req.expect_status:
        return f"status {status}, expected {'/'.join(sorted(req.expect_status))}"
    return None


def judge_csv(req: Request) -> tuple[str | None, int, int]:
    """Check the margin CSV against the expected verdict.

    Streams the file, keeping only a running minimum, so the check adds no
    memory that grows with the CSV. Returns (reason or None, data rows, bytes).
    """
    path = Path(req.csv_path)
    size = path.stat().st_size
    rows = 0
    lowest = math.inf
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["radius", "theta", "re", "im", "margin"]:
            return "bad CSV header", 0, size
        for row in reader:
            rows += 1
            margin = float(row[4])
            if not math.isfinite(margin):
                return "non-finite margin in CSV", rows, size
            lowest = min(lowest, margin)
    if rows == 0:
        return "no rows in CSV", 0, size
    member = req.expect_exit == 0
    if member and lowest < -MARGIN_TOL or not member and lowest >= 0:
        return f"CSV minimum margin {lowest:.3e} contradicts the expected verdict", rows, size
    return None, rows, size


def judge_suite(req: Request, code: int, stdout: str, first_names: list[str] | None):
    """(reason or None, check names) for one `suite` op.

    The op must exit 0 with a passing report. Check names are given as
    `<suite>/<check>`, as `suite --name all` reports them. A report whose only
    failing check is ROUNDING_CHECK, with a margin under 1e-12 in size, and
    whose op exited 1, gets the reason SUITE_ROUNDING.
    """
    name = req.argv[req.argv.index("--name") + 1]
    prefix = "" if name == "all" else f"{name}/"
    try:
        report = strict_json(Path(req.argv[req.argv.index("--out") + 1]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}", None
    checks = report.get("checks", [])
    names = [prefix + c["name"] for c in checks]
    failing = [c for c in checks if c.get("status") == "fail"]
    failing_names = [prefix + c["name"] for c in failing]
    passed = report.get("passed") is True and stdout.startswith(f"suite {name}: pass")
    if failing or not passed or code != 0:
        if (
            code == 1
            and failing_names == [ROUNDING_CHECK]
            and abs(failing[0]["margin"]) < 1e-12
        ):
            return SUITE_ROUNDING, names
        return f"exit {code}, failing checks {failing_names}", names
    if first_names is not None and names != first_names:
        return "check names differ from the first passing op", names
    return None, names


def known_defect(req: Request, reason: str) -> bool:
    """True when a failed op failed in a way listed as a known defect."""
    return req.kind in KNOWN_HOSTILE_MISSES or reason == SUITE_ROUNDING
