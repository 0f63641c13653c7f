"""Report types and the member fold shared by the stability check and the harness."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .classes import MembershipVerdict, Status
from .tolerances import EXACT_TOL, MARGIN_TOL, ZERO_TOL

__all__ = [
    "CheckStatus", "CheckResult", "fold_members", "VerificationReport", "TOLERANCES", "DEVIATIONS"
]

TOLERANCES = {
    "margin_tol": MARGIN_TOL,
    "zero_tol": ZERO_TOL,
    "exact_tol": EXACT_TOL,
}

# Conventions that resolve ambiguities in the source formulas; every report
# names them so a reader can audit what was actually checked.
DEVIATIONS = (
    "d_n is the negative root sqrt(alpha^2 n^2 + 1) - alpha*n (the positive-sign "
    "variant exceeds 1 and would put a pole of g inside the disc)",
    "d_k = 1 + alpha*(k+1), indexed by the summation variable k",
    "the order functional's sharp limit 1 - 1/alpha is evaluated along the "
    "positive real axis; the mirrored direction tends to 1 + 1/alpha",
    "partial sums, the neighborhood distance and the ratio hypothesis all "
    "exclude the constant coefficient a_0",
    "exact-sum certificates allow 1e-12 slack so boundary members are not "
    "lost to rounding",
    "neighborhood radius symbol is delta_star = 1/(1+2*alpha); sampling uses "
    "delta = delta_star*scale with scale <= 1 and requires delta < eps < 1",
)


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INAPPLICABLE = "inapplicable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: CheckStatus
    margin: Optional[float] = None
    witness: Optional[complex] = None
    detail: str = ""

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "status": self.status.value}
        out["margin"] = None if self.margin is None else float(self.margin)
        if self.witness is not None:
            out["witness"] = [self.witness.real, self.witness.imag]
        if self.detail:
            out["detail"] = self.detail
        return out


def fold_members(name: str, verdicts: Iterable[MembershipVerdict], detail: str) -> CheckResult:
    """Fold the verdicts of sampled functions that must all be members.

    The check fails if any verdict is NonMember, is indeterminate if any
    other is undecided (the detail then counts them) and passes with the
    given detail otherwise. Its margin and witness are those of the least
    min_margin, the first on ties; inf and None when there are no verdicts.
    """
    verdicts = list(verdicts)
    worst = min(verdicts, key=lambda v: v.min_margin, default=None)
    refuted = sum(v.status is Status.NON_MEMBER for v in verdicts)
    undecided = sum(not v.is_member for v in verdicts) - refuted
    if refuted:
        status = CheckStatus.FAIL
        detail = f"{refuted} of {len(verdicts)} samples refuted"
    elif undecided:
        status = CheckStatus.INDETERMINATE
        detail = f"{undecided} of {len(verdicts)} samples within margin tolerance"
    else:
        status = CheckStatus.PASS
    margin, witness = (math.inf, None) if worst is None else (worst.min_margin, worst.witness)
    return CheckResult(name, status, margin, witness, detail)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    inputs: dict
    checks: tuple[CheckResult, ...]
    runtime_ms: int
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))
    deviations: tuple[str, ...] = DEVIATIONS

    @property
    def passed(self) -> bool:
        return all(c.status is not CheckStatus.FAIL for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "tolerances": dict(self.tolerances),
            "deviations": list(self.deviations),
            "passed": self.passed,
            "runtime_ms": self.runtime_ms,
        }
