import math

from merostar.classes import MembershipVerdict, Status
from merostar.reporting import CheckStatus, fold_members


def verdict(status, margin, witness):
    return MembershipVerdict(status, margin, witness, 10)


MEMBERS = [
    verdict(Status.SAMPLED_MEMBER, 0.5, 0.1j),
    verdict(Status.CERTIFIED_MEMBER, 0.2, 0.2j),
    verdict(Status.SAMPLED_MEMBER, 0.7, 0.3j),
]


def test_all_members_pass_with_the_given_detail():
    check = fold_members("members", MEMBERS, "3 random members")
    assert check.name == "members"
    assert check.status is CheckStatus.PASS
    assert (check.margin, check.witness) == (0.2, 0.2j)
    assert check.detail == "3 random members"


def test_one_non_member_fails_with_its_margin_and_witness():
    refuted = verdict(Status.NON_MEMBER, -0.4, 0.9 + 0j)
    undecided = verdict(Status.INDETERMINATE, 1e-15, 0.5j)
    check = fold_members("members", [*MEMBERS, undecided, refuted], "5 random members")
    assert check.status is CheckStatus.FAIL
    assert (check.margin, check.witness) == (-0.4, 0.9 + 0j)
    assert check.detail == "1 of 5 samples refuted"


def test_one_undecided_among_members_is_indeterminate():
    undecided = verdict(Status.INDETERMINATE, 1e-15, 0.5j)
    check = fold_members("members", [*MEMBERS, undecided], "4 random members")
    assert check.status is CheckStatus.INDETERMINATE
    assert (check.margin, check.witness) == (1e-15, 0.5j)
    assert check.detail == "1 of 4 samples within margin tolerance"


def test_the_first_witness_wins_a_tie():
    tied = [verdict(Status.SAMPLED_MEMBER, 0.2, 0.4j), *MEMBERS]
    assert fold_members("members", tied, "").witness == 0.4j
    assert fold_members("members", reversed(tied), "").witness == 0.2j


def test_no_verdicts_pass_vacuously():
    check = fold_members("members", iter(()), "none")
    assert check.status is CheckStatus.PASS
    assert check.margin == math.inf and check.witness is None
