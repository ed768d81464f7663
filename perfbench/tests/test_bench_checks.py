"""Each workload's output check flags a perturbed output."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from workloads import (
    BETA_EPS,
    CENSUS_COUNTS,
    WORKED_BETA,
    WORKED_EPS,
    WORKED_PRIMES,
    WORKED_TARGET,
    beta_check,
    census_check,
    identify_check,
    lemmas_check,
)

REFERENCE = json.loads((Path(workloads.__file__).parent / "reference.json").read_text())
FLOOR = (0.11487492027512397, 78497)


def failures(verdicts):
    return sum(v is not None for v in verdicts)


def census_records():
    return [
        {"order": n, "digests": list(REFERENCE["census"][str(n)])}
        for n in range(1, len(CENSUS_COUNTS) + 1)
    ]


def test_reference_census_matches_the_published_counts():
    records = census_records()
    assert [len(r["digests"]) for r in records] == list(CENSUS_COUNTS)
    assert failures(census_check([records], REFERENCE)) == 0


def test_census_wrong_class_count_fails():
    records = census_records()
    records[15]["digests"].pop()
    verdicts = census_check([records], REFERENCE)
    assert failures(verdicts) == 1
    assert "expected 14" in verdicts[15]


def test_census_changed_class_fails():
    records = census_records()
    order = 12
    index = 3
    records[order - 1]["digests"][index] = workloads.class_digest(
        order, index, "D12", 8, 9, [0] * order * order
    )
    assert failures(census_check([records], REFERENCE)) == 1


def test_census_exception_fails():
    record = workloads.census_record((1, 20), None, RuntimeError("boom"))
    assert failures(census_check([record], REFERENCE)) == 1


def test_census_digest_covers_name_and_table():
    base = workloads.class_digest(4, 0, "Z4", 2, 3, range(16))
    assert workloads.class_digest(4, 0, None, 2, 3, range(16)) != base
    assert workloads.class_digest(4, 0, "Z4", 2, 3, [1] + list(range(1, 16))) != base


def worked(beta=WORKED_BETA, primes=WORKED_PRIMES):
    return {
        "target": WORKED_TARGET,
        "eps": WORKED_EPS,
        "worked": True,
        "outcome": "converged",
        "beta": beta,
        "primes": primes,
    }


def converged(t, beta):
    return {"target": t, "eps": BETA_EPS, "worked": False, "outcome": "converged", "beta": beta}


def unreachable(t, selected=FLOOR[1], beta=Fraction(1149, 10**4)):
    return {
        "target": t,
        "eps": BETA_EPS,
        "worked": False,
        "outcome": "unreachable",
        "beta": beta,
        "selected": selected,
    }


def test_beta_correct_outcomes_pass():
    t = Fraction(5, 10)
    records = [
        worked(),
        converged(t, t),
        converged(t, t + BETA_EPS),
        unreachable(Fraction(647, 10**4)),
    ]
    assert failures(beta_check(records, REFERENCE, FLOOR)) == 0


@pytest.mark.parametrize("offset", [Fraction(-1, 10**9), BETA_EPS + Fraction(1, 10**9)])
def test_beta_off_by_a_billionth_fails(offset):
    t = Fraction(3141, 10**4)
    assert failures(beta_check([converged(t, t + offset)], REFERENCE, FLOOR)) == 1


def test_beta_worked_example_must_match_exactly():
    records = [
        worked(beta=WORKED_BETA + Fraction(1, 10**9)),
        worked(primes=(3, 5, 7, 11, 13, 17)),
    ]
    assert failures(beta_check(records, REFERENCE, FLOOR)) == 2


def test_beta_convergence_error_counts_only_below_the_floor():
    records = [
        unreachable(Fraction(1149, 10**4)),  # just above the floor: must converge
        unreachable(Fraction(1, 2)),
        unreachable(Fraction(647, 10**4), selected=FLOOR[1] - 1),
        unreachable(Fraction(647, 10**4), beta=Fraction(646, 10**4)),
    ]
    assert failures(beta_check(records, REFERENCE, FLOOR)) == 4


def test_beta_other_exception_fails():
    record = {**converged(Fraction(1, 3), None), "error": "target 1/3: ValueError: boom"}
    assert failures(beta_check([record], REFERENCE, FLOOR)) == 1


def test_beta_floor_matches_the_documented_value():
    floor, count = workloads.beta_floor()
    assert count == FLOOR[1]
    assert floor == pytest.approx(FLOOR[0], rel=1e-12)


def test_beta_targets_are_criterion_8_in_seeded_order():
    a, b = workloads.beta_targets(1), workloads.beta_targets(2)
    assert sorted(a) == sorted(b) and a != b
    assert a == workloads.beta_targets(1)
    assert sum(t < FLOOR[0] for t in a) == 14


def test_lemmas_exit_code_and_digest_are_checked():
    good = {"exit": 0, **REFERENCE["lemmas"]}
    records = [good, {**good, "exit": 1}, {**good, "sha256": "0" * 64}]
    assert lemmas_check(records, REFERENCE)[0] is None
    assert failures(lemmas_check(records, REFERENCE)) == 2


def test_identify_wrong_name_or_count_fails():
    good = [dict(entry) for entry in REFERENCE["identify_large"]]
    assert failures(identify_check(good, REFERENCE)) == 0
    bad = [dict(entry) for entry in good]
    bad[0]["name"] = "Z4092"
    bad[1]["c"] += 1
    assert failures(identify_check(bad, REFERENCE)) == 2
