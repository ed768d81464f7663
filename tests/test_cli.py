import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from grpinv import classify, cli, fork, groups
from grpinv.classify import Counterexample, VerificationReport
from grpinv.cli import run
from grpinv.density import approximate_beta
from grpinv.errors import DomainError, ResourceLimitError

INVARIANT_KEYS = {"group", "order", "i", "c", "r", "beta_num", "beta_den"}
APPROX_KEYS = {
    "target_num",
    "target_den",
    "eps_num",
    "eps_den",
    "primes",
    "beta_num",
    "beta_den",
    "primes_scanned",
}


def _src_env() -> dict:
    """The environment of a subprocess that imports grpinv from this checkout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return env


def machine_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines()]


def test_invariants_human(capsys):
    assert run(["invariants", "D(6)"]) == 0
    out = capsys.readouterr().out
    assert "i=4" in out and "c=5" in out and "r=1" in out and "beta=4/5" in out


def test_invariants_machine_schema(capsys):
    assert run(["--format", "machine", "invariants", "D(6)"]) == 0
    (record,) = machine_lines(capsys)
    assert set(record) == INVARIANT_KEYS
    assert record == {
        "group": "D(6)",
        "order": 6,
        "i": 4,
        "c": 5,
        "r": 1,
        "beta_num": 4,
        "beta_den": 5,
    }


def test_identify_machine(capsys):
    assert run(["--format", "machine", "identify", "SD(9,8)"]) == 0
    (record,) = machine_lines(capsys)
    assert record["name"] == "D18" and record["order"] == 18


@pytest.mark.parametrize(
    "text, name",
    [
        ("Z(4100)", "Z4100"),
        ("Z(2)xD(2050)", "D4100"),
        ("Q(4100)", "Dic4100"),
        ("Z(2)xZ(2050)", None),
    ],
)
def test_identify_builds_family_candidates_under_the_callers_cap(text, name, capsys):
    # Above the default cap of 4096: there are no candidates, since the
    # family's relations are checked in G's own table, which the cap admitted.
    argv = ["--format", "machine", "--table-cap", "4100", "identify", text]
    assert run(argv) == 0
    (record,) = machine_lines(capsys)
    assert record["name"] == name and record["order"] == 4100


@pytest.mark.parametrize("module", ["grpinv", "grpinv.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    argv = ["--format", "machine", "identify", "D(6)"]
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert run(argv) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out
    assert '"name": "D6"' in proc.stdout


def test_enumerate_machine_schema(capsys):
    assert run(["--format", "machine", "enumerate", "8"]) == 0
    records = machine_lines(capsys)
    classes, summary = records[:-1], records[-1]
    assert summary["classes"] == 5 and summary["order"] == 8
    assert {r["name"] for r in classes} == {"Z8", "Z4xZ2", "Z2xZ2xZ2", "D8", "Q8"}
    for r in classes:
        assert INVARIANT_KEYS - {"group"} <= set(r)


def test_enumerate_runs_a_process_per_cpu_it_may_use(capsys, monkeypatch):
    from grpinv import cli

    seen = []
    real = cli.enumerate_groups

    def spy(n, **kwargs):
        seen.append(kwargs["workers"])
        return real(n, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(cli, "enumerate_groups", spy)
    assert run(["--format", "machine", "enumerate", "8"]) == 0
    assert seen == [3]
    assert machine_lines(capsys)[-1]["classes"] == 5


def test_importing_the_cli_loads_no_fan_out_machinery():
    # Only a fan-out that forks pays for multiprocessing and signal.
    code = (
        "import sys, grpinv, grpinv.cli; "
        "print(sorted({'multiprocessing', 'signal'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_theorem1_machine(capsys):
    assert run(["--format", "machine", "verify", "theorem1", "--max-order", "12"]) == 0
    records = machine_lines(capsys)
    assert [r["claim"] for r in records] == ["T1.1-r0", "T1.1-r1", "T1.1-r2"]
    assert all(r["status"] == "verified" for r in records)
    assert len(records[1]["witnesses"]) == 8


def test_verify_theorem22_and_23(capsys):
    assert run(["verify", "theorem22", "--max-order", "12"]) == 0
    assert run(["verify", "theorem23", "--r", "1", "--max-order", "12"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


# SHA-256 of the default-flag `--format machine verify ...` stdout: however
# the claims read the census, their records must not move.
@pytest.mark.parametrize(
    "claim, stdout",
    [
        (
            ["theorem1"],
            "97ebae451f5874d604a3502f20a1880a0785549f5686d5c21b717eb81104fa28",
        ),
        (
            ["theorem22"],
            "ea78e196c50fbf5de227a4ad783bce7f99ca80897570b84dd0f71059d66f1563",
        ),
        (
            ["theorem23", "--r", "1"],
            "d01ec80f44acc0bbd2290500668a3522ea26ff59809a15324e71d10ea40fe267",
        ),
        (
            ["theorem23", "--r", "2"],
            "2e13c7f1c9cca263519c459e09c97006566d8c96c4c7453e0d61322a879e2165",
        ),
        (
            ["theorem23", "--r", "4"],
            "89b83134b89393a747fb9c952a999213089e08e8509fe448204e0bdf9975df1f",
        ),
    ],
    ids=["theorem1", "theorem22", "theorem23-r1", "theorem23-r2", "theorem23-r4"],
)
def test_verify_machine_output_is_pinned(capsys, claim, stdout):
    assert run(["--format", "machine", "verify", *claim]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout
    assert captured.err == ""


def test_verify_theorem24(capsys):
    assert run(["--format", "machine", "verify", "theorem24", "--n", "25"]) == 0
    (record,) = machine_lines(capsys)
    assert record["status"] == "verified"
    assert record["witnesses"] == ["SD(25,1)~Z2xZ25", "SD(25,24)~D50"]


def test_verify_lemmas_small(capsys):
    # shrink the sweeps through the caps so the CLI path stays quick
    assert (
        run(
            [
                "--table-cap",
                "128",
                "--enum-cap",
                "8",
                "verify",
                "lemmas",
                "--max-order",
                "8",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    for claim in ("L2.1", "L3.1a", "L3.1b", "L4.1", "L4.2"):
        assert claim in out


def test_verify_lemmas_machine_schema(capsys):
    assert (
        run(
            [
                "--format",
                "machine",
                "--table-cap",
                "64",
                "--enum-cap",
                "6",
                "verify",
                "lemmas",
                "--max-order",
                "6",
            ]
        )
        == 0
    )
    records = machine_lines(capsys)
    claims = {r["claim"] for r in records}
    assert claims == {"L2.1", "L3.1a", "L3.1b", "L4.1", "L4.2"}
    for r in records:
        assert {"claim", "scope", "status", "witnesses"} <= set(r)
        assert r["status"] == "verified"


def test_verify_all_at_a_small_order_verifies_every_record(capsys):
    assert run(["--format", "machine", "verify", "all", "--max-order", "8"]) == 0
    records = machine_lines(capsys)
    assert all(r["status"] == "verified" for r in records)
    claims = {r["claim"] for r in records}
    assert {"T1.1-r0", "T2.2", "T2.3-r4", "T2.4", "L2.1", "L4.2"} <= claims
    # Case f is a claim about order 12, so a sweep to 8 leaves it out.
    assert not any(r["scope"].startswith("order 12") for r in records)


def test_verify_all_above_the_default_enum_cap(capsys):
    argv = ["--format", "machine", "--enum-cap", "17", "--table-cap", "512"]
    assert run([*argv, "verify", "all", "--max-order", "17"]) == 0
    records = machine_lines(capsys)
    assert all(r["status"] == "verified" for r in records)
    (l21,) = [r for r in records if r["claim"] == "L2.1"]
    assert l21["scope"].startswith("all orders <= 17")


def test_verify_all_is_every_claim_in_one_run(capsys):
    # One path: the records of each subcommand at the same flags, in turn,
    # with case f's record after T2.4's.
    flags = ["--format", "machine", "--table-cap", "512"]

    def stdout(*claim):
        assert run([*flags, "verify", *claim]) == 0
        return capsys.readouterr().out

    top = ["--max-order", "12"]
    expected = stdout("theorem1", *top) + stdout("theorem22", *top)
    for r in ("1", "2", "4"):
        expected += stdout("theorem23", "--r", r, *top)
    for n in (3, 5, 9, 25, 27, 49, 6, 10, 18):
        expected += stdout("theorem24", "--n", str(n))
    case_f = classify.order12_case_f_report()
    cli._print_report(argparse.Namespace(format="machine"), case_f)
    expected += capsys.readouterr().out + stdout("lemmas", *top)
    assert stdout("all", *top) == expected


@pytest.mark.slow
def test_verify_lemmas_default_caps(capsys):
    # the full sweep: L3.1a to 128, every dihedral prime subset up to 4096
    assert run(["verify", "lemmas", "--max-order", "128"]) == 0
    out = capsys.readouterr().out
    assert out.count("[L4.2]") == 522
    assert out.count("[L3.1a]") == 128
    assert out.count("[L4.1]") == 100
    assert "counterexample" not in out
    # The full machine report at default caps, byte for byte.
    assert run(["--format", "machine", "verify", "lemmas"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 673
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "307123c866fbbf550d115ff0a6b33531d719f1bcf1ab7503f9688c35740c53d9"
    )


LEMMAS_SMALL = ["--format", "machine", "--table-cap", "512", "--enum-cap", "8"]
LEMMAS_SMALL += ["verify", "lemmas", "--max-order", "16"]


@pytest.fixture
def fork_spy(monkeypatch):
    """The pids ``os.fork`` returns in this process, while the test runs."""
    forked = []
    real_fork = os.fork

    def spy():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_lemmas_reads_the_same_on_any_process_count(
    fork_spy, monkeypatch, capsys
):
    # One process per CPU in use, claiming one sweep at a time; the
    # reports come back in sweep order whoever ran them.
    runs = []
    for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        fork_spy.clear()
        code = run(LEMMAS_SMALL)
        runs.append((code, capsys.readouterr(), len(fork_spy)))
        _assert_no_child_left()
    assert [forks for _, _, forks in runs] == [0, 1, 3]
    (code, captured, _), *others = runs
    assert code == 0 and captured.err == ""
    assert captured.out.count('"L4.2"') > 2
    for other_code, other, _ in others:
        assert (other_code, other.out, other.err) == (code, captured.out, captured.err)


def test_a_lemma_failure_in_a_child_reads_as_in_a_serial_run(
    monkeypatch, capsys, tmp_path
):
    def refuse(primes, **kwargs):
        raise DomainError("no dihedral product here")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(classify, "check_lemma42", refuse)
    serial = run(LEMMAS_SMALL), capsys.readouterr()
    assert serial[0] == 2 and serial[1].out == ""

    # Here only a child refuses.  The parent waits in its own first L4.2
    # sweep until one has, so a child is sure to claim one meanwhile.
    parent = os.getpid()
    refused = tmp_path / "refused"
    real = classify.check_lemma42

    def refuse_in_a_child(primes, **kwargs):
        if os.getpid() != parent:
            refused.touch()
            refuse(primes, **kwargs)
        began = time.monotonic()
        while not refused.exists() and time.monotonic() - began < 30:
            time.sleep(0.01)
        return real(primes, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(classify, "check_lemma42", refuse_in_a_child)
    assert (run(LEMMAS_SMALL), capsys.readouterr()) == serial
    assert refused.exists()
    _assert_no_child_left()


def test_run_in_order_forks_no_more_processes_than_tasks(fork_spy, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert fork.run_in_order([lambda: "a", lambda: "b"]) == ["a", "b"]
    assert len(fork_spy) == 1
    assert fork.run_in_order([]) == []
    assert len(fork_spy) == 1
    _assert_no_child_left()


def test_the_library_sweep_prints_what_the_cli_prints(capsys):
    reports = classify.verify_lemmas(16, table_cap=512, enum_cap=8)
    for report in reports:
        cli._print_report(argparse.Namespace(format="machine"), report)
    library = capsys.readouterr().out
    assert run(LEMMAS_SMALL) == 0
    assert capsys.readouterr().out == library


def test_the_first_failing_sweep_decides_on_any_process_count(monkeypatch, capsys):
    # Two sweeps refuse; a serial run stops at the first, and so does a
    # fan-out, whichever process ran either.
    real = classify.check_lemma31a

    def refuse_two(n, **kwargs):
        if n in (3, 11):
            raise ResourceLimitError(f"L3.1a refused at n = {n}")
        return real(n, **kwargs)

    monkeypatch.setattr(classify, "check_lemma31a", refuse_two)
    for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert run(LEMMAS_SMALL) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: L3.1a refused at n = 3\n")
        _assert_no_child_left()


def test_the_cli_reads_the_same_without_sched_getaffinity(
    fork_spy, monkeypatch, capsys
):
    # os.sched_getaffinity is Linux-only; elsewhere the CPU count comes from
    # os.cpu_count, here pinned to 2 so that enumerate forks one child.
    commands = (["verify", "theorem1"], ["enumerate", "8"])
    outputs = []
    for command in commands:
        assert run(["--format", "machine", *command]) == 0
        outputs.append(capsys.readouterr())
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fork_spy.clear()
    for command, output in zip(commands, outputs):
        assert run(["--format", "machine", *command]) == 0
        assert capsys.readouterr() == output
    assert len(fork_spy) == 1
    _assert_no_child_left()


def test_approx_beta_machine(capsys):
    assert (
        run(["--format", "machine", "approx-beta", "0.5", "--eps", "0.001"]) == 0
    )
    (record,) = machine_lines(capsys)
    assert set(record) == APPROX_KEYS
    assert record["primes"] == [3, 5, 7, 11, 13, 19]
    assert record["beta_num"] == 2048 and record["beta_den"] == 4095


def test_approx_beta_machine_prints_a_huge_exact_beta(capsys):
    # 67,894 primes: beta has ~80k digits, past the int-to-str limit.
    target, eps = Fraction(1161, 10000), Fraction(1, 10000)
    argv = ["--format", "machine", "approx-beta", "0.1161", "--eps", "0.0001"]
    assert run(argv) == 0
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    sys.set_int_max_str_digits(0)
    try:
        (record,) = machine_lines(capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    beta = approximate_beta(target, eps).predicted_beta
    assert len(record["primes"]) == 67894
    assert record["beta_num"] == beta.numerator
    assert record["beta_den"] == beta.denominator


EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# SHA-256 of stdout and stderr and the exit code of `--format machine
# approx-beta ...`: however the greedy computes its exact checks, its
# output must not move.  16/25 is an exact tie, 0.161 takes 2,149 primes,
# 0.1161 67,894, and 0.0997 lies below the floor of the default prime cap.
@pytest.mark.parametrize(
    "args, stdout, stderr, code",
    [
        (
            ["0.5", "--eps", "0.001"],
            "cf3b46791e8b03295efe83a64a39814887925bcf3b14088a53daf88c65735f60",
            EMPTY_SHA256,
            0,
        ),
        (
            ["16/25", "--eps", "0.0001"],
            "af06b85f9f43ed0d4b8c0d6bc000eb5d5fe2e4ca2def886062cd318640b54067",
            EMPTY_SHA256,
            0,
        ),
        (
            ["0.161", "--eps", "0.0001"],
            "a705427b811224b828193bbed3c17770c6969f77e8a16881f95c3acd622e6308",
            EMPTY_SHA256,
            0,
        ),
        (
            ["0.1161", "--eps", "0.0001"],
            "c1c7d56230f8667456c977730a865a290df1a8d599fcfc8b2e547969925f86bf",
            EMPTY_SHA256,
            0,
        ),
        (
            ["0.0997", "--eps", "0.0001"],
            EMPTY_SHA256,
            "83de7a8d9463908e3d8f6590c98f9c07d6c16a939009f99400a8c0191851ae5e",
            3,
        ),
    ],
)
def test_approx_beta_machine_output_is_pinned(capsys, args, stdout, stderr, code):
    assert run(["--format", "machine", "approx-beta", *args]) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout
    assert hashlib.sha256(captured.err.encode()).hexdigest() == stderr


def test_approx_beta_materialize_too_large(capsys):
    assert (
        run(
            [
                "--format",
                "machine",
                "approx-beta",
                "0.5",
                "--eps",
                "0.001",
                "--materialize",
            ]
        )
        == 0
    )
    (record,) = machine_lines(capsys)
    assert record["required_order"] == 18258240


def test_approx_beta_materialize_above_the_int16_limit(capsys):
    # (3, 5, 7, 23) needs order 38,640: under this table cap, over int16 cells.
    argv = ["--format", "machine", "--table-cap", "100000", "approx-beta"]
    argv += ["0.58514", "--eps", "0.0001", "--materialize"]
    assert run(argv) == 0
    (record,) = machine_lines(capsys)
    assert record["primes"] == [3, 5, 7, 23]
    assert record["required_order"] == 38640


def test_approx_beta_materialize_small(capsys):
    assert run(["approx-beta", "0.8", "--eps", "0.001", "--materialize"]) == 0
    out = capsys.readouterr().out
    assert "materialized D6" in out


def test_exit_usage_errors(capsys):
    assert run(["invariants", "Z(0)"]) == 2
    assert run(["invariants", "Z(4"]) == 2
    assert run(["verify", "theorem24", "--n", "12"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["approx-beta", "nonsense", "--eps", "0.1"]) == 2


def test_approx_beta_long_decimal_is_a_parse_error(capsys):
    assert run(["approx-beta", "0." + "1" * 5000, "--eps", "0.1"]) == 2
    assert "exceeds the 4300-digit limit" in capsys.readouterr().err
    # A rejected literal is echoed as a short prefix and its length.
    for argv in (
        ["approx-beta", "1/" + "3" * 5000, "--eps", "0.0001"],
        ["approx-beta", "0." + "1" * 5000 + "x", "--eps", "0.1"],
        ["invariants", "Z" * 5000 + "(3)"],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and "characters)" in err, err


_DIGITS = st.text("0123456789", min_size=1, max_size=12)
# Past the interpreter's 4,300-digit int-to-str limit.
_LONG_DIGITS = st.integers(4000, 6000).map(lambda n: "1" * n)
_NUMBER_TEXT = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "+", "-"]),
        _DIGITS,
        st.one_of(st.just(""), _DIGITS.map(".{}".format)),
    ),
    _LONG_DIGITS.map("0.{}".format),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(-3, 10**6)),
    st.builds("{}/{}".format, st.just(1), _LONG_DIGITS),
    st.text(max_size=8),
)
_APPROX_ARGV = st.builds(
    lambda cap, target, eps: ["--prime-cap", str(cap), "approx-beta", target, "--eps", eps],
    st.integers(-3, 10**3),
    _NUMBER_TEXT,
    _NUMBER_TEXT,
)
_EXPR_TEXT = st.one_of(
    st.text("ZDQSx(),0123456789 ", max_size=24),
    _LONG_DIGITS.map("Z({})".format),
    st.text(max_size=12),
)
_GROUP_ARGV = st.builds(
    lambda cap, command, text: ["--table-cap", str(cap), command, text],
    st.integers(-3, 64),
    st.sampled_from(["invariants", "identify"]),
    _EXPR_TEXT,
)
_ENUMERATE_ARGV = st.builds(
    lambda cap, n: ["--enum-cap", str(cap), "enumerate", str(n)],
    st.integers(-3, 10),
    st.integers(-3, 10),
)
_VERIFY_ARGV = st.builds(
    lambda cap, claim, bound: [
        "--table-cap", str(cap), "verify", *claim, "--max-order", str(bound)
    ],
    st.integers(-3, 16),
    st.sampled_from(
        [
            ["theorem1"],
            ["theorem22"],
            *(["theorem23", "--r", r] for r in "124"),
            ["lemmas"],
        ]
    ),
    st.integers(-3, 6),
)


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    argv=st.one_of(_APPROX_ARGV, _GROUP_ARGV, _ENUMERATE_ARGV, _VERIFY_ARGV),
    machine=st.booleans(),
)
@example(argv=["approx-beta", "0." + "1" * 5000, "--eps", "0.1"], machine=False)
@example(argv=["invariants", "Z(" + "9" * 5000 + ")"], machine=True)
@example(argv=["--table-cap", "0", "verify", "lemmas"], machine=False)
def test_parse_paths_exit_with_a_code_and_never_raise(argv, machine, capsys):
    if machine:
        argv = ["--format", "machine", *argv]
    assert run(argv) in (0, 1, 2, 3)
    capsys.readouterr()


def test_verify_refuses_a_bound_below_one_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in (
        "verify_theorem1",
        "verify_involution_threshold",
        "verify_c_order_deficit",
        "check_unique_cyclic_normality",
        "check_lemma31a",
        "order12_case_f_report",
        "verify_semidirect_dichotomy",
    ):
        monkeypatch.setattr(classify, name, refuse)
    for name in ("parse_group_expr", "enumerate_groups"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.density, "approximate_beta", refuse)
    for argv, flag in (
        (["verify", "theorem1", "--max-order", "0"], "--max-order"),
        (["verify", "theorem22", "--max-order", "-1"], "--max-order"),
        (["verify", "theorem23", "--r", "2", "--max-order", "0"], "--max-order"),
        (["verify", "lemmas", "--max-order", "0"], "--max-order"),
        (["verify", "lemmas", "--enum-cap", "0"], "--enum-cap"),
        (["--enum-cap", "-1", "verify", "theorem1"], "--enum-cap"),
        (["verify", "all", "--max-order", "0"], "--max-order"),
        (["--enum-cap", "0", "verify", "all"], "--enum-cap"),
        (["--table-cap", "0", "verify", "lemmas"], "--table-cap"),
        (["--table-cap", "-5", "verify", "lemmas"], "--table-cap"),
        (["--table-cap", "0", "invariants", "Z(1)"], "--table-cap"),
        (["--table-cap", "0", "identify", "Z(2)"], "--table-cap"),
        (["--table-cap", "0", "enumerate", "4"], "--table-cap"),
        (["--table-cap", "0", "verify", "theorem24", "--n", "3"], "--table-cap"),
        (["--table-cap", "0", "verify", "all"], "--table-cap"),
        (
            ["--table-cap", "0", "approx-beta", "0.5", "--eps", "0.001", "--materialize"],
            "--table-cap",
        ),
        (["--enum-cap", "0", "enumerate", "4"], "--enum-cap"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        value = argv[argv.index(flag) + 1]
        assert captured.out == "", argv
        assert captured.err == f"error: {flag} must be >= 1, got {value}\n", argv


def test_exit_resource_errors(capsys):
    assert run(["enumerate", "20"]) == 3
    assert run(["--table-cap", "64", "invariants", "Z(100)"]) == 3
    assert run(["approx-beta", "0.5", "--eps", "0.001", "--prime-cap", "10"]) == 3
    # verify all keeps the enumeration cap; it does not lift it to --max-order.
    assert run(["verify", "all", "--max-order", "17"]) == 3
    assert capsys.readouterr().out == ""


def test_semidirect_expr_over_cap_exits_fast(capsys):
    start = time.monotonic()
    assert run(["invariants", "SD(1000000000,1)"]) == 3
    assert time.monotonic() - start < 2.0
    assert "exceeds the table cap" in capsys.readouterr().err


def test_table_order_over_the_int16_ceiling_exits_fast(capsys):
    start = time.monotonic()
    assert run(["--table-cap", "100000", "invariants", "Z(40000)"]) == 3
    assert time.monotonic() - start < 2.0
    assert "exceeds 32768" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cap, max_order, order",
    [
        # (3, 5, 7, 23): the first L4.2 product above the ceiling.
        (40000, 12, 38640),
        # (3, 5, 7, 11, 13): no prime near cap / 2 is sieved to find it.
        (10**12, 12, 480480),
        # L3.1a's D_32770 comes before any L4.2 product.
        (40000, 20000, 32770),
    ],
)
def test_verify_lemmas_refuses_the_int16_ceiling_before_any_table(
    cap, max_order, order, monkeypatch, capsys
):
    built, swept = [], []
    real_group = groups.FiniteGroup

    def spy_group(*args, **kwargs):
        built.append(kwargs.get("order"))
        return real_group(*args, **kwargs)

    monkeypatch.setattr(groups, "FiniteGroup", spy_group)
    for name in (
        "check_unique_cyclic_normality",
        "check_lemma31a",
        "check_lemma31b",
        "check_lemma41",
        "check_lemma42",
    ):
        monkeypatch.setattr(
            classify, name, lambda *a, _name=name, **k: swept.append(_name)
        )
    argv = ["--format", "machine", "--table-cap", str(cap), "verify", "lemmas"]
    start = time.monotonic()
    assert run([*argv, "--max-order", str(max_order)]) == 3
    assert time.monotonic() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: group order {order} exceeds 32768, the largest order whose "
        "element indices fit int16 cells\n"
    )
    assert built == [] and swept == []


def test_verify_lemmas_max_order_stops_at_the_table_cap(capsys):
    # L3.1a needs D_2n within the cap, so any --max-order past cap / 2 is 32.
    argv = ["--format", "machine", "--table-cap", "64", "--enum-cap", "8"]
    argv += ["verify", "lemmas", "--max-order"]
    proc = subprocess.run(
        [sys.executable, "-m", "grpinv", *argv, str(10**12)],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert run([*argv, "32"]) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.count('"L3.1a"') == 32
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    (l21,) = [r for r in records if r["claim"] == "L2.1"]
    assert l21["scope"].startswith("all orders <= 8 (")


def test_prime_cap_over_ceiling_exits_fast(capsys):
    start = time.monotonic()
    argv = ["approx-beta", "0.5", "--eps", "0.001", "--prime-cap", "1000000000000"]
    assert run(argv) == 3
    assert time.monotonic() - start < 2.0
    assert "exceeds the ceiling" in capsys.readouterr().err


def test_exit_counterexample(monkeypatch, capsys):
    fake = VerificationReport(
        claim="T2.2",
        scope="forced",
        status="counterexample",
        counterexample=Counterexample(
            description="forced failure for the exit-code contract",
            table=((0,),),
        ),
    )
    monkeypatch.setattr(
        classify, "verify_involution_threshold", lambda *a, **k: fake
    )
    assert run(["verify", "theorem22", "--max-order", "4"]) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out


def test_machine_output_is_deterministic(capsys):
    run(["--format", "machine", "enumerate", "8"])
    first = capsys.readouterr().out
    run(["--format", "machine", "enumerate", "8"])
    second = capsys.readouterr().out
    assert first == second


def test_threads_flag_is_refused(capsys):
    # The flag that once sized a thread pool is gone; `enumerate` runs one
    # process per CPU it may use.
    assert run(["--threads", "2", "enumerate", "12"]) == 2
    assert capsys.readouterr().out == ""
