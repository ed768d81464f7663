import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grpinv.density import (
    PrimeSelection,
    TooLarge,
    approximate_beta,
    materialize,
    selection_beta,
)
from grpinv.errors import ConvergenceError, DomainError
from grpinv.groups import invariants


def test_selection_beta_examples():
    assert selection_beta([]) == 1
    assert selection_beta([3, 5]) == Fraction(24, 35)
    assert selection_beta([3, 5, 7, 11, 13, 19]) == Fraction(2048, 4095)


def test_target_one_needs_no_primes():
    sel = approximate_beta(Fraction(1), Fraction(1, 10**6))
    assert sel.primes == ()
    assert sel.predicted_beta == 1
    assert sel.log_residual == 0.0


def test_exact_hit_four_fifths():
    sel = approximate_beta(Fraction(4, 5), Fraction(1, 10**6))
    assert sel.primes == (3,)
    assert sel.predicted_beta == Fraction(4, 5)


def test_worked_example_half():
    sel = approximate_beta(Fraction(1, 2), Fraction(1, 1000))
    assert sel.primes == (3, 5, 7, 11, 13, 19)  # 17 overshoots and is skipped
    assert sel.predicted_beta == Fraction(2048, 4095)
    assert abs(sel.predicted_beta - Fraction(1, 2)) == Fraction(1, 8190)


def test_domain_errors():
    with pytest.raises(DomainError):
        approximate_beta(Fraction(0), Fraction(1, 10))
    with pytest.raises(DomainError):
        approximate_beta(Fraction(3, 2), Fraction(1, 10))
    with pytest.raises(DomainError):
        approximate_beta(Fraction(1, 2), Fraction(0))
    with pytest.raises(DomainError):
        approximate_beta(0.5, Fraction(1, 10))


def test_convergence_error_carries_best_selection():
    with pytest.raises(ConvergenceError) as exc_info:
        approximate_beta(Fraction(1, 2), Fraction(1, 1000), prime_cap=10)
    best = exc_info.value.best
    assert isinstance(best, PrimeSelection)
    assert best.primes == (3, 5, 7)
    assert best.predicted_beta == selection_beta(best.primes)
    assert "3 primes" in repr(best)


def test_unreachable_target_repr_stays_printable():
    # selections spanning every prime under the cap have gigantic exact
    # fractions; repr must not trip the int-to-str conversion limit
    with pytest.raises(ConvergenceError) as exc_info:
        approximate_beta(Fraction(1, 10), Fraction(1, 100), prime_cap=10**5)
    best = exc_info.value.best
    assert best.predicted_beta >= Fraction(1, 10)
    assert "beta~" in repr(best)


def test_overshoot_freedom_random_targets():
    rng = random.Random(99)
    eps = Fraction(1, 10**4)
    for _ in range(40):
        t = Fraction(rng.randint(1300, 9900), 10**4)
        sel = approximate_beta(t, eps)
        assert t <= sel.predicted_beta <= t + eps
        assert sel.predicted_beta == selection_beta(sel.primes)
        assert sel.log_residual >= 0.0


def test_monotone_refinement_prefix_property():
    t = Fraction(7, 10)
    coarse = approximate_beta(t, Fraction(1, 100))
    fine = approximate_beta(t, Fraction(1, 10**5))
    assert fine.primes[: len(coarse.primes)] == coarse.primes


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1300, max_value=9899))
def test_greedy_matches_naive_exact_greedy(numerator):
    # oracle: the plain unscreened exact greedy, affordable at eps = 1e-2
    t = Fraction(numerator, 10**4)
    eps = Fraction(1, 100)
    product = Fraction(1)
    chosen = []
    from grpinv.arith import iter_odd_primes

    for p in iter_odd_primes(10**6):
        step = product * Fraction(p + 1, p + 2)
        if step >= t:
            product = step
            chosen.append(p)
            if product - t <= eps:
                break
    sel = approximate_beta(t, eps)
    assert sel.primes == tuple(chosen)
    assert sel.predicted_beta == product


def test_materialize_small_and_too_large():
    sel = approximate_beta(Fraction(4, 5), Fraction(1, 10))
    G = materialize(sel)
    assert G.order == 6
    assert invariants(G).beta == Fraction(4, 5)

    pair = approximate_beta(Fraction(24, 35), Fraction(1, 10**6))
    assert pair.primes == (3, 5)
    G = materialize(pair)
    assert G.order == 60
    assert invariants(G).beta == Fraction(24, 35)

    big = approximate_beta(Fraction(1, 2), Fraction(1, 1000))
    outcome = materialize(big)
    assert isinstance(outcome, TooLarge)
    assert outcome.required_order == 18258240


def test_formula_count_agreement_for_all_materializable_selections():
    # every selection with product order <= 4096 recounts exactly
    from grpinv.classify import dihedral_prime_subsets

    subsets = [s for s in dihedral_prime_subsets(4096) if len(s) >= 2][:12]
    for primes in subsets:
        sel = PrimeSelection(
            primes=primes,
            predicted_beta=selection_beta(primes),
            log_residual=0.0,
            primes_scanned=0,
        )
        G = materialize(sel)
        assert not isinstance(G, TooLarge)
        assert invariants(G).beta == sel.predicted_beta


def test_sweep_script_accepts_exponent_eps():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(root / "scripts" / "beta_target_sweep.py"),
            "--targets", "3", "--eps", "1e-4", "--prime-cap", "1000",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "eps = 1/10000" in proc.stdout
    # 0.6788 lies above the floor and misses eps only because the cap is
    # small, so it must not be listed as unreachable.
    _, _, tail = proc.stdout.partition("unreachable targets (all below")
    below = list(takewhile(lambda line: line.startswith("  "), tail.splitlines()[1:]))
    assert "0.678800" in proc.stdout
    assert not any("0.678800" in line for line in below)
