import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grpinv import density
from grpinv.arith import MAX_PRIME_CAP, _primes_upto, iter_odd_primes, odd_primes
from grpinv.density import (
    PrimeSelection,
    TooLarge,
    approximate_beta,
    materialize,
    selection_beta,
)
from grpinv.errors import ConvergenceError, DomainError, ResourceLimitError
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


def test_huge_unreachable_target_raises_convergence_error():
    # The target's 5,264-digit denominator is past the int-to-str limit;
    # the message must still be formatted, in a bounded form.
    target = selection_beta(odd_primes(5000))
    with pytest.raises(ConvergenceError) as exc_info:
        approximate_beta(target, Fraction(1, 10**9), prime_cap=1000)
    best = exc_info.value.best
    assert best is not None and best.primes_scanned == len(best.primes) == 167
    assert "(5264-digit denominator)" in str(exc_info.value)


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


def exact_greedy(t, eps, prime_cap):
    """The unscreened greedy: every decision cross-multiplies the unreduced
    product.  Returns (primes, num, den, primes scanned, converged)."""
    tn, td = t.numerator, t.denominator
    # beta - t <= eps  <=>  num*c <= den*d
    c = td * eps.denominator
    d = tn * eps.denominator + eps.numerator * td
    num = den = 1
    chosen = []
    scanned = 0
    if num * c <= den * d:
        return chosen, num, den, scanned, True
    # num*td and den*tn: p stays in when num*(p+1)*td >= den*(p+2)*tn.
    above, below = td, tn
    for p in iter_odd_primes(prime_cap):
        scanned += 1
        if above * (p + 1) >= below * (p + 2):
            num, den = num * (p + 1), den * (p + 2)
            above, below = above * (p + 1), below * (p + 2)
            chosen.append(p)
            if num * c <= den * d:
                return chosen, num, den, scanned, True
    return chosen, num, den, scanned, False


def assert_matches_exact_greedy(t, eps, prime_cap):
    chosen, num, den, scanned, converged = exact_greedy(t, eps, prime_cap)
    if converged:
        sel = approximate_beta(t, eps, prime_cap=prime_cap)
    else:
        with pytest.raises(ConvergenceError) as exc_info:
            approximate_beta(t, eps, prime_cap=prime_cap)
        sel = exc_info.value.best
    assert sel.primes == tuple(chosen), t
    beta = sel.predicted_beta
    assert beta.numerator * den == beta.denominator * num, t
    assert sel.primes_scanned == scanned, t


GREEDY_EPS = Fraction(1, 100)
# The product over every odd prime up to 100 is F = 0.3389; up to 10^4 it
# is 0.1721, so targets below 0.1621 cannot come within 1/100 under 10^4.
FULL_100 = selection_beta(list(iter_odd_primes(100)))


@settings(deadline=None, max_examples=30)
@given(
    st.one_of(
        st.builds(lambda n: (Fraction(n, 10**4), 10**6), st.integers(1300, 9899)),
        st.builds(lambda n: (Fraction(n, 10**4), 10**4), st.integers(1300, 2200)),
    )
)
# t = F - eps lands exactly on the last prime; just below it, F > t + eps.
@example((FULL_100 - GREEDY_EPS, 100))
@example((FULL_100 - GREEDY_EPS - Fraction(1, 10**12), 100))
def test_greedy_matches_naive_exact_greedy(case):
    t, prime_cap = case
    assert_matches_exact_greedy(t, GREEDY_EPS, prime_cap)


# Acceptance criterion 8's targets, and the eps it asks for.
CRITERION_8_RNG = random.Random(20250818)
CRITERION_8 = [Fraction(CRITERION_8_RNG.randint(500, 9900), 10**4) for _ in range(200)]


def test_windowed_scan_matches_exact_greedy_on_criterion_8():
    # The prefix and skip jumps take the exact greedy's primes and stop
    # where it stops.  Targets nearer the floor run under --runslow.
    targets = [t for t in CRITERION_8 if t >= Fraction(15, 100)]
    assert len(targets) == 179
    for t in targets:
        assert_matches_exact_greedy(t, Fraction(1, 10**4), 10**6)


@pytest.mark.slow
@pytest.mark.parametrize("t", [Fraction(1254, 10**4), Fraction(1161, 10**4)])
def test_windowed_scan_matches_exact_greedy_near_the_floor(t):
    assert_matches_exact_greedy(t, Fraction(1, 10**4), 10**6)


@pytest.mark.parametrize("cap", [2, 10**3, 10**6])
def test_log_series_bounds_its_sums(cap):
    xs, sums = density._log_series(cap)
    terms = [math.log1p(1.0 / (p + 1)) for p in iter_odd_primes(cap)]
    assert len(xs) == len(terms) and len(sums) == len(terms) + 1
    assert sums[0] == 0.0
    # Strictly decreasing, which the skip jump's bisect needs.
    assert all(a > b for a, b in zip(xs, xs[1:]))
    # Within the prefix jump's drift bound of the exact-rounded sum.
    for k in sorted({k for k in (1, 1000, 10**4, len(terms)) if k <= len(terms)}):
        error = abs(sums[k] - math.fsum(terms[:k]))
        assert error <= k * 1e-15 * (1.0 + sums[k]), (cap, k, error)


@pytest.mark.parametrize("prime_cap", [1e3, "1000", Fraction(1000), None])
def test_prime_cap_must_be_an_integer(monkeypatch, prime_cap):
    def refuse(*args):
        raise AssertionError("primes were sieved")

    monkeypatch.setattr(density, "_primes_upto", refuse)
    monkeypatch.setattr(density, "_log_series", refuse)
    with pytest.raises(DomainError, match="prime cap must be an integer"):
        approximate_beta(Fraction(1, 2), Fraction(1, 1000), prime_cap=prime_cap)


@pytest.mark.parametrize("prime_cap", [-1, -5])
def test_a_negative_prime_cap_is_refused_before_any_sieve(monkeypatch, prime_cap):
    def refuse(*args):
        raise AssertionError("primes were sieved")

    monkeypatch.setattr(density, "_primes_upto", refuse)
    monkeypatch.setattr(density, "_log_series", refuse)
    with pytest.raises(DomainError, match=f"^prime cap must be >= 0, got {prime_cap}$"):
        approximate_beta(Fraction(1, 2), Fraction(1, 1000), prime_cap=prime_cap)


def test_exponent_reduction_matches_selection_beta(monkeypatch):
    primes = list(iter_odd_primes(2 * 10**5))
    cut = density._EXPONENT_ROUTE_MIN
    assert len(primes) == 17983 > cut
    for n in (1, 10, 1000, cut - 1, cut, len(primes)):
        assert density._exponent_beta(primes[:n]) == selection_beta(primes[:n])

    # Selections from the cutoff up take the exponent route, both in the
    # greedy's result and in the shared full product below the floor.
    reduced = []
    exponent_beta = density._exponent_beta
    monkeypatch.setattr(
        density,
        "_exponent_beta",
        lambda selection, prime_cap: reduced.append(len(selection))
        or exponent_beta(selection, prime_cap),
    )
    for n in (cut - 1, cut):
        # The exact prefix product is hit on its last prime and nowhere else.
        sel = approximate_beta(selection_beta(primes[:n]), Fraction(1, 10**9))
        assert sel.primes == tuple(primes[:n])
        assert sel.predicted_beta == selection_beta(primes[:n])
    density._every_odd_prime_product.cache_clear()
    with pytest.raises(ConvergenceError) as exc_info:
        approximate_beta(Fraction(1, 10), GREEDY_EPS, prime_cap=2 * 10**5)
    assert exc_info.value.best.predicted_beta == selection_beta(primes)
    assert reduced == [cut, len(primes)]


def test_exponent_reduction_of_edge_primes():
    for cap in (7, 1000, 999983, 10**6):
        primes = list(iter_odd_primes(cap))
        prime_set = set(primes)
        root = math.isqrt(cap + 2)
        twins = [p for p in primes if p + 2 in prime_set]
        cases = [
            # p + 1 a power of two: nothing is left for the table.
            [p for p in (3, 7, 31, 127, 8191, 131071, 524287) if p <= cap],
            # p + 2 a small prime, which must be counted as small.
            [p for p in primes if p + 2 <= root and p + 2 in prime_set],
            twins[:20] + twins[-20:],
            [p + 2 for p in twins[:20] + twins[-20:]],
            primes[-1:],
            primes[-2:],
            sorted(set(primes[:300] + primes[-300:])),
        ]
        for selection in cases:
            beta = density._exponent_beta(selection, cap)
            assert math.gcd(beta.numerator, beta.denominator) == 1, (cap, selection)
            assert beta == selection_beta(selection), (cap, selection)


def test_factor_table_holds_each_smallest_factor_index():
    cap = 1000
    small, table = density._factor_table(cap)
    assert small.tolist() == [p for p in iter_odd_primes(math.isqrt(cap + 2))]
    assert table.dtype == np.uint16 and len(table) == (cap + 3) // 2
    for m in range(1, cap + 3, 2):
        factors = [q for q in small.tolist() if m % q == 0]
        assert table[m // 2] == (small.tolist().index(factors[0]) + 1 if factors else 0)
    # Every index up to the prime-cap ceiling fits the table's dtype.
    ceiling = _primes_upto(math.isqrt(MAX_PRIME_CAP + 2))
    assert len(ceiling) - 1 == 445 <= np.iinfo(np.uint16).max


def test_coprime_fraction_is_a_plain_fraction():
    for num, den in ((0, 1), (1, 1), (4, 5), (2**521 - 1, 3**400), (10**50, 7)):
        wrapped, reduced = density._coprime_fraction(num, den), Fraction(num, den)
        assert type(wrapped) is Fraction
        assert (wrapped.numerator, wrapped.denominator) == (num, den)
        assert wrapped == reduced and hash(wrapped) == hash(reduced)
        assert repr(wrapped) == repr(reduced)
        assert wrapped + Fraction(1, 3) == reduced + Fraction(1, 3)
        assert float(wrapped) == float(reduced) and wrapped <= reduced


def test_factor_table_is_built_once_per_cap():
    cap, eps = 2 * 10**5, Fraction(1, 10**4)
    density._factor_table.cache_clear()
    density._every_odd_prime_product.cache_clear()
    first = approximate_beta(Fraction(1300, 10**4), eps, prime_cap=cap)
    with pytest.raises(ConvergenceError) as exc_info:
        approximate_beta(Fraction(1, 10), eps, prime_cap=cap)
    second = approximate_beta(Fraction(1310, 10**4), eps, prime_cap=cap)
    selections = (first, exc_info.value.best, second)
    assert min(len(s.primes) for s in selections) >= density._EXPONENT_ROUTE_MIN
    for selection in selections:
        assert selection.predicted_beta == selection_beta(selection)
    info = density._factor_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_prime_cap_ceiling_is_checked_before_any_work():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            approximate_beta(
                Fraction(1, 10), Fraction(1, 10**4), prime_cap=MAX_PRIME_CAP + 1
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_running_product_logs_are_math_log_bit_for_bit():
    primes = list(iter_odd_primes(2 * 10**5))
    cut = density._EXPONENT_ROUTE_MIN
    running = density._RunningBeta([])
    for n in (0, 1, 30, 140, cut - 1, cut, len(primes)):
        running.primes.extend(primes[len(running.primes) : n])
        for product in (running, density._RunningBeta(tuple(primes[:n]))):
            beta = product.beta()
            logs = (math.log(beta.numerator), math.log(beta.denominator))
            assert product.logs() == logs


def test_running_product_beta_is_kept_until_a_prime_is_chosen():
    primes = odd_primes(density._EXPONENT_ROUTE_MIN + 1)
    running = density._RunningBeta([])
    for n in (0, 2, len(primes) - 1, len(primes)):
        running.primes.extend(primes[len(running.primes) : n])
        beta = running.beta()
        assert beta == selection_beta(primes[:n])
        assert running.beta() is beta


def test_running_product_sign_is_the_unreduced_cross_multiplication():
    # The reduced beta decides num*c - den*d for the unreduced products,
    # on either side of the route size and on ties as close as they come.
    primes = list(iter_odd_primes(2 * 10**5))
    cut = density._EXPONENT_ROUTE_MIN
    assert len(primes) == 17983
    running = density._RunningBeta([])
    for n in (0, 1, 30, cut - 1, cut, len(primes)):
        running.primes.extend(primes[len(running.primes) : n])
        num = density._prod([p + 1 for p in primes[:n]])
        den = density._prod([p + 2 for p in primes[:n]])
        pairs = [(1, 1), (2, 1), (1, 2), (7, 3), (3, 7)]
        # An exact tie, and gaps of one part in d on either side of it.
        pairs += [(den, num), (den + 1, num), (den - 1, num), (den, num + 1)]
        for product in (running, density._RunningBeta(tuple(primes[:n]))):
            for c, d in pairs:
                left, right = num * c, den * d
                assert product.sign(c, d) == (left > right) - (left < right), (n, c, d)


def test_near_floor_targets_reduce_their_selection_once(monkeypatch):
    # Targets just above the floor converge after 27k-68k primes; every
    # exact check they make reads the one reduction their result needs.
    eps = Fraction(1, 10**4)
    sizes = []
    exponent_beta = density._exponent_beta

    def spy(primes, prime_cap):
        sizes.append(len(primes))
        return exponent_beta(primes, prime_cap)

    monkeypatch.setattr(density, "_exponent_beta", spy)
    selected = []
    for n in (1161, 1185, 1254):
        selected.append(len(approximate_beta(Fraction(n, 10**4), eps).primes))
        assert sizes == selected[-1:]
        sizes.clear()
    assert selected[0] == 67894


def test_far_below_floor_refusals_skip_the_exact_sign(monkeypatch):
    # Past the float gap's error bound the refusal needs no multiply of
    # the full product; within it the exact sign still decides.
    cap, eps = 1000, Fraction(1, 10**4)
    full = density._every_odd_prime_product(cap)
    floor = full.beta()
    signed = []
    sign = density._RunningBeta.sign

    def spy(self, c, d):
        signed.append(self is full)
        return sign(self, c, d)

    monkeypatch.setattr(density._RunningBeta, "sign", spy)
    # t + eps is the floor itself: a gap of 0, not refused.
    sel = approximate_beta(floor - eps, eps, prime_cap=cap)
    assert any(signed) and sel.primes == tuple(full.primes)
    # t + eps a part in 10**12 under the floor: refused by the sign.
    signed.clear()
    with pytest.raises(ConvergenceError) as near:
        approximate_beta(floor * (1 - Fraction(1, 10**12)) - eps, eps, prime_cap=cap)
    assert any(signed)
    assert near.value.best.predicted_beta == floor
    # Far below the floor: refused from the float gap alone.
    signed.clear()
    with pytest.raises(ConvergenceError) as far:
        approximate_beta(Fraction(1, 100), eps, prime_cap=cap)
    assert not any(signed)
    assert far.value.best.primes == tuple(full.primes)
    assert far.value.best.predicted_beta == floor


def test_exact_tie_past_the_route_size_forms_the_exact_product():
    # Including the 6,000th prime lands exactly on the target.
    primes = odd_primes(6000)
    sel = approximate_beta(selection_beta(primes), Fraction(1, 10**30))
    assert sel.primes == tuple(primes)
    assert sel.predicted_beta == selection_beta(primes)


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


def test_materialize_refuses_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(density, "dihedral_product", refuse)
    selection = approximate_beta(Fraction("0.58514"), Fraction(1, 10**4))
    assert selection.primes == (3, 5, 7, 23)
    # over the table cap, and under it but over the int16 limit of 32,768
    for cap in (4096, 100000):
        outcome = materialize(selection, order_cap=cap)
        assert outcome == TooLarge(required_order=38640)


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
