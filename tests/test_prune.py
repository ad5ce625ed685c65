import math
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setorbits.perm import (
    Permutation,
    build_group,
    contains_alternating,
    transitivity_degree,
)
from setorbits.prune import (
    MillerDecomposition,
    binomial_divides,
    degree_bound,
    degree_range,
    forced_transitive_size,
    is_prime,
    known_transitivity_floor,
    miller_bound,
    parity_admissible,
    prune_degree,
    step1_eliminates,
    step2_eliminates,
)


# ---------------------------------------------------------------------------
# primes

def test_is_prime_below_100():
    want = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
            61, 67, 71, 73, 79, 83, 89, 97]
    assert [n for n in range(-3, 100) if is_prime(n)] == want


# ---------------------------------------------------------------------------
# parity and the split budget

def test_parity_rules():
    assert parity_admissible(7, 2) is False
    assert parity_admissible(8, 2) is True
    assert parity_admissible(9, 3) is True


@given(st.integers(2, 100), st.integers(1, 15))
def test_parity_is_exactly_the_even_odd_rule(n, r):
    assert parity_admissible(n, r) == (not (r % 2 == 0 and n % 2 == 1))


@given(st.integers(2, 3000), st.integers(2, 40))
def test_window_offset_is_the_split_budget(n, r):
    """The paper's window offset k0, the least k0 whose middle sizes
    (2*k0 at odd n, 2*k0 + 1 at even n) exceed r - 1, puts the prime bound
    at (n + r) // 2 = n - t*."""
    k0 = (r + 1) // 2 if n % 2 else r // 2
    middle = 2 * k0 + (n % 2 == 0)
    assert middle > r - 1 >= middle - 2
    assert n // 2 + k0 == (n + r) // 2 == n - (n - r + 1) // 2


def test_forced_transitive_size_is_the_largest_forced_size():
    for n in range(1, 80):
        for r in range(1, 30):
            forced = [t for t in range(1, n // 2 + 1)
                      if n - 2 * t + 1 > r - 1]
            assert forced_transitive_size(n, r) == max(forced, default=None)


def test_forced_transitive_size_needs_r_at_least_1():
    with pytest.raises(ValueError):
        forced_transitive_size(8, 0)


# ---------------------------------------------------------------------------
# step 1

def _step1_survivors(r):
    return [n for n in degree_range(r)
            if prune_degree(n, r).stage not in ("parity", "step1")]


def test_step1_survivors_r2():
    assert _step1_survivors(2) == [2, 4, 6, 8, 10, 12, 14, 16, 24]


def test_step1_survivors_r3():
    assert _step1_survivors(3) == list(range(3, 17)) + [19, 23, 24, 25, 43]


def test_step1_witness_for_degree_20():
    # window is (11, 40/3); the smallest prime inside is 13
    assert step1_eliminates(20, 2) == 13


@given(st.integers(3, 81), st.integers(2, 11))
def test_step1_witness_satisfies_window(n, r):
    p = step1_eliminates(n, r)
    if p is not None:
        assert (n + r) // 2 < p
        assert 3 * p < 2 * n


# ---------------------------------------------------------------------------
# Miller decompositions and step 2

def test_miller_bound_examples():
    d = miller_bound(24)
    assert (d.m, d.p0, d.rem) == (1, 19, 5)
    assert str(d) == "1x19+5"
    assert miller_bound(12).rem == 5 and str(miller_bound(12)) == "1x7+5"
    assert miller_bound(43).rem == 2 and str(miller_bound(43)) == "1x41+2"


def test_miller_no_decomposition_is_none():
    assert [miller_bound(n) for n in range(4)] == [None] * 4
    assert miller_bound(4).rem == 2  # 4 = 1*2 + 2


def test_miller_decomposition_validation():
    with pytest.raises(ValueError):
        MillerDecomposition(10, 1, 7, 4)  # inconsistent sum
    with pytest.raises(ValueError):
        MillerDecomposition(8, 2, 3, 2)   # rem = m violates rem > m
    with pytest.raises(ValueError):
        MillerDecomposition(11, 2, 4, 3)  # p0 not prime


def test_miller_minimality_exhaustive():
    """The whole decomposition is the brute-force one under the documented
    tie rule: least rem, then least m (rem and m fix p0).  No two m tie on
    the least rem for n <= 400, so this pins every (m, p0, rem)."""
    for n in range(3, 401):
        got = miller_bound(n)
        # p0 >= m + 1 and rem >= m + 1 need m*(m + 1) + m + 1 <= n
        brute = min(((n - m * p0, m, p0) for m in range(1, n)
                     if m * (m + 2) < n for p0 in range(m + 1, n // m + 1)
                     if is_prime(p0) and n - m * p0 > m), default=None)
        assert ((got.rem, got.m, got.p0) if got else None) == brute, n


def test_step2_witness_for_24():
    p, d = step2_eliminates(24, 2)
    assert p == 17 and str(d) == "1x19+5"


def test_step2_survivors():
    def step2_survivors(r):
        return [n for n in degree_range(r) if not prune_degree(n, r).eliminated]

    assert step2_survivors(2) == [2, 4, 6, 8, 12]
    assert step2_survivors(3) == [3, 4, 5, 6, 7, 8, 9, 11, 12]
    assert step2_survivors(4) == [4, 6, 8, 10, 12]
    assert step2_survivors(5) == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]


def test_degree9_survives_r3():
    # 9 = 1*7 + 2 would suggest a 2-transitivity cap, but the degree-9
    # projective groups over GF(8) are 3-transitive without A_9, so step 2
    # must not eliminate the degree
    assert step2_eliminates(9, 3) is None


def _pgl2_32():
    """PGL(2, 32) = PSL(2, 32) on the projective line over GF(32): points
    0..31 are field elements (bit vectors modulo x^5 + x^2 + 1), 32 is oo."""
    def mul(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & 32:
                a ^= 0b100101
        return out

    inv = {a: next(b for b in range(1, 32) if mul(a, b) == 1)
           for a in range(1, 32)}
    inf = 32
    shift = [x ^ 1 for x in range(32)] + [inf]
    scale = [mul(2, x) for x in range(32)] + [inf]
    invert = [inf] + [inv[x] for x in range(1, 32)] + [0]
    return build_group([Permutation(g) for g in (shift, scale, invert)],
                       degree=33)


def test_degree33_bound_covers_pgl2_32():
    G = _pgl2_32()
    assert G.order == 32 * (32**2 - 1)
    assert transitivity_degree(G) == 3
    # the Miller remainder alone (33 = 1*31 + 2) would claim 2-transitive
    decomp = miller_bound(33)
    assert decomp.rem == 2 and decomp.bound >= 3
    v = prune_degree(33, 5)
    assert v.stage == "step2" and v.miller.bound >= 3
    assert v.witness_text() == "miller=1x31+2,floor=3,p=23"


def test_known_floor_families():
    assert known_transitivity_floor(9) == 3      # PGammaL(2, 8)
    assert known_transitivity_floor(16) == 3     # AGL(4, 2)
    assert known_transitivity_floor(12) == 5     # M_12
    assert known_transitivity_floor(5) == 0      # PGL(2, 4) = A_5
    assert known_transitivity_floor(15) == 0


def test_bound_holds_for_every_built_group():
    """No catalog group and no subgroup class of S_3..S_7 without A_n is
    more transitive than step 2 allows."""
    from setorbits.catalog import load_default
    from setorbits.subgroups import all_subgroups
    groups = [(e.id, e.group()) for e in load_default()]
    groups += [(f"S{n}-cls{c.index}", c.representative)
               for n in range(3, 8) for c in all_subgroups(n)]
    for label, G in groups:
        mb = miller_bound(G.degree)
        if mb is None or contains_alternating(G.degree, G.order):
            continue
        assert transitivity_degree(G) <= mb.bound, label


# ---------------------------------------------------------------------------
# theorem-based bounds

def test_degree_bound():
    want = {1: 25, 2: 25, **dict.fromkeys(range(3, 7), 43),
            **dict.fromkeys(range(7, 13), 55), 13: 61, 14: 61, 15: 79}
    assert {r: degree_bound(r) for r in range(1, 16)} == want
    with pytest.raises(ValueError):
        degree_bound(0)


def test_degree_range_r1():
    assert degree_range(1) == range(3, 26)


@given(st.integers(1, 60))
def test_step1_eliminates_every_degree_past_the_bound(r):
    """Nagura's lemma as step 1 uses it: step 1 eliminates every degree
    above ``degree_bound(r)``, checked 500 degrees past the scan's start
    max(9r, 50 - r), and leaves the bound itself."""
    bound = degree_bound(r)
    assert step1_eliminates(bound, r) is None
    top = max(9 * r, 50 - r) + 500
    assert all(step1_eliminates(n, r) is not None
               for n in range(bound + 1, top + 1))


def test_nagura_prime_gap_up_to_10_000():
    """Nagura (1952): for 25 <= x <= 10^4 some prime p has x < p < 6x/5.
    The least prime above x is checked, from a sieve rather than
    ``is_prime``; at x = 24 it is 29, and 5 * 29 > 6 * 24."""
    top = 12_000
    sieve = bytearray([1]) * (top + 1)
    for d in range(2, math.isqrt(top) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, top + 1, d)))
    primes = [p for p in range(2, top + 1) if sieve[p]]
    least_above = {x: primes[bisect_right(primes, x)]
                   for x in range(24, 10_001)}
    assert all(5 * least_above[x] < 6 * x for x in range(25, 10_001))
    assert least_above[24] == 29 and 5 * 29 > 6 * 24


def test_binomial_divides():
    assert binomial_divides(8, 3, 56)
    assert binomial_divides(12, 5, 95040)
    assert not binomial_divides(6, 2, 10)
    with pytest.raises(ValueError):
        binomial_divides(6, 7, 10)


# ---------------------------------------------------------------------------
# verdicts and small-degree soundness

def test_verdict_witness_text():
    v = prune_degree(24, 2)
    assert v.stage == "step2" and v.witness_text() == "miller=1x19+5,p=17"
    v = prune_degree(18, 2)
    assert v.stage == "step1" and v.witness_text() == "p=11"
    v = prune_degree(7, 2)
    assert v.stage == "parity" and v.witness_text() == "-"
    v = prune_degree(12, 2)
    assert v.stage == "survived" and not v.eliminated


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_small_degree_soundness(r):
    """No subgroup class of an eliminated degree n <= 6 attains s = n + r."""
    from setorbits.orbitcount import count_set_orbits
    from setorbits.subgroups import all_subgroups
    for n in range(3, 7):
        if not prune_degree(n, r).eliminated:
            continue
        for c in all_subgroups(n):
            assert count_set_orbits(c.representative) != n + r, (n, r, c.index)
