import math
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setorbits.orbitcount import orbit_profile
from setorbits.perm import (
    Permutation,
    build_group,
    contains_alternating,
    transitivity_degree,
)
from setorbits.prune import (
    binomial_divides,
    degree_bound,
    degree_range,
    forced_transitive_size,
    homogeneity_bound,
    is_prime,
    parity_admissible,
    prune_degree,
    step1_eliminates,
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
# step 2: the homogeneity bound h(n)

def test_step2_witness_for_24():
    # r = 2 forces 11-homogeneity; M_24 is the most homogeneous at degree 24
    assert forced_transitive_size(24, 2) == 11
    assert homogeneity_bound(24) == 5
    v = prune_degree(24, 2)
    assert (v.stage, v.forced_size, v.bound) == ("homogeneity", 11, 5)


def test_step2_survivors():
    def step2_survivors(r):
        return [n for n in degree_range(r) if not prune_degree(n, r).eliminated]

    assert step2_survivors(2) == [2, 4, 6, 8, 12]
    assert step2_survivors(3) == [3, 4, 5, 6, 7, 8, 9, 11, 12]
    assert step2_survivors(4) == [4, 6, 8, 10, 12]
    assert step2_survivors(5) == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]


#: Survivors of parity, step 1 and the Miller step that step 2 replaced,
#: r = 1..16, as that step printed them.  Step 2 eliminates six more
#: (n, r), none holding a golden row of r = 1..11.
MILLER_SURVIVORS = {
    1: [3, 4, 5, 6, 9],
    2: [2, 4, 6, 8, 12],
    3: [3, 4, 5, 6, 7, 8, 9, 11, 12],
    4: [4, 6, 8, 10, 12],
    5: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    6: [4, 6, 8, 10, 12],
    7: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    8: [4, 6, 8, 10, 12, 14, 18],
    9: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18],
    10: [4, 6, 8, 10, 12, 14, 16, 18],
    11: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
    12: [4, 6, 8, 10, 12, 14, 16, 18],
    13: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
    14: [4, 6, 8, 10, 12, 14, 16, 18, 20, 24],
    15: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
         23, 24],
    16: [4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 30],
}


def test_step2_keeps_every_miller_elimination_and_adds_six():
    newly = {(18, 8), (17, 9), (18, 9), (18, 10), (18, 11), (30, 16)}
    for r, kept in MILLER_SURVIVORS.items():
        now = [n for n in degree_range(r) if not prune_degree(n, r).eliminated]
        assert now == [n for n in kept if (n, r) not in newly], r
    assert all(prune_degree(n, r).stage == "homogeneity" for n, r in newly)


def test_degree9_survives_r3():
    # r = 3 forces 3-homogeneity, and PGammaL(2, 8) on the 9 points of the
    # projective line over GF(8) is 4-homogeneous without A_9
    assert forced_transitive_size(9, 3) == 3 and homogeneity_bound(9) == 4
    assert not prune_degree(9, 3).eliminated


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
    assert transitivity_degree(G) == 3 <= homogeneity_bound(33)
    v = prune_degree(33, 5)
    assert v.stage == "homogeneity"
    assert v.witness_text() == "t*=14,h=4"


def test_homogeneity_bound_families():
    assert [homogeneity_bound(n) for n in (12, 24)] == [5, 5]   # M_12, M_24
    # PGammaL(2, 8), M_11, M_23, PGammaL(2, 32)
    assert [homogeneity_bound(n) for n in (9, 11, 23, 33)] == [4] * 4
    # PGL(2, q) on q + 1 points for q = 5, 16, 17; AGL(4, 2), AGL(5, 2); M_22
    assert [homogeneity_bound(n) for n in (6, 17, 18, 16, 32, 22)] == [3] * 6
    assert homogeneity_bound(5) == 2      # PGL(2, 4) = A_5: n >= 6
    assert homogeneity_bound(15) == 2
    assert [homogeneity_bound(n) for n in (2, 3, 4)] == [1, 1, 2]  # n // 2


def _homogeneity(profile):
    """The largest k <= n/2 with s_t = 1 for every t <= k."""
    n = len(profile) - 1
    k = 0
    while k < n // 2 and profile[k + 1] == 1:
        k += 1
    return k


def test_bound_holds_for_every_built_group():
    """No catalog group and no subgroup class of S_3..S_7 without A_n is
    more homogeneous than h(n), and the bound is reached at degrees 5-12."""
    from setorbits.catalog import load_default
    from setorbits.subgroups import all_subgroups
    groups = [(e.id, e.group()) for e in load_default()]
    groups += [(f"S{n}-cls{c.index}", c.representative)
               for n in range(3, 8) for c in all_subgroups(n)]
    reached = set()
    for label, G in groups:
        if contains_alternating(G.degree, G.order):
            continue
        k = _homogeneity(orbit_profile(G).by_size)
        assert k <= homogeneity_bound(G.degree), label
        if k == homogeneity_bound(G.degree):
            reached.add(G.degree)
    assert set(range(5, 13)) <= reached


def test_livingstone_wagner_on_the_catalog():
    """A k-homogeneous group with 2k <= n is (k - 1)-transitive."""
    from setorbits.catalog import load_default
    for e in load_default():
        G = e.group()
        prof = orbit_profile(G).by_size
        k = max(k for k in range(G.degree // 2 + 1) if prof[k] == 1)
        assert transitivity_degree(G) >= k - 1, e.id


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
    assert v.stage == "homogeneity" and v.witness_text() == "t*=11,h=5"
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
