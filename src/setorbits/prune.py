"""Number-theoretic degree elimination for the s(G) = n + r classification.

A group with s(G) = n + r, r >= 1, has one orbit per subset size plus a
budget of r - 1 more, so at most r - 1 sizes t have more than one t-orbit.
Orbit counts do not fall towards the middle size, so one split at t <= n/2
splits all n - 2t + 1 sizes in [t, n - t]; every size up to
t* = (n - r + 1) // 2 is forced to one orbit (``forced_transitive_size``).
Both elimination steps use the one prime p, the least prime above
(n + r) // 2 = n - t*, so 2p >= n + r + 1:

* step 1 (r >= 1): when p < 2n/3, every size in (n - p, p) splits for a
  group not containing A_n.  These are 2p - n - 1 >= r sizes, more than the
  budget of r - 1.
* step 2 (r >= 1): when p <= n, the budget forces (n - p + 1)-transitivity,
  which contradicts a transitivity bound from decompositions
  n = m*p0 + rem (p0 prime, p0 > m, rem > m: no such group is more than
  rem-transitive, save the 3-transitive families of
  ``known_transitivity_floor``).

Step 1 alone bounds the degree search (``degree_bound``).  By Nagura
(Proc. Japan Acad. 28, 1952), for x >= 25 there is a prime in (x, 6x/5).
With x = (n + r) // 2 >= 25 the split prime has 5p < 6x <= 3(n + r), so
3p < 2n once n >= 9r: step 1 eliminates every n >= max(9r, 50 - r).

All boundary comparisons are exact integer arithmetic; nothing goes through
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Literal, Optional


@cache
def is_prime(n: int) -> bool:
    """Trial division; cached, since ``_split_prime`` and ``miller_bound``
    test the same integers again for neighbouring degrees."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# records

@dataclass(frozen=True)
class MillerDecomposition:
    """n = m*p0 + rem with p0 prime, p0 > m, rem > m."""

    n: int
    m: int
    p0: int
    rem: int

    def __post_init__(self):
        if self.n != self.m * self.p0 + self.rem:
            raise ValueError("inconsistent decomposition")
        if not (is_prime(self.p0) and self.p0 > self.m and self.rem > self.m):
            raise ValueError("decomposition violates the hypothesis")

    def __str__(self) -> str:
        return f"{self.m}x{self.p0}+{self.rem}"

    @property
    def bound(self) -> int:
        """Most transitivity a degree-n group without A_n can have: rem,
        raised to ``known_transitivity_floor(n)``."""
        return max(self.rem, known_transitivity_floor(self.n))


@dataclass(frozen=True)
class PruneVerdict:
    """Per-degree outcome of the elimination stages."""

    n: int
    stage: Literal["parity", "step1", "step2", "survived"]
    witness_prime: Optional[int] = None
    miller: Optional[MillerDecomposition] = None

    @property
    def eliminated(self) -> bool:
        return self.stage != "survived"

    def witness_text(self) -> str:
        if self.stage == "step1":
            return f"p={self.witness_prime}"
        if self.stage == "step2":
            bound = self.miller.bound
            floor = f",floor={bound}" if bound != self.miller.rem else ""
            return f"miller={self.miller}{floor},p={self.witness_prime}"
        return "-"


# ---------------------------------------------------------------------------
# stage predicates

def parity_admissible(n: int, r: int) -> bool:
    """False exactly when r is even and n is odd (no such group exists)."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    return not (r % 2 == 0 and n % 2 == 1)


def forced_transitive_size(n: int, r: int) -> Optional[int]:
    """Largest t <= n/2 with s_t(G) = 1 forced by s(G) = n + r, or None.

    A split at size t <= n/2 splits all n - 2t + 1 sizes in [t, n - t], so
    t is forced when n - 2t + 1 > r - 1, the budget of extra orbits.  The
    largest such t is (n - r + 1) // 2, and n - t* = (n + r) // 2 for all n.
    """
    if r < 1:
        raise ValueError("defined for r >= 1")
    t = (n - r + 1) // 2
    return t if t >= 1 else None


def _split_prime(n: int, r: int) -> int:
    """The least prime p > (n + r) // 2, the prime of steps 1 and 2.

    Taken from the raw bound rather than from ``forced_transitive_size``,
    so that r >= n still gives p > n, which eliminates nothing.
    """
    p = (n + r) // 2 + 1
    while not is_prime(p):
        p += 1
    return p


def step1_eliminates(n: int, r: int) -> Optional[int]:
    """The split prime p, when 3p < 2n.

    Such a prime eliminates degree n: every group of degree n not containing
    A_n then has s(G) > n + r.
    """
    p = _split_prime(n, r)
    return p if 3 * p < 2 * n else None


def miller_bound(n: int) -> Optional[MillerDecomposition]:
    """The decomposition n = m*p0 + rem with the least rem, and among those
    the least m.

    A group of degree n not containing A_n is at most rem-transitive.  Returns
    None when no decomposition satisfies the hypothesis.

    For a fixed m, rem = n - m*p0 falls as p0 grows, so the least rem for
    that m comes from the largest prime p0 with m < p0 <= (n - m - 1) // m
    (the bound that keeps rem > m): the scan for each m runs down from
    (n - m - 1) // m and stops at the first prime.
    """
    best = None  # (rem, m, p0)
    for m in range(1, math.isqrt(n)):  # p0, rem >= m + 1 force (m+1)^2 <= n
        for p0 in range((n - m - 1) // m, m, -1):
            if is_prime(p0):
                if best is None or n - m * p0 < best[0]:
                    best = (n - m * p0, m, p0)
                break
    if best is None:
        return None
    rem, m, p0 = best
    return MillerDecomposition(n, m, p0, rem)


# The 4- and 5-transitive Mathieu groups, and the 3-transitive M_22 and
# Aut(M_22), by degree: their transitivity.
_MATHIEU_TRANSITIVITY = {11: 4, 12: 5, 22: 3, 23: 4, 24: 5}


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def known_transitivity_floor(n: int) -> int:
    """Highest transitivity of a known group of degree n without A_n, when it
    is at least 3; 0 otherwise.

    By the classification of 2-transitive groups, the 3-transitive groups
    without A_n are PGL(2, q) <= G <= PGammaL(2, q) on the q + 1 points of
    the projective line (q >= 5), AGL(d, 2) and its subgroups on 2^d points
    (d >= 3), and the Mathieu groups.  The Miller remainder can fall short of
    them (9 = 1*7 + 2 and 33 = 1*31 + 2 carry PGammaL(2, 8) and PGammaL(2, 32)).
    """
    floor = _MATHIEU_TRANSITIVITY.get(n, 0)
    if (n >= 6 and is_prime_power(n - 1)) or (n >= 8 and n & (n - 1) == 0):
        floor = max(floor, 3)
    return floor


def step2_eliminates(n: int, r: int) -> Optional[tuple[int, MillerDecomposition]]:
    """Witness (p, decomposition) eliminating degree n via the Miller bound.

    Uses the split prime p; the degree is eliminated when p <= n and
    n - p + 1 exceeds the decomposition's ``bound``, since a group with few
    set-orbits would have to be (n - p + 1)-transitive.
    """
    p = _split_prime(n, r)
    if p > n:
        return None
    decomp = miller_bound(n)
    if decomp is not None and n - p + 1 > decomp.bound:
        return p, decomp
    return None


@cache
def degree_bound(r: int) -> int:
    """The largest degree that step 1 does not eliminate, for any r >= 1.

    Step 1 eliminates every n >= max(9r, 50 - r) (Nagura; see the module
    docstring), so the scan runs down from there and checks each degree
    below it until step 1 leaves one.  It stops by degree 2 at the latest,
    where 3p < 4 is impossible.  Cached, since ``degree_range``,
    ``classify`` and ``prune`` ask for the same r again.
    """
    if r < 1:
        raise ValueError(f"no degree bound for r = {r}: need r >= 1")
    n = max(9 * r, 50 - r)
    while step1_eliminates(n, r) is not None:
        n -= 1
    return n


def binomial_divides(n: int, t: int, order: int) -> bool:
    """True iff C(n, t) divides ``order`` (a necessary condition for s_t = 1)."""
    if not 0 <= t <= n:
        raise ValueError(f"t = {t} out of range 0..{n}")
    return order % math.comb(n, t) == 0


# ---------------------------------------------------------------------------
# per-degree driver

def prune_degree(n: int, r: int) -> PruneVerdict:
    """Run parity, step 1 and step 2 for one degree."""
    if not parity_admissible(n, r):
        return PruneVerdict(n, "parity")
    p = step1_eliminates(n, r)
    if p is not None:
        return PruneVerdict(n, "step1", witness_prime=p)
    hit = step2_eliminates(n, r)
    if hit is not None:
        return PruneVerdict(n, "step2", witness_prime=hit[0], miller=hit[1])
    return PruneVerdict(n, "survived")


def degree_range(r: int) -> range:
    """Degrees the classification examines for a given r: up to
    ``degree_bound(r)``, past which step 1 eliminates every degree.

    Degree 2 carries only {e} and S_2 (s = 4 and 3), so it is examined once
    for r = 2 and set aside for every other r.  At r = 1 this keeps out S_2,
    which is S_n but which ``contains_alternating`` (False below degree 3)
    does not exclude.
    """
    return range(2 if r == 2 else 3, degree_bound(r) + 1)
