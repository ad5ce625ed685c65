"""Number-theoretic degree elimination for the s(G) = n + r classification.

A group with s(G) = n + r has at most r - 1 subset sizes t with more than
one t-orbit.  Prime windows around n/2 force many middle sizes to split for
any group not containing A_n, which rules degrees out wholesale:

* step 1: a prime p with floor(n/2) + k0 < p < 2n/3 kills sizes
  floor(n/2) + k for all k <= k0 (2*k0 sizes for odd n, 2*k0 + 1 for even
  n, counting mirror sizes once).
* step 2: a transitivity bound from decompositions n = m*p0 + rem (p0 prime,
  p0 > m, rem > m: no such group is more than rem-transitive, save the
  3-transitive families of ``known_transitivity_floor``) contradicts the
  (n - p + 1)-transitivity forced by a prime floor(n/2) + k1 < p <= n.

All boundary comparisons are exact integer arithmetic; nothing goes through
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Literal, Optional


def is_prime(n: int) -> bool:
    """Trial division."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_in(lo: int, hi: int) -> list[int]:
    """Sorted primes p with lo < p <= hi."""
    if lo > hi:
        raise ValueError(f"inverted bounds ({lo}, {hi})")
    return [p for p in range(lo + 1, hi + 1) if is_prime(p)]


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


def required_k0(n_parity: Literal["even", "odd"], r: int) -> int:
    """Smallest window offset that forces more than r - 1 split sizes.

    Odd degree: 2*k0 > r - 1, so k0 = ceil(r/2).  Even degree: 2*k0 + 1 >
    r - 1, so k0 = ceil((r-1)/2).
    """
    if r < 2:
        raise ValueError("defined for r >= 2 only")
    if n_parity == "odd":
        return (r + 1) // 2
    if n_parity == "even":
        return r // 2
    raise ValueError(f"bad parity {n_parity!r}")


def step1_eliminates(n: int, r: int) -> Optional[int]:
    """Smallest prime p with floor(n/2) + k0 < p < 2n/3, if any.

    Such a prime eliminates degree n: every group of degree n not containing
    A_n then has s(G) > n + r.  The 2n/3 comparison is exact: 3p < 2n holds
    exactly when p <= (2n - 1) // 3.
    """
    if n < 3:
        return None
    k0 = required_k0("odd" if n % 2 else "even", r)
    lo, hi = n // 2 + k0, (2 * n - 1) // 3
    if lo >= hi:
        return None
    window = primes_in(lo, hi)
    return window[0] if window else None


def miller_bound(n: int) -> Optional[tuple[int, MillerDecomposition]]:
    """Minimal rem over all decompositions n = m*p0 + rem, with its witness.

    A group of degree n not containing A_n is at most rem-transitive.  Returns
    None when no decomposition satisfies the hypothesis.
    """
    if n < 3:
        return None
    best: Optional[tuple[int, MillerDecomposition]] = None
    for m in range(1, math.isqrt(n)):  # p0, rem >= m + 1 force (m+1)^2 <= n
        hi = (n - m - 1) // m  # largest p0 with rem = n - m*p0 > m
        if hi <= m:
            continue
        for p0 in primes_in(m, hi):
            rem = n - m * p0
            if best is None or rem < best[0]:
                best = (rem, MillerDecomposition(n, m, p0, rem))
    return best


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

    Uses the smallest prime p with floor(n/2) + k1 < p <= n; the degree is
    eliminated when n - p + 1 exceeds the decomposition's ``bound``, since
    a group with few set-orbits would have to be (n - p + 1)-transitive.
    """
    if n < 3:
        return None
    mb = miller_bound(n)
    if mb is None:
        return None
    decomp = mb[1]
    k1 = required_k0("odd" if n % 2 else "even", r)
    lo = n // 2 + k1
    if lo >= n:
        return None
    window = primes_in(lo, n)
    if window and n - window[0] + 1 > decomp.bound:
        return window[0], decomp
    return None


def thm37_max_k0(n: int) -> Optional[int]:
    """Largest k0 with 48 - (n+1)/2 <= k0 <= (5/54)n - 1/2, if one exists.

    Nonempty first at n = 81 (where it equals 7); relies on a prime in
    (x, 9x/8) for x >= 48.  Comparisons are exact via cross-multiplication.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    hi = (5 * n - 27) // 54  # floor((5/54)n - 1/2)
    if hi < 1:
        return None
    # applicability: 48 - (n+1)/2 <= hi, i.e. 96 - n - 1 <= 2*hi
    if 95 - n > 2 * hi:
        return None
    return hi


#: the r for which the elimination stages and the degree bound are defined
R_RANGE = range(2, 16)


def degree_bound(r: int) -> int:
    """Universal degree cap for the search: n <= 81 whenever r < 16."""
    if r not in R_RANGE:
        raise ValueError(f"method cap exceeded: no degree bound for r = {r}")
    return 81


def binomial_divides(n: int, t: int, order: int) -> bool:
    """True iff C(n, t) divides ``order`` (a necessary condition for s_t = 1)."""
    if not 0 <= t <= n:
        raise ValueError(f"t = {t} out of range 0..{n}")
    return order % math.comb(n, t) == 0


# ---------------------------------------------------------------------------
# per-degree driver

@cache
def prune_degree(n: int, r: int) -> PruneVerdict:
    """Run parity, step 1 and step 2 for one degree; cached, since every
    classify(r) prunes the whole degree window (n <= 81) again."""
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
    """Degrees the classification examines for a given r.

    Degree 2 carries only {e} and S_2 (s = 4 and 3), so it is examined once
    for r = 2 and set aside for every larger r.
    """
    return range(2 if r == 2 else 3, degree_bound(r) + 1)


def survivors_after_step1(r: int) -> list[int]:
    out = []
    for n in degree_range(r):
        if parity_admissible(n, r) and step1_eliminates(n, r) is None:
            out.append(n)
    return out


def survivors(r: int) -> list[int]:
    return [n for n in degree_range(r) if not prune_degree(n, r).eliminated]
