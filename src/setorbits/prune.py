"""Number-theoretic degree elimination for the s(G) = n + r classification.

A group with s(G) = n + r, r >= 1, has one orbit per subset size plus a
budget of r - 1 more, so at most r - 1 sizes t have more than one t-orbit.
Orbit counts do not fall towards the middle size, so one split at t <= n/2
splits all n - 2t + 1 sizes in [t, n - t]; every size up to
t* = (n - r + 1) // 2 is forced to one orbit (``forced_transitive_size``),
so the group is t*-homogeneous.  Two steps eliminate a degree for every
group not containing A_n:

* step 1 (r >= 1): p is the least prime above (n + r) // 2 = n - t*, so
  2p >= n + r + 1.  When p < 2n/3, every size in (n - p, p) splits.  These
  are 2p - n - 1 >= r sizes, more than the budget of r - 1.
* step 2, homogeneity (r >= 1): t* > h(n), where h(n)
  (``homogeneity_bound``) is the largest k <= n/2 for which a degree-n
  group without A_n can be k-homogeneous.  Three classical results give
  h(n).  Livingstone and Wagner (Math. Z. 90, 1965): a k-homogeneous group
  with 2k <= n is (k - 1)-transitive, and k-transitive once k >= 5.  Kantor
  (Math. Z. 124, 1972): the k-homogeneous groups that are not k-transitive,
  k >= 2.  The classification of the 2-transitive groups (Cameron, Bull.
  LMS 13, 1981; Dixon and Mortimer, Permutation Groups, 1996, section 7.7):
  the 3-transitive groups without A_n.

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
    """Trial division; cached, since ``_split_prime`` tests the same
    integers again for neighbouring degrees."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# records

@dataclass(frozen=True)
class PruneVerdict:
    """Per-degree outcome of the elimination stages: step 1's prime, or
    step 2's forced size t* and bound h(n)."""

    n: int
    stage: Literal["parity", "step1", "homogeneity", "survived"]
    witness_prime: Optional[int] = None
    forced_size: Optional[int] = None
    bound: Optional[int] = None

    @property
    def eliminated(self) -> bool:
        return self.stage != "survived"

    def witness_text(self) -> str:
        if self.stage == "step1":
            return f"p={self.witness_prime}"
        if self.stage == "homogeneity":
            return f"t*={self.forced_size},h={self.bound}"
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
    """The least prime p > (n + r) // 2, the prime of step 1.

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


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def homogeneity_bound(n: int) -> int:
    """h(n): the largest k <= n/2 for which a group of degree n without A_n
    can be k-homogeneous (module docstring).

    5 for M_12 and M_24; 4 for M_11, M_23 and the 4-homogeneous PGammaL(2, 8)
    and PGammaL(2, 32) on 9 and 33 points; 3 for the 3-homogeneous groups:
    those between PSL(2, q) and PGammaL(2, q) on the q + 1 points of the
    projective line (q >= 5), the affine groups on 2^d points (d >= 3), and
    M_22; 2 elsewhere.
    """
    if n in (12, 24):
        h = 5
    elif n in (9, 11, 23, 33):
        h = 4
    elif ((n >= 6 and is_prime_power(n - 1)) or (n >= 8 and n & (n - 1) == 0)
          or n == 22):
        h = 3
    else:
        h = 2
    return min(h, n // 2)


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
    """Run parity, step 1 and step 2 (homogeneity) for one degree."""
    if not parity_admissible(n, r):
        return PruneVerdict(n, "parity")
    p = step1_eliminates(n, r)
    if p is not None:
        return PruneVerdict(n, "step1", witness_prime=p)
    t, h = forced_transitive_size(n, r), homogeneity_bound(n)
    if t is not None and t > h:
        return PruneVerdict(n, "homogeneity", forced_size=t, bound=h)
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
