"""Closed-form set-orbit counts s(G) of five families, as a referee for the
counting routes.  Plain arithmetic on the family's parameters: nothing here
builds a group, lists an element or walks a subset, and nothing is imported
from the package under test.

Each form is Burnside's lemma summed by hand over the family's conjugacy
classes, or a direct description of the orbits:

* cyclic C_n on n points: the binary necklaces of length n,
  (1/n) * sum over d | n of phi(d) * 2^(n/d);
* dihedral D_n of order 2n on the n-gon (n >= 3): the binary bracelets,
  half the necklaces plus the reflections' share, 3 * 2^(n/2 - 2) for even
  n and 2^((n - 1)/2) for odd n;
* S_a x S_b on a + b points: a set-orbit is fixed by how many points of
  each part it holds, so (a + 1)(b + 1);
* S_k wr S_m on m blocks of k points: a set-orbit is fixed by the multiset
  of its sizes in the blocks, m sizes from 0..k, so C(k + m, m);
* AGL(1, p), the maps x -> ax + b of the prime field F_p: the identity
  fixes 2^p sets, each of the p - 1 translations one p-cycle (2 sets), and
  each of the phi(d) * p maps with a of order d > 1 one fixed point and
  (p - 1)/d cycles of length d (2^(1 + (p - 1)/d) sets), over p(p - 1).
"""

from __future__ import annotations

import math


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _exact(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    assert r == 0, f"{numerator} is not divisible by {denominator}"
    return q


def necklaces(n: int) -> int:
    """s(C_n) on n points."""
    return _exact(sum(_phi(d) * 2 ** (n // d) for d in _divisors(n)), n)


def bracelets(n: int) -> int:
    """s(D_n), the dihedral group of order 2n on the n-gon, n >= 3."""
    assert n >= 3
    reflections = n * 3 * 2 ** (n // 2) // 2 if n % 2 == 0 else n * 2 ** ((n + 1) // 2)
    return _exact(n * necklaces(n) + reflections, 2 * n)


def young(a: int, b: int) -> int:
    """s(S_a x S_b) on a + b points."""
    return (a + 1) * (b + 1)


def wreath(k: int, m: int) -> int:
    """s(S_k wr S_m) on m blocks of k points."""
    return math.comb(k + m, m)


def affine(p: int) -> int:
    """s(AGL(1, p)) on the p points of F_p, p prime."""
    total = 2 ** p + 2 * (p - 1)
    total += sum(_phi(d) * p * 2 ** (1 + (p - 1) // d)
                 for d in _divisors(p - 1) if d > 1)
    return _exact(total, p * (p - 1))
