"""Correctness checks for the benchmark's outputs.

Every check returns a list of problems (empty means the output is right).
The expected values come from computations made apart from the code under
test: closed-form orbit counts, a union-find over the generators, the
reference tables read straight from their TSV files, and the convolution
identity for direct products.  Nothing here imports ``setorbits``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

Gens = Sequence[Sequence[int]]  # 0-based image lists


# ---------------------------------------------------------------------------
# closed forms

def necklaces(n: int) -> int:
    """Binary necklaces of length n: orbits of C_n on subsets of n points."""
    total = sum(_phi(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def bracelets(n: int) -> int:
    """Binary bracelets of length n (n >= 3): orbits of D_2n on subsets."""
    if n % 2:
        return necklaces(n) // 2 + 2 ** ((n - 1) // 2)
    return necklaces(n) // 2 + 3 * 2 ** (n // 2 - 2)


def wreath_orbits(k: int, m: int) -> int:
    """S_k wr S_m on k*m points: a subset is fixed up to the group by the
    multiset of its m block intersection sizes, so C(k+m, m) orbits."""
    return math.comb(k + m, m)


def young_orbits(parts: Sequence[int]) -> int:
    """S_a x S_b x ...: a subset is fixed by its intersection sizes."""
    return math.prod(a + 1 for a in parts)


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# permutation helpers

def point_orbit_count(gens: Gens, n: int) -> int:
    """Number of orbits of <gens> on the points, by union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i, j in enumerate(g):
            a, b = find(i), find(j)
            if a != b:
                parent[a] = b
    return sum(1 for i in range(n) if find(i) == i)


def mask_images(g: Sequence[int], n: int) -> list[int]:
    """Image of every subset bitmask under g, via one table per byte."""
    tables = []
    for lo in range(0, n, 8):
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte
            bit = lo + low.bit_length() - 1
            table[byte] = table[byte ^ low] | (1 << g[bit] if bit < n else 0)
        tables.append(table)
    out = [0] * (1 << n)
    for mask in range(1 << n):
        img = 0
        for i, table in enumerate(tables):
            img |= table[(mask >> (8 * i)) & 255]
        out[mask] = img
    return out


# ---------------------------------------------------------------------------
# orbit partitions

def partition_problems(orbits: Sequence[Sequence[int]], n: int, gens: Gens,
                       expected_count: int) -> list[str]:
    """The orbits cover 0..2^n-1 exactly once, each is closed under every
    generator, their number is ``expected_count``, and the ordering
    contract holds: masks ascending within an orbit, orbits sorted by
    (subset size, smallest mask)."""
    problems = []
    total = 1 << n
    owner = [-1] * total
    for k, orb in enumerate(orbits):
        for mask in orb:
            if not 0 <= mask < total:
                problems.append(f"orbit {k}: mask {mask} out of range")
                return problems
            if owner[mask] >= 0:
                problems.append(f"mask {mask} in orbits {owner[mask]} and {k}")
                return problems
            owner[mask] = k
    uncovered = owner.count(-1)
    if uncovered:
        problems.append(f"{uncovered} masks in no orbit")
        return problems
    for gi, g in enumerate(gens):
        images = mask_images(g, n)
        for mask in range(total):
            if owner[images[mask]] != owner[mask]:
                problems.append(f"orbit {owner[mask]} not closed under "
                                f"generator {gi} at mask {mask}")
                return problems
    if len(orbits) != expected_count:
        problems.append(f"{len(orbits)} orbits, closed form gives "
                        f"{expected_count}")
    for k, orb in enumerate(orbits):
        if any(a >= b for a, b in zip(orb, orb[1:])):
            problems.append(f"orbit {k}: masks not ascending")
            break
    keys = [(bin(orb[0]).count("1"), orb[0]) for orb in orbits if orb]
    if keys != sorted(keys):
        problems.append("orbits not sorted by (size, smallest mask)")
    return problems


# ---------------------------------------------------------------------------
# set-orbit profiles

def convolve(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def profile_problems(profile: Sequence[int], s: int, order: int, n: int,
                     gens: Gens, expected_order: int,
                     expected_s: int | None = None,
                     expected_profile: Sequence[int] | None = None) -> list[str]:
    """Properties every set-orbit profile of a group on n points has, plus
    the values the caller knows independently (``expected_*``)."""
    problems = []
    if order != expected_order:
        problems.append(f"order {order}, expected {expected_order}")
    if len(profile) != n + 1:
        problems.append(f"profile has {len(profile)} entries for degree {n}")
        return problems
    if expected_s is not None and s != expected_s:
        problems.append(f"s = {s}, expected {expected_s}")
    if sum(profile) != s:
        problems.append(f"profile total {sum(profile)} != count_set_orbits {s}")
    if tuple(profile) != tuple(profile)[::-1]:
        problems.append("profile not palindromic")
    if profile[0] != 1 or profile[n] != 1:
        problems.append("s_0 and s_n must be 1")
    if n >= 1 and profile[1] != point_orbit_count(gens, n):
        problems.append(f"s_1 = {profile[1]}, but the group has "
                        f"{point_orbit_count(gens, n)} point orbits")
    if expected_profile is not None and tuple(profile) != tuple(expected_profile):
        problems.append(f"profile {tuple(profile)} != independent "
                        f"{tuple(expected_profile)}")
    return problems


# ---------------------------------------------------------------------------
# classification rows

def read_golden(path: str) -> list[tuple[int, int, int]]:
    """(degree, order, s) of every row of a reference table."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 6 or parts[0] == "r":
                continue
            rows.append((int(parts[1]), int(parts[4]), int(parts[5])))
    return rows


def classify_problems(r: int, rows: Sequence[tuple[int, str, int, int]],
                      golden: Sequence[tuple[int, int, int]],
                      rederived: dict[str, int]) -> list[str]:
    """Rows are (degree, label, order, s).  The (degree, order, s) multiset
    must equal the reference table's, every s must be degree + r, and the
    s found again by subset enumeration (``rederived``) must agree."""
    problems = []
    got = Counter((d, o, s) for d, _, o, s in rows)
    want = Counter(golden)
    for key, k in (want - got).items():
        problems.append(f"r={r}: {k} reference row(s) {key} missing")
    for key, k in (got - want).items():
        problems.append(f"r={r}: {k} extra row(s) {key}")
    for d, label, _, s in rows:
        if s != d + r:
            problems.append(f"r={r} {label}: s = {s}, expected {d + r}")
        if rederived.get(label) != d + r:
            problems.append(f"r={r} {label}: enumeration gives "
                            f"{rederived.get(label)}, expected {d + r}")
    return problems
