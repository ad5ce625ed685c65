#!/usr/bin/env python3
"""Naive subgroup census of a permutation group given by its element list:
the independent oracle behind the frozen class-count fixtures.

Method, deliberately different from the production enumerator (no stabilizer
chains, no prime-power element walk, no conjugate maps), and sharing no code
with the package: it imports nothing from ``setorbits`` and takes products
and conjugates point by point.  List every cyclic subgroup, then close the
collection under pairwise join until nothing new appears.  Every subgroup is
a join of cyclic subgroups, so the fixpoint is the complete subgroup
lattice.  A join is computed by plain breadth-first closure of the two
generator lists.  Conjugacy classes are then formed by explicit conjugation
with every element of the group.

Usage: subgroup_oracle.py [max_n]     (S_1..S_max_n; default 5; n = 6 takes
some minutes)
"""

from __future__ import annotations

import sys
import time
from itertools import permutations


def compose(a: tuple, b: tuple) -> tuple:
    """a o b, b applied first: (a o b)(i) = a(b(i))."""
    return tuple([a[i] for i in b])


def conjugate(s: tuple, x: tuple) -> tuple:
    """s x s^-1, which sends s(i) to s(x(i))."""
    out = [0] * len(s)
    for i, j in enumerate(x):
        out[s[i]] = s[j]
    return tuple(out)


def bfs_closure(gens: tuple, n: int) -> frozenset:
    ident = tuple(range(n))
    out = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return frozenset(out)


def census(elements) -> tuple[int, int]:
    """(number of subgroups, number of conjugacy classes) of the group whose
    elements, as 0-based image tuples, are ``elements``; classes are taken
    under conjugation by the group itself."""
    everyone = list(elements)
    n = len(everyone[0])
    ident = tuple(range(n))
    cyclics: dict[frozenset, tuple] = {}
    for g in everyone:
        if g == ident:
            continue
        sub = {ident}
        x = g
        while x != ident:
            sub.add(x)
            x = compose(x, g)
        cyclics.setdefault(frozenset(sub), (g,))
    subgroups: dict[frozenset, tuple] = {frozenset([ident]): ()}
    subgroups.update(cyclics)
    frontier = list(cyclics.items())
    while frontier:
        new = []
        for elems, gens in frontier:
            for celems, cgens in cyclics.items():
                if cgens[0] in elems:
                    continue  # join would be elems itself or already forming
                jgens = gens + cgens
                j = bfs_closure(jgens, n)
                if j not in subgroups:
                    subgroups[j] = jgens
                    new.append((j, jgens))
        frontier = new
    classes = 0
    seen: set[frozenset] = set()
    for H in subgroups:
        if H in seen:
            continue
        classes += 1
        for s in everyone:
            seen.add(frozenset(conjugate(s, x) for x in H))
    return len(subgroups), classes


if __name__ == "__main__":
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    for n in range(1, max_n + 1):
        t0 = time.time()
        total, classes = census(permutations(range(n)))
        print(f"S_{n}: {total} subgroups, {classes} conjugacy classes "
              f"({time.time() - t0:.1f}s)")
