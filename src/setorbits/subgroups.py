"""Subgroups of a permutation group up to conjugacy, for small groups.

``subgroup_classes(parent)`` is an incremental closure: starting from the
trivial group, every known class representative H is extended by single
elements g of prime-power order in the parent (every subgroup arises as
<M, g> with M maximal and g of prime-power order outside M, so the walk is
exhaustive), and the closures are deduplicated against an exact map from
element sets to classes that covers every parent-conjugate of every
discovered subgroup.

The default case is the parent S_n: ``all_subgroups(n)`` caches it per
degree for n <= SUBGROUP_MAX_DEGREE = 7 (S_7: 96 classes, ~11000
subgroups, about 10 s); the S_8 walk takes minutes and is run only by
calling ``subgroup_classes`` on S_8 directly.  Everything is
deterministic: candidates are scanned in sorted order and the result is
sorted by (order, canonical key), where the canonical key of a class is the
lexicographically minimal sorted element list over all its conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .catalog import builtin
from .prune import is_prime_power
from .perm import (
    PermGroup,
    Permutation,
    _Chain,
    _compose_t,
    _conjugate_t,
    _cycle_lengths,
    _identity_t,
    _inverse_t,
)

#: largest n for which ``all_subgroups(n)`` walks and caches S_n
SUBGROUP_MAX_DEGREE = 7


class SubgroupCapError(ValueError):
    """Requested degree exceeds SUBGROUP_MAX_DEGREE."""


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups of a parent group (S_n by default);
    ``class_size`` counts the conjugates under the parent."""

    representative: PermGroup
    order: int
    class_size: int
    canonical_key: tuple
    transitive: bool
    index: int = field(compare=False, default=0)

    @property
    def degree(self) -> int:
        return self.representative.degree


def _prime_power_order(lengths: tuple[int, ...]) -> bool:
    return is_prime_power(math.lcm(*lengths))


class _ClassRec:
    __slots__ = ("gens", "elements", "order", "class_size", "canonical_key")

    def __init__(self, gens, elements, order):
        self.gens = gens
        self.elements = elements
        self.order = order
        self.class_size = 0
        self.canonical_key = ()


def _conjugate_set(elems: frozenset, s: tuple[int, ...]) -> frozenset:
    return frozenset(_conjugate_t(s, x) for x in elems)


def _enumerate_classes(parent: PermGroup) -> list[_ClassRec]:
    n = parent.degree
    conj_gens = parent.generator_tuples()
    classes: list[_ClassRec] = []
    by_order: dict[int, list[_ClassRec]] = {}
    set_to_class: dict[frozenset, int] = {}

    def register(elements: frozenset, gens: tuple) -> int:
        rec = _ClassRec(gens, elements, len(elements))
        idx = len(classes)
        classes.append(rec)
        by_order.setdefault(rec.order, []).append(rec)
        orbit = {elements}
        queue = [elements]
        canon = tuple(sorted(elements))
        set_to_class[elements] = idx
        while queue:
            cur = queue.pop()
            for s in conj_gens:
                img = _conjugate_set(cur, s)
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
                    set_to_class[img] = idx
                    key = tuple(sorted(img))
                    if key < canon:
                        canon = key
        rec.class_size = len(orbit)
        rec.canonical_key = canon
        return idx

    register(frozenset([_identity_t(n)]), ())
    candidates = sorted(t for t in parent.iter_element_tuples()
                        if _prime_power_order(_cycle_lengths(t)))
    pos = 0
    while pos < len(classes):
        rec = classes[pos]
        pos += 1
        if rec.order == parent.order:
            continue
        E, gens = rec.elements, rec.gens
        small = rec.order <= 48
        covered: set = set()
        for g in candidates:
            if g in E or g in covered:
                continue
            new_gens = gens + (g,)
            chain = _Chain(new_gens, n)
            o = chain.order
            for cls in by_order.get(o, ()):
                ce = cls.elements
                if g in ce and all(x in ce for x in gens):
                    break  # closure is exactly that known representative
            else:
                elems = frozenset(chain.iter_elements())
                if elems not in set_to_class:
                    register(elems, new_gens)
            # <H, g> is unchanged under g -> h g h', g -> g^-1
            ginv = _inverse_t(g)
            if small:
                for h in E:
                    hg = _compose_t(h, g)
                    hginv = _compose_t(h, ginv)
                    for hp in E:
                        covered.add(_compose_t(hg, hp))
                        covered.add(_compose_t(hginv, hp))
            else:
                for h in E:
                    hinv = _inverse_t(h)
                    covered.add(_compose_t(h, g))
                    covered.add(_compose_t(g, h))
                    covered.add(_compose_t(h, _compose_t(g, hinv)))
                    covered.add(_compose_t(h, ginv))
                    covered.add(_compose_t(ginv, h))
                    covered.add(_compose_t(h, _compose_t(ginv, hinv)))
    return classes


def subgroup_classes(parent: PermGroup) -> tuple[SubgroupClass, ...]:
    """All conjugacy classes of subgroups of ``parent`` under conjugation by
    ``parent``, sorted by (order, canonical key) and numbered from 1.

    Includes the trivial group and ``parent`` itself.  Every element of the
    parent is listed, so this is meant for parents of a few ten thousand
    elements at most.
    """
    n = parent.degree
    recs = _enumerate_classes(parent)
    recs.sort(key=lambda r: (r.order, r.canonical_key))
    out = []
    for i, rec in enumerate(recs, start=1):
        gens = [Permutation(t) for t in rec.gens]
        G = PermGroup(gens, degree=n)
        assert G.order == rec.order
        transitive = len(G.orbit_of(0)) == n if n else True
        out.append(SubgroupClass(
            representative=G, order=rec.order, class_size=rec.class_size,
            canonical_key=rec.canonical_key, transitive=transitive, index=i))
    return tuple(out)


@lru_cache(maxsize=None)
def _all_subgroups_cached(n: int) -> tuple[SubgroupClass, ...]:
    return subgroup_classes(builtin("symmetric", n))


def all_subgroups(n: int) -> tuple[SubgroupClass, ...]:
    """All conjugacy classes of subgroups of S_n, sorted by (order, key).

    Includes the trivial group and S_n itself.  Raises SubgroupCapError for
    n > SUBGROUP_MAX_DEGREE.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > SUBGROUP_MAX_DEGREE:
        raise SubgroupCapError(
            f"subgroup enumeration of S_{n} is beyond the cap of the cached "
            f"S_n walk (n <= {SUBGROUP_MAX_DEGREE})")
    return _all_subgroups_cached(n)


def transitive_classes(n: int) -> tuple[SubgroupClass, ...]:
    """Conjugacy classes with a transitive representative, same ordering."""
    return tuple(c for c in all_subgroups(n) if c.transitive)


# ---------------------------------------------------------------------------
# conjugacy search

def conjugate_in_sn(A: PermGroup, B: PermGroup) -> Optional[Permutation]:
    """An element g of S_n with g A g^-1 = B, or None.

    Backtracks over the images of points, pruning each generator of A
    against the element list of B (cycle types first, then incremental
    image constraints).  Intended for small groups; B is fully enumerated.
    """
    n = A.degree
    if B.degree != n or A.order != B.order:
        return None
    if sorted(map(len, A.orbits())) != sorted(map(len, B.orbits())):
        return None
    B_elems = list(B.iter_element_tuples())
    gens = A.generator_tuples()
    if not gens:
        return Permutation.identity(n)
    initial = []
    for a in gens:
        ct = _cycle_lengths(a)
        cand = frozenset(b for b in B_elems if _cycle_lengths(b) == ct)
        if not cand:
            return None
        initial.append(cand)

    sigma: list[Optional[int]] = [None] * n
    used = [False] * n

    def refine(cands: list[frozenset]) -> Optional[list[frozenset]]:
        out = []
        for a, cand in zip(gens, cands):
            keep = cand
            for p in range(n):
                sp = sigma[p]
                if sp is None:
                    continue
                sq = sigma[a[p]]
                if sq is None:
                    continue
                keep = frozenset(b for b in keep if b[sp] == sq)
                if not keep:
                    return None
            out.append(keep)
        return out

    def search(depth: int, cands: list[frozenset]) -> bool:
        if depth == n:
            return True
        for q in range(n):
            if used[q]:
                continue
            sigma[depth] = q
            used[q] = True
            nxt = refine(cands)
            if nxt is not None and search(depth + 1, nxt):
                return True
            sigma[depth] = None
            used[q] = False
        return False

    if search(0, initial):
        return Permutation([sigma[i] for i in range(n)])  # type: ignore[arg-type]
    return None
