"""Subgroups of a permutation group up to conjugacy, for small groups.

``subgroup_classes(parent)`` is an incremental closure: starting from the
trivial group, every known class representative H is extended by single
elements g of prime-power order in the parent (every subgroup arises as
<M, g> with M maximal and g of prime-power order outside M, so the walk is
exhaustive).  The parent's elements are numbered once, in sorted order,
and a subgroup is keyed by the frozenset of its elements' indices; each
closure is deduplicated against the keys of every parent-conjugate of
every discovered subgroup, conjugated by one index table per parent
generator.  Once g is tried, the rest of its double cosets HgH and Hg^-1H
are skipped: each of their elements gives the same <H, g>.
``subgroup_classes(parent, above=x)`` starts the same walk at <x>
instead: every H > <x> has a maximal subgroup M >= <x>, and H = <M, g> is
that step again, so it lists exactly the classes of subgroups that
contain a parent-conjugate of <x>.

The default case is the parent S_n: ``all_subgroups(n)`` caches it per
degree for n <= SUBGROUP_MAX_DEGREE = 7 (S_7: 96 classes, 11300
subgroups, 1.6-3.5 s at a 36 MB peak on a shared 2-core host).  Nothing
walks S_8, which takes over a minute at a 300 MB peak: the imprimitive
transitive groups of degree 8 are walked inside S_2 wr S_4 and S_4 wr S_2
(scripts/derive_catalog.py).
Everything is deterministic: candidates are scanned in sorted order and the
result is sorted by (order, canonical key), where the canonical key of a
class is the lexicographically minimal sorted element list over all its
conjugates under the parent.  So the classes, their representatives and
their order depend on the parent group (and x) alone, not on its
generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from .catalog import builtin
from .prune import is_prime_power
from .perm import (
    PermGroup,
    Permutation,
    _Chain,
    _compose_t,
    _cycle_lengths,
    _gather,
    _inverse_t,
    is_transitive,
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


def _prime_power_order(lengths: tuple[int, ...]) -> bool:
    return is_prime_power(math.lcm(*lengths))


class _ClassRec(NamedTuple):
    gens: tuple
    key: frozenset  # the indices of the representative's elements
    order: int
    class_size: int
    canonical_key: tuple


def _enumerate_classes(parent: PermGroup, start: tuple) -> list[_ClassRec]:
    n = parent.degree
    # numbered in sorted order, so sorted index lists order as the sorted
    # element lists do
    elements = sorted(parent.iter_element_tuples())
    index = {x: i for i, x in enumerate(elements)}
    # per parent generator s, the index of s x s^-1 at the index of x
    conj_tables = []
    for s in parent.generator_tuples():
        times_sinv = _gather(_inverse_t(s))  # s x s^-1 = s o (x o s^-1)
        conj_tables.append([index[_compose_t(s, times_sinv(x))]
                            for x in elements])
    classes: list[_ClassRec] = []
    by_order: dict[int, list[_ClassRec]] = {}
    # the key of every parent-conjugate of every class found
    seen: set[frozenset] = set()

    def register(key: frozenset, gens: tuple) -> None:
        orbit = {key}
        queue = [key]
        canon = sorted(key)
        while queue:
            cur = queue.pop()
            for table in conj_tables:
                img = frozenset(map(table.__getitem__, cur))
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
                    canon = min(canon, sorted(img))
        seen.update(orbit)
        rec = _ClassRec(gens, key, len(key), len(orbit),
                        tuple(map(elements.__getitem__, canon)))
        classes.append(rec)
        by_order.setdefault(rec.order, []).append(rec)

    register(frozenset(map(index.__getitem__,
                           _Chain(start, n).iter_elements())), start)
    candidates = [i for i, t in enumerate(elements)
                  if _prime_power_order(_cycle_lengths(t))]
    pos = 0
    while pos < len(classes):
        rec = classes[pos]
        pos += 1
        if rec.order == parent.order:
            continue
        key, gens = rec.key, rec.gens
        gen_indices = [index[x] for x in gens]
        E = [elements[i] for i in key]
        times_gens = [_gather(s) for s in gens]
        covered: set = set()
        for gi in candidates:
            g = elements[gi]
            if gi in key or g in covered:
                continue
            new_gens = gens + (g,)
            chain = _Chain(new_gens, n)
            o = chain.order
            for cls in by_order.get(o, ()):
                ck = cls.key
                if gi in ck and all(i in ck for i in gen_indices):
                    break  # closure is exactly that known representative
            else:
                elems = frozenset(map(index.__getitem__, chain.iter_elements()))
                if elems not in seen:
                    register(elems, new_gens)
            # <H, x> = <H, g> for every x in the double cosets HgH and
            # Hg^-1H: the cosets Hg and Hg^-1 closed under right
            # multiplication by H's generators
            times_g = (_gather(g), _gather(_inverse_t(g)))
            cosets = {times_x(h) for h in E for times_x in times_g}
            covered |= cosets
            frontier = list(cosets)
            while frontier:
                x = frontier.pop()
                for times_s in times_gens:
                    y = times_s(x)
                    if y not in covered:
                        covered.add(y)
                        frontier.append(y)
    return classes


def subgroup_classes(parent: PermGroup, above: Optional[Permutation] = None
                     ) -> tuple[SubgroupClass, ...]:
    """All conjugacy classes of subgroups of ``parent`` under conjugation by
    ``parent``, sorted by (order, canonical key) and numbered from 1; with
    ``above``, only those that contain a parent-conjugate of <above>.

    Includes the trivial group (or <above>) and ``parent`` itself.  Every
    element of the parent is listed, so this is meant for parents of a few
    ten thousand elements at most.  An ``above`` outside the parent raises
    ValueError.
    """
    n = parent.degree
    if above is not None and above not in parent:
        raise ValueError(f"{above} is not an element of the parent group")
    recs = _enumerate_classes(parent, () if above is None else (above.images,))
    recs.sort(key=lambda r: (r.order, r.canonical_key))
    out = []
    for i, rec in enumerate(recs, start=1):
        gens = [Permutation(t) for t in rec.gens]
        G = PermGroup(gens, degree=n)
        if G.order != rec.order:
            raise RuntimeError(f"class {i}: generators give order {G.order}")
        out.append(SubgroupClass(
            representative=G, order=rec.order, class_size=rec.class_size,
            canonical_key=rec.canonical_key, transitive=is_transitive(G),
            index=i))
    return tuple(out)


@lru_cache(maxsize=None)
def all_subgroups(n: int) -> tuple[SubgroupClass, ...]:
    """All conjugacy classes of subgroups of S_n, sorted by (order, key).

    Includes the trivial group and S_n itself.  Cached per degree; an
    exception is not cached, so SubgroupCapError for n > SUBGROUP_MAX_DEGREE
    is raised on every call.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > SUBGROUP_MAX_DEGREE:
        raise SubgroupCapError(
            f"subgroup enumeration of S_{n} is beyond the cap of the cached "
            f"S_n walk (n <= {SUBGROUP_MAX_DEGREE})")
    return subgroup_classes(builtin("symmetric", n))


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
