"""Permutations and permutation groups on {1..n}.

Points are 1-based in all text I/O (cycle notation) and 0-based internally;
the conversion happens only at the parse/print boundary.  Composition is
right-to-left: ``compose(a, b)`` applies ``b`` first, then ``a``.  On image
tuples a product is a C-level gather, ``itemgetter(*b)(a)``, whose getter is
built once where one right factor meets many left factors (transversal
elements while listing a group, a representative across its Schreier
pairs, s^-1 while conjugating a subgroup); at degree 1, where
``itemgetter(0)`` would return a point rather than a 1-tuple, the product
is its left factor.

Groups are backed by a deterministic stabilizer chain (Schreier-Sims, no
randomization), which gives exact orders, membership tests and duplicate-free
element iteration.  A ``PermGroup`` builds its chain on first need: the first
membership test, element iteration or order query that the generators alone
cannot answer.  The generators answer the order of a trivial group (1), a
cyclic one (the lcm of its generator's cycle lengths) and a primitive group
with a transposition or a 3-cycle among its generators, which contains A_n
by Jordan's theorem (n!, or n!/2 when every generator is even); so no chain
is built to learn that a natural S_11 or S_12 has order n!.  A group that
splits into direct factors on disjoint supports (``_direct_factors``, kept
on the group once found) has the product of its factors' orders, each read
off the factor's generators or its own chain.  A group given
its ``order`` reports that order without a chain, trusting it, and checks
it against the chain once one is built.  The generators and the order
never change, so a group can be shared freely between threads: two threads
that race on the first build produce equal chains, because the build is
deterministic.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

#: largest group order whose elements are ever listed one by one
ITERATION_MAX_ORDER = 10**7


class PermError(ValueError):
    """Malformed permutation input (bad cycle text, degree mismatch...)."""


class GroupTooLargeError(RuntimeError):
    """Group beyond the fixed limit of element iteration or subset
    enumeration (for counting: beyond both)."""


# ---------------------------------------------------------------------------
# raw tuple helpers (0-based image tuples; the hot path of every module)

def _compose_t(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a o b)[i] = a[b[i]], gathered in C (about 3.4 times as fast as a
    # Python-level map at degree 8 to 12); at degree 1 itemgetter(0) gives
    # the point, not a 1-tuple, and the product is a, the identity
    return itemgetter(*b)(a) if len(b) > 1 else a


def _gather(b: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map a -> a o b; ``tuple`` at degree 1, where it returns a."""
    return itemgetter(*b) if len(b) > 1 else tuple


def _inverse_t(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _cycle_lengths(p: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted cycle lengths of ``p``, fixed points included."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    out.sort()
    return tuple(out)


def _identity_t(n: int) -> tuple[int, ...]:
    return tuple(range(n))


# ---------------------------------------------------------------------------
# Permutation

class Permutation:
    """A bijection on {1..n}, stored as a 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        t = tuple(images)
        n = len(t)
        if n < 1:
            raise PermError("degree must be at least 1")
        if sorted(t) != list(range(n)):
            raise PermError(f"not a bijection on 0..{n - 1}: {t!r}")
        object.__setattr__(self, "images", t)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self.images):
            raise PermError(f"point {point} out of range 1..{len(self.images)}")
        return self.images[point - 1] + 1

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 1-based tuples, each starting at its minimum."""
        p = self.images
        seen = set()
        out = []
        for i in range(len(p)):
            if i in seen or p[i] == i:
                continue
            cyc = [i]
            j = p[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = p[j]
            out.append(tuple(x + 1 for x in cyc))
        return out

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r}, {self.degree})"

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    @staticmethod
    def parse(text: str, degree: int) -> "Permutation":
        return parse_permutation(text, degree)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))


# ---------------------------------------------------------------------------
# parsing / arithmetic

def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``"(1,2,3)(4,5)"`` over {1..degree}.

    ``"()"`` denotes the identity; points absent from the text are fixed.
    Out-of-range points, repeated points and malformed syntax are rejected.
    """
    if degree < 1:
        raise PermError("degree must be at least 1")
    s = "".join(text.split())
    if not s:
        raise PermError("empty permutation text")
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    any_cycle = False
    while pos < len(s):
        if s[pos] != "(":
            raise PermError(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise PermError(f"unclosed cycle in {text!r}")
        body = s[pos + 1:end]
        pos = end + 1
        any_cycle = True
        if not body:
            continue  # "()" - explicit identity cycle
        try:
            pts = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise PermError(f"non-integer point in cycle {body!r}") from None
        for p in pts:
            if not 1 <= p <= degree:
                raise PermError(f"point {p} out of range 1..{degree}")
            if p in seen:
                raise PermError(f"repeated point {p} in {text!r}")
            seen.add(p)
        for a, b in zip(pts, pts[1:]):
            images[a - 1] = b - 1
        images[pts[-1] - 1] = pts[0] - 1
    if not any_cycle:
        raise PermError(f"no cycles found in {text!r}")
    return Permutation(images)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product ``a o b``: apply ``b`` first, then ``a``."""
    if a.degree != b.degree:
        raise PermError(f"degree mismatch: {a.degree} != {b.degree}")
    return Permutation(_compose_t(a.images, b.images))


# ---------------------------------------------------------------------------
# stabilizer chain

class _Chain:
    """Deterministic base and strong generating set of a tuple-generated
    group, built by incremental Schreier-Sims.

    ``base[i]`` is the i-th base point.  ``trans[i]`` maps each point p of
    the i-th basic orbit to its coset representative u, with u[base[i]] = p,
    and ``_inv[i]`` keeps u^-1 beside it, so sifting never inverts.  While
    the chain is built, each level keeps its strong generators (those fixing
    base[:i]) in a list; a new generator extends the orbits from their
    existing points, and a point's representative, once set, is never
    replaced.  Each Schreier pair (point, generator index) of a level is
    sifted once: representatives and indices never change, so an old pair
    gives the same element, and that element sifted to the identity or was
    added as a strong generator, so it lies in the stabilizer, which only
    grows.

    A residue found while sifting level i becomes a strong generator of
    levels i+1 up to its own level only, as in SCHREIERSIMS (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, section 4.4;
    Seress, Permutation Group Algorithms, 2003, section 4.2).  Lemma: let
    S_k be the strong generators of level k and H_k = <S_k>.  Sifting level
    i builds the residue h from S_i and from the transversals of levels
    >= i, so h fixes base[0..i] and lies in H_i.  By induction H_i <= H_k
    for every k <= i, so adding h to a level k <= i changes neither H_k nor
    orbit k, and by Schreier's lemma the pairs level k has already sifted
    still generate (H_k)_{b_k}.
    """

    __slots__ = ("n", "base", "trans", "_inv", "order", "_gens", "_done")

    def __init__(self, gens: Iterable[tuple[int, ...]], n: int,
                 forced_base: Sequence[int] = ()):
        self.n = n
        self.base: list[int] = []
        self.trans: list[dict[int, tuple[int, ...]]] = []
        self._inv: list[dict[int, tuple[int, ...]]] = []
        # build state, per level: the strong generators with their inverses,
        # and for each orbit point (in insertion order) how many of them have
        # been sifted with it
        self._gens: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
        self._done: list[list[int]] = []
        for b in forced_base:
            self._add_level(b)
        ident = _identity_t(n)
        for g in gens:
            if g != ident:
                self._add_generator(g)
        i = len(self.base) - 1
        while i >= 0:
            i = self._sift_new_pairs(i)
        del self._gens, self._done
        self.order = math.prod(len(t) for t in self.trans) if self.trans else 1

    # -- construction ---------------------------------------------------

    def _add_level(self, b: int):
        ident = _identity_t(self.n)
        self.base.append(b)
        self.trans.append({b: ident})
        self._inv.append({b: ident})
        self._gens.append([])
        self._done.append([0])

    def _add_generator(self, g: tuple[int, ...], first: int = 0) -> int:
        """Make ``g`` a strong generator of its level and of the levels
        ``first`` to it, extend those levels' orbits, and return its level."""
        for lvl, b in enumerate(self.base):
            if g[b] != b:
                break
        else:
            # fixes the whole base: needs a fresh base point
            lvl = len(self.base)
            self._add_level(min(p for p in range(self.n) if g[p] != p))
        pair = (g, _inverse_t(g))
        for k in range(first, lvl + 1):
            self._gens[k].append(pair)
            self._extend_orbit(k, pair)
        return lvl

    def _extend_orbit(self, k: int, pair: tuple[tuple[int, ...], tuple[int, ...]]):
        """Close orbit ``k`` under its newest generator ``pair``: its old
        points see only that generator, the points it reaches see them all."""
        t, ti = self.trans[k], self._inv[k]
        g, ginv = pair
        new = []
        for p in list(t):
            q = g[p]
            if q not in t:
                t[q] = _compose_t(g, t[p])
                ti[q] = _compose_t(ti[p], ginv)
                new.append(q)
        gens = self._gens[k]
        while new:
            p = new.pop()
            up, vp = t[p], ti[p]
            for s, sinv in gens:
                q = s[p]
                if q not in t:
                    t[q] = _compose_t(s, up)
                    ti[q] = _compose_t(vp, sinv)
                    new.append(q)
        done = self._done[k]
        done.extend([0] * (len(t) - len(done)))

    def _strip(self, g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        base, inv = self.base, self._inv
        for j in range(start, len(base)):
            v = inv[j].get(g[base[j]])
            if v is None:
                return g, j
            g = _compose_t(v, g)
        return g, len(base)

    def _sift_new_pairs(self, i: int) -> int:
        """Sift the Schreier generators u_{s(p)}^-1 s u_p of level ``i`` whose
        pair (p, s) was not sifted before.  The first nontrivial residue
        becomes a strong generator of levels i+1 up to its own level, which
        is returned, to be checked next; with none, level i is complete and
        i - 1 is next."""
        t, ti, gens, done = self.trans[i], self._inv[i], self._gens[i], self._done[i]
        ident = _identity_t(self.n)
        ngens = len(gens)
        for pos, (p, up) in enumerate(t.items()):
            if done[pos] == ngens:
                continue
            times_up = _gather(up)
            for k in range(done[pos], ngens):
                done[pos] = k + 1
                s = gens[k][0]
                su = times_up(s)
                q = s[p]
                if su == t[q]:
                    continue
                h, _ = self._strip(_compose_t(ti[q], su), i + 1)
                if h != ident:
                    return self._add_generator(h, i + 1)
        return i - 1

    # -- queries ---------------------------------------------------------

    def contains(self, g: tuple[int, ...]) -> bool:
        h, j = self._strip(g, 0)
        return j == len(self.base) and h == _identity_t(self.n)

    def iter_elements(self) -> Iterator[tuple[int, ...]]:
        """Each group element exactly once, in deterministic order."""
        if not self.trans:
            yield _identity_t(self.n)
            return
        # acc o u for every representative u of each level, by u's getter
        *upper, last = [[_gather(u) for _, u in sorted(t.items())]
                        for t in self.trans]

        def rec(i: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if i == len(upper):
                for times_u in last:
                    yield times_u(acc)
                return
            for times_u in upper[i]:
                yield from rec(i + 1, times_u(acc))

        yield from rec(0, _identity_t(self.n))


class PermGroup:
    """A permutation group given by generators, with an exact stabilizer chain
    built on first need.

    ``order``, when given, is trusted: ``order`` reports it, and the route
    choices made from it need no chain.  Once a chain is built (for a
    membership test, element iteration, or an order neither given nor read
    off the generators), its order is checked against the known one and a
    mismatch raises PermError.  The chain is deterministic, so iteration
    order and reported orders are reproducible, and a race on the first
    build is harmless.
    """

    __slots__ = ("degree", "generators", "_order", "_chain", "_factors")

    def __init__(self, generators: Sequence[Permutation], degree: int | None = None,
                 order: int | None = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise PermError("empty generator list needs an explicit degree")
            degree = gens[0].degree
        elif degree < 1:
            raise PermError("degree must be at least 1")
        for g in gens:
            if g.degree != degree:
                raise PermError(
                    f"generator degree {g.degree} != group degree {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(g for g in gens
                                                     if not g.is_identity()))
        if order is not None and order < 1:
            raise PermError(f"group order must be positive, got {order}")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_factors", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PermGroup is immutable")

    def _built_chain(self) -> _Chain:
        chain = self._chain
        if chain is None:
            chain = _Chain((g.images for g in self.generators), self.degree)
            if self._order is not None and chain.order != self._order:
                raise PermError(f"generators give order {chain.order}, "
                                f"the group was given order {self._order}")
            object.__setattr__(self, "_order", chain.order)
            object.__setattr__(self, "_chain", chain)
        return chain

    @property
    def order(self) -> int:
        """|G|: the given order, else the order the generators give with no
        chain (``_order_from_generators``: trivial, cyclic, or primitive and
        containing A_n by Jordan's theorem), else, when G splits
        (``_direct_factors``), the product of its factors' orders, else a
        chain's."""
        if self._order is None:
            order = _order_from_generators(self)
            if order is None:
                factors, _ = _direct_factors(self)
                if factors[0] is self:
                    return self._built_chain().order
                order = math.prod(F.order for F in factors)
            object.__setattr__(self, "_order", order)
        return self._order

    @property
    def known_order(self) -> int | None:
        """The order if it is known without building a chain, else None."""
        return self._order

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self._built_chain().contains(p.images)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, <{gens}>)"

    # raw access used by the counting/enumeration modules
    def generator_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g.images for g in self.generators)

    def iter_element_tuples(self) -> Iterator[tuple[int, ...]]:
        if self.order > ITERATION_MAX_ORDER:
            raise GroupTooLargeError(
                f"group of order {self.order} too large for element iteration"
                f" (limit {ITERATION_MAX_ORDER})")
        return self._built_chain().iter_elements()

    def orbits(self) -> list[frozenset[int]]:
        """All point orbits (0-based), ordered by smallest member."""
        return point_orbits(self.generators, self.degree)


def _orbit(gens: Sequence[tuple[int, ...]], point0: int) -> frozenset[int]:
    orb = {point0}
    queue = [point0]
    while queue:
        p = queue.pop()
        for g in gens:
            q = g[p]
            if q not in orb:
                orb.add(q)
                queue.append(q)
    return frozenset(orb)


def point_orbits(gens: Sequence[Permutation], degree: int) -> list[frozenset[int]]:
    """All point orbits (0-based) of the group ``gens`` generate, ordered by
    smallest member; read off the generators, with no group built."""
    images = [g.images for g in gens]
    left = set(range(degree))
    out = []
    while left:
        orb = _orbit(images, min(left))
        out.append(orb)
        left -= orb
    return out


def _direct_factors(G: PermGroup) -> tuple[tuple[PermGroup, ...], int]:
    """G as a direct product on disjoint supports: its restrictions to the
    classes of moved points that a common generator links (union-find over
    the generators' supports, in one pass), ordered by smallest point, and
    its number of fixed points.

    Every generator moves the points of one class only, so G is the direct
    product of the restrictions; a generator moving two orbits (a diagonal)
    links them, so a subdirect product is never split.  A lone factor is a
    faithful restriction and carries G's known order, so no chain is built
    for it.  G itself is its lone factor when it fixes no point, or every
    point (the trivial group is counted as a whole).  The split, with each
    factor's points (``_factor_supports``), is kept on G, so every caller
    shares the same factor groups, with their chains and orders: the
    counting routes, ``PermGroup.order`` and the orbit partition of
    ``orbitcount.enumerate_set_orbits``.
    """
    split = G._factors
    if split is None:
        split = _split(G)
        object.__setattr__(G, "_factors", split)
    # G is not kept in its own slot, which would make it a reference cycle
    return split[0] if split else ((G,), 0)


def _factor_supports(G: PermGroup) -> tuple[tuple[int, ...], ...]:
    """The points of G (0-based, ascending) that each factor of
    ``_direct_factors(G)`` acts on, in the same order: factor point k is
    G's point ``support[k]``.  G's lone factor acts on all its points."""
    _direct_factors(G)
    split = G._factors
    return split[1] if split else (tuple(range(G.degree)),)


def _split(G: PermGroup) -> tuple[tuple[tuple[PermGroup, ...], int],
                                  tuple[tuple[int, ...], ...]] | tuple[()]:
    """The split of ``_direct_factors`` and the factors' supports, or ()
    when G is its lone factor.  Each class's points, ascending, are both
    the relabelling of its generators and the support kept for
    ``_factor_supports``."""
    n = G.degree
    parent = list(range(n))

    def root(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    gens = G.generator_tuples()
    moved = [False] * n
    firsts = []  # each generator's first moved point
    for g in gens:
        first = -1
        for p in range(n):
            if g[p] != p:
                moved[p] = True
                if first < 0:
                    first, r = p, root(p)
                else:
                    parent[root(p)] = r
        firsts.append(first)
    classes: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for p in range(n):
        if moved[p]:
            classes.setdefault(root(p), ([], []))[0].append(p)
    fixed = moved.count(False)
    if not classes or len(classes) == 1 and not fixed:
        return ()
    for g, first in zip(gens, firsts):
        classes[root(first)][1].append(g)
    order = G.known_order if len(classes) == 1 else None
    factors, supports = [], []
    for points, own in classes.values():
        index = {p: k for k, p in enumerate(points)}
        factors.append(PermGroup(
            [Permutation([index[g[p]] for p in points]) for g in own],
            degree=len(points), order=order))
        supports.append(tuple(points))
    return (tuple(factors), fixed), tuple(supports)


def build_group(gens: Sequence[Permutation], degree: int | None = None,
                order: int | None = None) -> PermGroup:
    """Group generated by ``gens``; empty list plus explicit degree gives {e}.
    A given ``order`` is trusted until a chain is built (see PermGroup)."""
    return PermGroup(gens, degree, order)


def elements(G: PermGroup) -> Iterator[Permutation]:
    """Stream every element of G exactly once.

    Raises GroupTooLargeError when order(G) exceeds ITERATION_MAX_ORDER.
    """
    for t in G.iter_element_tuples():
        yield Permutation(t)


# ---------------------------------------------------------------------------
# structural predicates

def contains_alternating(degree: int, order: int) -> bool:
    """Whether a group of this order on ``degree`` points contains A_degree.

    A subgroup of S_n of index at most 2 is S_n or A_n, the one subgroup of
    index 2, so A_n <= G exactly when 2 * |G| >= n!.  False below degree 3,
    where A_n is trivial and every group contains it: the rule that a group
    containing A_n has s(G) = n + 1 starts at degree 3.
    """
    return degree >= 3 and 2 * order >= math.factorial(degree)


def is_transitive(G: PermGroup) -> bool:
    """True iff the orbit of point 1 is all of {1..n}."""
    return len(_orbit(G.generator_tuples(), 0)) == G.degree


def _minimal_block_size(gens: Sequence[tuple[int, ...]], n: int,
                        alpha: int, beta: int) -> int:
    """Size of the smallest block containing {alpha, beta} (Atkinson)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ra, rb = find(alpha), find(beta)
    parent[rb] = ra
    queue = [(alpha, beta)]
    while queue:
        a, b = queue.pop()
        for g in gens:
            ga, gb = find(g[a]), find(g[b])
            if ga != gb:
                parent[gb] = ga
                queue.append((g[a], g[b]))
    size = sum(1 for i in range(n) if find(i) == find(alpha))
    return size


def is_primitive(G: PermGroup) -> bool:
    """Transitive with no nontrivial block system.

    Intransitive groups report False by convention.  Tested by computing, for
    every beta != alpha, the minimal block containing {alpha, beta}.
    """
    n = G.degree
    if not is_transitive(G):
        return False
    if n == 1:
        return True
    gens = G.generator_tuples()
    for beta in range(1, n):
        if _minimal_block_size(gens, n, 0, beta) < n:
            return False
    return True


def _order_from_generators(G: PermGroup) -> int | None:
    """|G| read off the generators, with no chain, where a rule answers:

    * no generator: G is trivial, of order 1;
    * one generator g: G is cyclic, of order the lcm of g's cycle lengths;
    * a generator that is a transposition or a 3-cycle, in a primitive G:
      G contains A_n (Jordan; Wielandt, Thm 13.3), so |G| is n!, or n!/2
      when every generator is even.

    None when no rule answers.
    """
    gens = G.generator_tuples()
    if len(gens) <= 1:
        return math.lcm(*_cycle_lengths(gens[0])) if gens else 1
    n = G.degree
    if not any(sum(p != q for p, q in enumerate(g)) in (2, 3) for g in gens):
        return None
    if not is_primitive(G):
        return None
    # g is even exactly when n minus its number of cycles is even
    if any((n - len(_cycle_lengths(g))) % 2 for g in gens):
        return math.factorial(n)
    return math.factorial(n) // 2


def transitivity_degree(G: PermGroup) -> int:
    """Largest k with G transitive on ordered k-tuples of distinct points.

    Read off a stabilizer chain with forced base 0,1,2,...: G is k-transitive
    iff the successive basic orbits have sizes n, n-1, ..., n-k+1.
    """
    n = G.degree
    chain = _Chain(G.generator_tuples(), n, forced_base=range(n))
    k = 0
    for i, t in enumerate(chain.trans[:n]):
        if len(t) == n - i:
            k += 1
        else:
            break
    return k
