#!/usr/bin/env python3
"""Build the shipped group database (src/setorbits/data/groups.cat).

Every generator set is produced from a first-principles construction:

* projective actions of PSL/PGL/PSigmaL/PGammaL(2, q) and M_10 on the
  projective line over GF(q), each generator one ``mobius`` map, with
  field arithmetic done here;
* affine actions (translations plus a point stabilizer) over GF(q), the
  Moebius maps that fix infinity, and over the vector spaces GF(2)^3,
  GF(3)^2;
* linear actions of GL(3,2), SL(2,3), GL(2,3) on nonzero vectors;
* coset actions for the exceptional 11- and 12-point representations of
  PSL(2,11) and M_11;
* wreath-type embeddings for the imprimitive groups the reference tables
  need;
* the subgroup-closure walk ``setorbits.subgroups.subgroup_classes``, run
  by ``closure_entries`` over the wreath products S_k wr S_m with
  k*m = 4, 6, 8, 9 for the imprimitive transitive groups, and over the
  Young subgroups S_a x S_b with a + b = 4..7 for the groups with two
  orbits and no fixed point; no S_n is walked.

No group with a fixed point is written out: ``catalog.by_id("<id>+1")``
builds entry ``<id>`` padded by one, so each group is shipped once.

A construction's list of three or more generators is shipped as the first
pair of its ``words`` that generates a group of the same order, where one
does (``reduced``).  The words are the generators, then the product of
each run g_i, ..., g_j of two or more consecutive generators, g_i applied
first; pairs are tried in ``itertools.combinations`` order.  Both words of
a pair lie in G = <gens>, so they generate a subgroup of G, and one of
order |G| is G: no group changes.  Every count of the group then walks
each mask, and every chain build sifts each orbit point, with two
generators instead of three to eight.  38 of the 51 longer lists reduce;
the 13 kept (the degree-8 2-groups 8X*, 6S35 and 9X8) have no generating
pair among their words.

Each group becomes a ``catalog.CatalogEntry`` with the tags
``catalog.structure_tags`` gives it, and is verified on the spot by
``catalog.verify_entry`` (order, tags, set-orbit count) and, up to degree
12, against the independent subset-orbit enumeration
``profile_from_enumeration``.  ``catalog.format_entry`` writes the lines;
before the file is written, ``parse_catalog`` must read the text back as
the same entries and ``check_manifest`` must find it complete.  The run
takes about 17 s on one core of a 2-core host, of which the pair search
takes about 0.2 s; rerunning it reproduces the shipped file byte for byte.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from collections.abc import Sequence
from itertools import combinations, count, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from setorbits.catalog import (
    TRANSITIVE_COUNTS,
    CatalogEntry,
    builtin,
    check_manifest,
    format_entry,
    parse_catalog,
    structure_tags,
    verify_entry,
)
from setorbits.orbitcount import count_set_orbits, profile_from_enumeration
from setorbits.pipeline import MAX_R
from setorbits.perm import PermGroup, Permutation, _Chain, build_group
from setorbits.subgroups import canonical_key, conjugate_in_sn, subgroup_classes

OUT = Path(__file__).resolve().parent.parent / "src" / "setorbits" / "data" / "groups.cat"


# ---------------------------------------------------------------------------
# tiny finite fields

class GF:
    """GF(p^k) with elements encoded as integers 0 .. p^k - 1 (base-p digits
    of the coefficient vector, lowest degree first)."""

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] = ()):
        # modulus: coefficients of the degree-k defining polynomial, lowest
        # first, leading 1 implied; e.g. x^3 + x + 1 -> (1, 1, 0)
        self.p, self.k, self.q = p, k, p**k
        self.modulus = modulus
        assert k == 1 or len(modulus) == k

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.k):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def _undigits(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d % self.p
        return v

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for deg in range(2 * self.k - 2, self.k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j, m in enumerate(self.modulus):
                    prod[deg - self.k + j] = (prod[deg - self.k + j] - c * m) % self.p
        return self._undigits(prod[:self.k])

    def inv(self, a: int) -> int:
        assert a != 0
        # brute force is fine at these sizes
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ArithmeticError

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def generator(self) -> int:
        """A multiplicative generator of GF(q)^*."""
        for g in range(2, self.q):
            seen = {1}
            x = g
            while x != 1:
                seen.add(x)
                x = self.mul(x, g)
            if len(seen) == self.q - 1:
                return g
        raise ArithmeticError


F5 = GF(5)
F7 = GF(7)
F11 = GF(11)
F8 = GF(2, 3, (1, 1, 0))   # x^3 = x + 1
F9 = GF(3, 2, (1, 0))      # x^2 = -1


# ---------------------------------------------------------------------------
# constructions

def mobius(F: GF, a: int, b: int, c: int = 0, d: int = 1,
           frobenius: bool = False) -> Permutation:
    """x -> (a x^s + b) / (c x^s + d) on P^1(GF(q)) = [0..q-1, oo], where
    x^s is x^p with ``frobenius`` and x otherwise; oo is point q."""
    q = F.q

    def image(x):
        if x == q:
            return q if c == 0 else F.mul(a, F.inv(c))
        y = F.pow(x, F.p) if frobenius else x
        den = F.add(F.mul(c, y), d)
        return q if den == 0 else F.mul(F.add(F.mul(a, y), b), F.inv(den))

    return Permutation([image(x) for x in range(q + 1)])


def psl2(F: GF) -> list[Permutation]:
    """x + 1, x -> g^2 x and x -> -1/x, for g a generator of GF(q)^*."""
    g = F.generator()
    return [mobius(F, 1, 1), mobius(F, F.mul(g, g), 0), mobius(F, 0, F.neg(1), 1, 0)]


def pgl2(F: GF) -> list[Permutation]:
    return psl2(F) + [mobius(F, F.generator(), 0)]


def psigmal2(F: GF) -> list[Permutation]:
    return psl2(F) + [mobius(F, 1, 0, frobenius=True)]


def pgammal2(F: GF) -> list[Permutation]:
    return pgl2(F) + [mobius(F, 1, 0, frobenius=True)]


def m10_maps(F: GF) -> list[Permutation]:
    """PSL(2,9) extended by (scalar g) o Frobenius: the M_10 coset."""
    return psl2(F) + [mobius(F, F.generator(), 0, frobenius=True)]


def affine_line(F: GF, scalars: Sequence[int],
                frobenius_twists: Sequence[int] = ()) -> list[Permutation]:
    """Subgroup of AGammaL(1, q) on the q affine points: the Moebius maps
    with c = 0, which fix oo, with oo dropped.

    Generated by the translation x+1, for k > 1 also x+p (p is the basis
    element x of GF(p^k)), the maps x -> c x for c in scalars and x -> c x^p
    for c in frobenius_twists.
    """
    maps = [mobius(F, 1, 1)] + [mobius(F, 1, F.p)] * (F.k > 1)
    maps += [mobius(F, c, 0) for c in scalars]
    maps += [mobius(F, c, 0, frobenius=True) for c in frobenius_twists]
    return [Permutation(m.images[:F.q]) for m in maps]


def vector_points(p: int, dim: int, nonzero: bool) -> list[tuple[int, ...]]:
    pts = list(product(range(p), repeat=dim))
    if nonzero:
        pts = [v for v in pts if any(v)]
    return pts


def linear_group(p: int, dim: int, mats: list[tuple[tuple[int, ...], ...]],
                 nonzero: bool, translations: bool = False) -> list[Permutation]:
    """Action of <mats> (plus optional translations) on GF(p)^dim."""
    pts = vector_points(p, dim, nonzero)
    index = {v: i for i, v in enumerate(pts)}
    gens = []
    if translations:
        for d in range(dim):
            e = tuple(1 if i == d else 0 for i in range(dim))
            img = [index[tuple((v[i] + e[i]) % p for i in range(dim))] for v in pts]
            gens.append(Permutation(img))
    for M in mats:
        img = []
        for v in pts:
            w = tuple(sum(M[i][j] * v[j] for j in range(dim)) % p
                      for i in range(dim))
            img.append(index[w])
        gens.append(Permutation(img))
    return gens


GL32_MATS = [((1, 1, 0), (0, 1, 0), (0, 0, 1)),
             ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
SL23_MATS = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
GL23_MATS = SL23_MATS + [((2, 0), (0, 1))]


def coset_action(gens: list[Permutation], sub: frozenset, n: int) -> list[Permutation]:
    """Action of <gens> on the left cosets of the subgroup with element set
    ``sub``; cosets are numbered by breadth-first discovery from ``sub``."""
    gts = [g.images for g in gens]
    cosets = [sub]
    index = {sub: 0}
    reps = [tuple(range(n))]
    pos = 0
    while pos < len(cosets):
        rep = reps[pos]
        pos += 1
        for g in gts:
            x = tuple(map(g.__getitem__, rep))  # g o rep
            coset = frozenset(tuple(map(x.__getitem__, h)) for h in sub)
            if coset not in index:
                index[coset] = len(cosets)
                cosets.append(coset)
                reps.append(x)
    m = len(cosets)
    out = []
    for g in gts:
        img = []
        for i in range(m):
            x = tuple(map(g.__getitem__, reps[i]))
            coset = frozenset(tuple(map(x.__getitem__, h)) for h in sub)
            img.append(index[coset])
        out.append(Permutation(img))
    return out


def find_subgroup_of_order(G: PermGroup, order: int, seed: int) -> frozenset:
    """Deterministic random search for a subgroup of the given order,
    generated by two elements."""
    rng = random.Random(seed)
    elems = sorted(G.iter_element_tuples())
    for _ in range(100000):
        a, b = rng.choice(elems), rng.choice(elems)
        ch = _Chain([a, b], G.degree)
        if ch.order == order:
            return frozenset(ch.iter_elements())
    raise RuntimeError(f"no subgroup of order {order} found")


def wreath(k: int, m: int) -> list[Permutation]:
    """S_k wr S_m on the m blocks {ik+1, ..., ik+k}: a k-cycle and a
    transposition inside every block, then an m-cycle and a transposition of
    whole blocks (a transposition is left out where it equals its cycle)."""
    blocks = [range(b * k + 1, b * k + k + 1) for b in range(m)]
    columns = list(zip(*blocks))

    def word(cycles) -> Permutation:
        return cyc("".join(f"({','.join(map(str, c))})" for c in cycles), k * m)

    gens = []
    for b in blocks:
        gens += [word([b]), word([b[:2]])][:1 if k == 2 else 2]
    return gens + [word(columns), word(c[:2] for c in columns)][:1 if m == 2 else 2]


#: the classes ``closure_entries`` derives, by kind, degree and (order,
#: set-orbit count), in the order it sorts them; an ID that is not an X-ID is
#: the group's row label in the reference tables (data/tables/r*.tsv), which
#: the record itself does not repeat.  The transitive kind ships every class
#: of degrees 4, 6 and 8, an unnamed one as "T(n) order ... s=..." under the
#: next free X-ID, and of degree 9 only the classes named here.  Where two
#: classes share a signature, a name with a third field goes to the class
#: whose centre is nontrivial (True) or trivial (False), and the others go
#: by position.
CLOSURE_NAMES = {
    "transitive": {
        4: {(4, 6): [("4T1", "C4")], (4, 7): [("4T2", "C2xC2")],
            (8, 6): [("4T3", "D8")]},
        6: {(6, 14): [("6S17", "C6")], (6, 16): [("6X4", "S3")],
            (12, 12): [("6S31", "A4")], (12, 13): [("6S33", "D12")],
            (18, 10): [("6T5", "C3xS3")],
            (24, 11): [("6T6", "C2xA4", True), ("6T7", "S4", False)],
            (24, 10): [("6T8", "S4")],
            (36, 10): [("6T9", "S3xS3"), ("6T10", "C3^2:C4")],
            (48, 10): [("6T11", "C2xS4")], (72, 10): [("6T13", "C3^2:D8")]},
        8: {(24, 19): [("8S154", "SL(2,3)")], (48, 18): [("8S216", "GL(2,3)")],
            (96, 17): [("8S240", "2^4:C3:C2")],
            (288, 15): [("8T42", "2^4:C3:C2:C3")],
            (384, 15): [("8T44", "2^4:C2:C2:C3:C2")],
            (1152, 15): [("8T47", "(S4xS4):C2")]},
        9: {(162, 20): [("9X7", "wreath block group order 162 #1"),
                        ("9X8", "wreath block group order 162 #2")],
            (324, 20): [("9S497", "3^3:C3:(C2xC2)")],
            (648, 20): [("9X9", "wreath block group order 648 #1"),
                        ("9X10", "wreath block group order 648 #2")]},
    },
    "two-orbit": {
        4: {(2, 10): [("4S2", "C2")], (4, 9): [("4S6", "C2xC2")]},
        5: {(6, 12): [("5S10", "S3", False), ("5S11", "C6", True)],
            (12, 12): [("5S15", "D12")]},
        6: {(9, 16): [("6S28", "C3xC3")],
            (18, 16): [("6S35", "(C3xC3):C2", False), ("6S37", "C3xS3", True)],
            (24, 15): [("6S40", "C2xA4", True), ("6S41", "S4", False)],
            (36, 16): [("6S45", "S3xS3")], (48, 15): [("6S49", "C2xS4")]},
        7: {(40, 18): [("7S75", "C2x(C5:C4)")],
            (120, 18): [("7S87", "S5", False), ("7S88", "C2xA5", True)],
            (240, 18): [("7S92", "C2xS5")]},
    },
}


def young(a: int, b: int) -> list[Permutation]:
    """S_a x S_b on the orbits {1..a} and {a+1..a+b}: a cycle and a
    transposition on each (a transposition is left out where it equals its
    cycle)."""
    def sym_on(lo: int, k: int) -> list[Permutation]:
        pts = ",".join(map(str, range(lo, lo + k)))
        return [cyc(f"({pts})", a + b), cyc(f"({lo},{lo + 1})", a + b)][:1 if k == 2 else 2]

    return sym_on(1, a) + sym_on(a + 1, b)


def has_centre(G: PermGroup) -> bool:
    """Whether some element other than the identity commutes with every
    generator."""
    gens = [g.images for g in G.generators]
    return any(any(x[i] != i for i in range(G.degree))
               and all(x[g[i]] == g[x[i]] for g in gens for i in range(G.degree))
               for x in G.iter_element_tuples())


def _parents(n: int, kind: str) -> list[tuple[str, PermGroup]]:
    """The closures every group of the kind is S_n-conjugate into: for the
    transitive kind, S_k wr S_m for each block shape n = m*k; for the
    two-orbit kind, S_a x S_b for each pair of orbits with
    (a + 1)(b + 1) <= n + MAX_R, the orbit-shape floor of s."""
    if kind == "transitive":
        return [(f"S{k} wr S{n // k}", build_group(wreath(k, n // k)))
                for k in range(2, n) if n % k == 0]
    return [(f"S{a} x S{n - a}", build_group(young(a, n - a)))
            for a in range(2, n // 2 + 1) if (a + 1) * (n - a + 1) <= n + MAX_R]


def closure_entries(n: int, kind: str,
                    entries: list[CatalogEntry]) -> list[CatalogEntry]:
    """The groups of degree n of one kind, one per S_n-class: "transitive"
    gives the imprimitive transitive groups, "two-orbit" the groups with two
    orbits, no fixed point and s <= n + MAX_R.

    A block system of m blocks of size k puts a group inside a conjugate of
    S_k wr S_m, and orbits of sizes a and b put it inside a conjugate of
    S_a x S_b, so every such group is S_n-conjugate to a subgroup class of
    one of ``_parents``: a transitive class of a wreath product, or a class
    of a Young subgroup whose orbits are its two parts.  The classes are
    fused under S_n by (order, s) and ``conjugate_in_sn``, keeping the first
    one walked, and sorted by (order, canonical key under S_n), the order of
    ``subgroup_classes(S_n)``.  A transitive group is not primitive, since
    it keeps the blocks of its wreath.  Transitive degrees outside
    TRANSITIVE_COUNTS keep only the signatures CLOSURE_NAMES lists.
    ``entries`` (the ones built so far) fixes the next free X-ID.
    """
    names = CLOSURE_NAMES[kind][n]
    fused: dict[tuple[int, int], list[PermGroup]] = {}
    for label, parent in _parents(n, kind):
        t0 = time.time()
        classes = subgroup_classes(parent)
        print(f"{label}: {len(classes)} subgroup classes "
              f"({time.time() - t0:.1f}s)", flush=True)
        for c in classes:
            G = c.representative
            if kind not in structure_tags(G):
                continue
            sig = (c.order, count_set_orbits(G))
            if kind == "transitive" and n not in TRANSITIVE_COUNTS and sig not in names:
                continue
            if kind == "two-orbit" and sig[1] > n + MAX_R:
                continue
            reps = fused.setdefault(sig, [])
            if all(conjugate_in_sn(R, G) is None for R in reps):
                reps.append(G)
    sn = builtin("symmetric", n)
    ordered = sorted(((G.order, canonical_key(G, sn), s, G)
                      for (_, s), reps in fused.items() for G in reps),
                     key=lambda t: t[:2])
    named = {}
    for sig, cited in names.items():
        at = [i for i, (order, _, s, _) in enumerate(ordered) if (order, s) == sig]
        assert len(at) >= len(cited), (sig, len(at))
        if len(cited[0]) == 3:
            by_centre = {has_centre(ordered[i][3]): i for i in at}
            assert len(by_centre) == len(at) == len(cited), sig
            at = [by_centre[central] for _, _, central in cited]
        named.update((i, c[:2]) for i, c in zip(at, cited))
    free_x = count(1 + sum(e.id.startswith(f"{n}X") for e in entries))
    seen: Counter = Counter()
    out = []
    for i, (order, _, s, G) in enumerate(ordered):
        seen[order, s] += 1
        j = seen[order, s]
        if i in named:
            ident, name = named[i]
        else:
            assert kind == "transitive", (order, s)
            ident = f"{n}X{next(free_x)}"
            name = f"T({n}) order {order} s={s}" + (f" #{j}" if j > 1 else "")
        out.append(entry(ident, name, G.generators, order, s=s))
        assert "primitive" not in out[-1].tags
    return out


def pair_action(gens: list[Permutation]) -> list[Permutation]:
    """Induced action on unordered pairs of points."""
    n = gens[0].degree
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    out = []
    for g in gens:
        img = [index[tuple(sorted((g.images[a], g.images[b])))]
               for a, b in pairs]
        out.append(Permutation(img))
    return out


def cyc(text: str, n: int) -> Permutation:
    return Permutation.parse(text, n)


# ---------------------------------------------------------------------------
# entry assembly

def words(gens: Sequence[Permutation]) -> list[Permutation]:
    """The generators g_0, ..., g_(k-1), then for each i and each j > i the
    product of the run g_i, g_(i+1), ..., g_j, with g_i applied first."""
    out = list(gens)
    for i, g in enumerate(gens):
        run = g
        for h in gens[i + 1:]:
            run = h * run
            out.append(run)
    return out


def reduced(gens: Sequence[Permutation]) -> list[Permutation]:
    """A list of three or more generators replaced by the first pair of
    ``words`` (in ``combinations`` order) that generates a group of the same
    order; the list itself when it is shorter, or when no pair does.

    Both words of a pair are products of the generators, so they generate a
    subgroup H of G = <gens>; when |H| = |G|, H = G."""
    gens = list(gens)
    if len(gens) < 3:
        return gens
    n = gens[0].degree
    order = _Chain((g.images for g in gens), n).order
    for pair in combinations(words(gens), 2):
        if _Chain((g.images for g in pair), n).order == order:
            return list(pair)
    return gens


def entry(ident, name, gens, order, s=None) -> CatalogEntry:
    """The entry of the group ``gens`` generate, shipped on the generators
    ``reduced`` gives, with the tags it earns; its set-orbit count, when not
    given, is counted.  ``verify_entry`` checks the order and s, and up to
    degree 12 the bit-by-bit enumeration checks s."""
    gens = reduced(gens)
    G = build_group(gens)
    if s is None:
        s = count_set_orbits(G)
    e = CatalogEntry(ident, G.degree, name, order, structure_tags(G),
                     tuple(gens), s)
    failures = verify_entry(e)
    assert not failures, (ident, failures)
    if e.degree <= 12:
        check = profile_from_enumeration(G).total
        assert check == s, f"{ident}: enumeration gives {check}"
    return e


def main():
    t_start = time.time()
    entries: list[CatalogEntry] = []
    add = entries.append

    def sym(n):
        return builtin("symmetric", n).generators

    def alt(n):
        return builtin("alternating", n).generators

    # ---- degrees 1..5: all primitive groups, the transitive degree 4 and
    # the two-orbit degrees 4 and 5 -----------------------------------------
    add(entry("1P1", "e", [cyc("()", 1)], 1, s=2))
    add(entry("2P1", "S2", [cyc("(1,2)", 2)], 2, s=3))
    add(entry("3P1", "C3", [cyc("(1,2,3)", 3)], 3, s=4))
    add(entry("3P2", "S3", sym(3), 6, s=4))
    add(entry("4P1", "A4", alt(4), 12, s=5))
    add(entry("4P2", "S4", sym(4), 24, s=5))
    entries += closure_entries(4, "transitive", entries)
    entries += closure_entries(4, "two-orbit", entries)
    add(entry("5P1", "C5", [cyc("(1,2,3,4,5)", 5)], 5, s=8))
    add(entry("5P2", "D10", [cyc("(1,2,3,4,5)", 5), cyc("(2,5)(3,4)", 5)], 10, s=8))
    add(entry("5P3", "AGL(1,5)", [cyc("(1,2,3,4,5)", 5), cyc("(2,3,5,4)", 5)], 20, s=6))
    add(entry("5P4", "A5", alt(5), 60, s=6))
    add(entry("5P5", "S5", sym(5), 120, s=6))
    entries += closure_entries(5, "two-orbit", entries)

    # ---- degree 6 --------------------------------------------------------
    add(entry("6P1", "PSL(2,5)", psl2(F5), 60, s=8))
    add(entry("6X1", "PGL(2,5)", pgl2(F5), 120, s=7))
    add(entry("6X2", "A6", alt(6), 360, s=7))
    add(entry("6X3", "S6", sym(6), 720, s=7))
    entries += closure_entries(6, "transitive", entries)
    entries += closure_entries(6, "two-orbit", entries)

    # ---- degree 7 --------------------------------------------------------
    add(entry("7P1", "C7", [cyc("(1,2,3,4,5,6,7)", 7)], 7, s=20))
    add(entry("7P2", "D14", [cyc("(1,2,3,4,5,6,7)", 7), cyc("(2,7)(3,6)(4,5)", 7)],
              14, s=18))
    add(entry("7P3", "C7:C3", affine_line(F7, [2]), 21, s=12))
    add(entry("7P4", "AGL(1,7)", affine_line(F7, [3]), 42, s=10))
    add(entry("7P5", "PSL(3,2)", linear_group(2, 3, GL32_MATS, nonzero=True),
              168, s=10))
    add(entry("7X1", "A7", alt(7), 2520, s=8))
    add(entry("7X2", "S7", sym(7), 5040, s=8))
    entries += closure_entries(7, "two-orbit", entries)

    # ---- degree 8: primitive ---------------------------------------------
    g8 = F8.generator()
    add(entry("8P1", "AGL(1,8)", affine_line(F8, [g8]), 56, s=10))
    add(entry("8P2", "AGammaL(1,8)", affine_line(F8, [g8], [1]),
              168, s=10))
    add(entry("8P3", "ASL(3,2)", linear_group(2, 3, GL32_MATS, nonzero=False,
                                              translations=True),
              1344, s=10))
    add(entry("8P4", "PSL(2,7)", psl2(F7), 168, s=11))
    add(entry("8P5", "PGL(2,7)", pgl2(F7), 336, s=10))
    add(entry("8X1", "A8", alt(8), 20160, s=9))
    add(entry("8X2", "S8", sym(8), 40320, s=9))

    # ---- degree 8: imprimitive transitive ---------------------------------
    entries += closure_entries(8, "transitive", entries)

    # ---- degree 9: primitive ----------------------------------------------
    g9 = F9.generator()
    sq9 = F9.mul(g9, g9)
    add(entry("9X1", "3^2:4", affine_line(F9, [sq9]), 36))
    add(entry("9X2", "3^2:D8", affine_line(F9, [sq9], [1]), 72))
    add(entry("9T15", "AGL(1,9)", affine_line(F9, [g9]), 72, s=16))
    add(entry("9S370", "3^2:Q8", affine_line(F9, [sq9], [g9]),
              72, s=18))
    add(entry("9T19", "AGammaL(1,9)", affine_line(F9, [g9], [1]),
              144, s=16))
    add(entry("9P6", "ASL(2,3)", linear_group(3, 2, SL23_MATS, nonzero=False,
                                              translations=True),
              216, s=14))
    add(entry("9P7", "AGL(2,3)", linear_group(3, 2, GL23_MATS, nonzero=False,
                                              translations=True),
              432, s=14))
    add(entry("9X3", "PSL(2,8)", psl2(F8), 504, s=10))
    add(entry("9X4", "PGammaL(2,8)", pgammal2(F8), 1512, s=10))
    add(entry("9X5", "A9", alt(9), 181440, s=10))
    add(entry("9X6", "S9", sym(9), 362880, s=10))

    # ---- degree 9: S3 wr S3 and its cited subgroups -----------------------
    add(entry("9S534", "S3wrS3", wreath(3, 3), 1296, s=20))
    entries += closure_entries(9, "transitive", entries)

    # ---- degree 10: primitive ---------------------------------------------
    add(entry("10X1", "A5 (pairs)", pair_action(alt(5)), 60))
    add(entry("10X2", "S5 (pairs)", pair_action(sym(5)), 120))
    add(entry("10S1396", "A6=PSL(2,9)", psl2(F9), 360, s=20))
    add(entry("10P4", "PGL(2,9)", pgl2(F9), 720, s=14))
    add(entry("10T32", "PSigmaL(2,9)=S6", psigmal2(F9), 720, s=19))
    add(entry("10P6", "M10", m10_maps(F9), 720, s=15))
    add(entry("10P7", "PGammaL(2,9)", pgammal2(F9), 1440, s=14))
    add(entry("10X3", "A10", alt(10), 1814400, s=11))
    add(entry("10X4", "S10", sym(10), 3628800, s=11))

    # ---- degree 10: wreath-type groups ------------------------------------
    u = cyc("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)
    f20a = [cyc("(1,2,3,4,5)", 10), cyc("(2,3,5,4)", 10)]
    f20b = [cyc("(6,7,8,9,10)", 10), cyc("(7,8,10,9)", 10)]
    add(entry("10S1496", "AGL(1,5)wrC2", f20a + f20b + [u], 800, s=21))
    a5a = [cyc("(1,2,3)", 10), cyc("(1,2,3,4,5)", 10)]
    a5b = [cyc("(6,7,8)", 10), cyc("(6,7,8,9,10)", 10)]
    add(entry("10S1569", "(A5xA5):C2", a5a + a5b + [u], 7200, s=21))
    # the Klein extension adjoins the block swap u and an (odd, odd) pair
    # separately; the cyclic one adjoins w with w^2 = (1,2)(6,7), an (odd,
    # odd) element, so its quotient over A5 x A5 is C4
    tpair = cyc("(1,2)(6,7)", 10)
    w4 = cyc("(1,6,2,7)(3,8)(4,9)(5,10)", 10)
    add(entry("10S1576", "(A5xA5):(C2xC2)", a5a + a5b + [u, tpair], 14400,
              s=21))
    add(entry("10S1577", "(A5xA5):C4", a5a + a5b + [w4], 14400, s=21))
    add(entry("10S1584", "S5wrC2",
              [cyc("(1,2)", 10), cyc("(1,2,3,4,5)", 10),
               cyc("(6,7)", 10), cyc("(6,7,8,9,10)", 10), u], 28800, s=21))
    # blocks of size 2: base flips b_i = (2i-1, 2i), top S5 on the blocks.
    # Of the three index-2 subgroups of S2 wr S5 the tables cite the twisted
    # one (base flip parity = block permutation parity) and 2^5:A5; the
    # even-base 2^4:S5 has s = 22 and is not a table group.
    b1 = cyc("(1,2)", 10)
    b12 = cyc("(1,2)(3,4)", 10)
    top_t = cyc("(1,3)(2,4)", 10)
    top_c = cyc("(1,3,5,7,9)(2,4,6,8,10)", 10)
    top_3 = cyc("(1,3,5)(2,4,6)", 10)
    add(entry("10S1542", "2^4:S5 (twisted)", [b12, top_c, b1 * top_t], 1920,
              s=21))
    add(entry("10S1543", "C2x(2^4:A5)", [b1, top_3, top_c], 1920, s=21))
    add(entry("10S1561", "C2x(2^4:S5)", [b1, top_t, top_c], 3840, s=21))

    # ---- degree 11 ---------------------------------------------------------
    add(entry("11X1", "C11", [cyc("(1,2,3,4,5,6,7,8,9,10,11)", 11)], 11))
    add(entry("11X2", "D22", [cyc("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                              cyc("(2,11)(3,10)(4,9)(5,8)(6,7)", 11)], 22))
    add(entry("11X3", "11:5", affine_line(F11, [3]), 55))
    add(entry("11X4", "AGL(1,11)", affine_line(F11, [2]), 110))
    psl211_12 = psl2(F11)
    G12 = build_group(psl211_12)
    assert G12.order == 660
    a5_in = find_subgroup_of_order(G12, 60, seed=11)
    psl211_11 = coset_action(psl211_12, a5_in, 12)
    add(entry("11X5", "PSL(2,11) deg 11", psl211_11, 660))
    m11 = [cyc("(1,2,3,4,5,6,7,8,9,10,11)", 11), cyc("(3,7,11,8)(4,10,5,6)", 11)]
    add(entry("11P6", "M11", m11, 7920, s=14))
    add(entry("11X6", "A11", alt(11), 19958400, s=12))
    add(entry("11X7", "S11", sym(11), 39916800, s=12))

    # ---- degree 12 ---------------------------------------------------------
    M11g = build_group(m11)
    psl_in_m11 = find_subgroup_of_order(M11g, 660, seed=12)
    m11_12 = coset_action(m11, psl_in_m11, 11)
    add(entry("12P1", "M11 deg 12", m11_12, 7920, s=19))
    m12 = [cyc("(1,2,3,4,5,6,7,8,9,10,11)", 12), cyc("(3,7,11,8)(4,10,5,6)", 12),
           cyc("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)]
    add(entry("12P2", "M12", m12, 95040, s=14))
    add(entry("12T179", "PSL(2,11)", psl2(F11), 660, s=22))
    add(entry("12T218", "PGL(2,11)", pgl2(F11), 1320, s=20))
    add(entry("12X1", "A12", alt(12), 239500800, s=13))
    add(entry("12X2", "S12", sym(12), 479001600, s=13))

    # ---- structural cross-checks ------------------------------------------
    for e in entries:
        flags = ("P" if "primitive" in e.tags else "") + (
            "T" if "transitive" in e.tags else "")
        print(f"  {e.id:10s} deg={e.degree:2d} order={e.expected_order:<9d} "
              f"s={e.expected_s:<3d} {flags:2s} {e.name}")
    text = "\n".join([HEADER] + [format_entry(e) for e in entries]) + "\n"
    assert parse_catalog(text) == entries
    problems = check_manifest(entries)
    assert not problems, problems
    OUT.write_text(text, encoding="utf-8")
    print(f"manifest OK; wrote {OUT} with {len(entries)} entries "
          f"({time.time() - t_start:.0f}s total)")


HEADER = """\
# Permutation group database: generators in cycle notation over {1..degree}.
# id|degree|name|order|tags|generators|set-orbit count
#
# Sources: projective/affine/linear actions over small finite fields, coset
# actions, wreath embeddings, the transitive subgroup classes of the wreath
# products S_k wr S_m (k*m = 4, 6, 8, 9) and the two-orbit subgroup classes
# of the Young subgroups S_a x S_b (a + b = 4..7), fused under S_n.  No
# entry of degree >= 2 has a fixed point: "<id>+1" is entry <id> padded by
# one.  A construction's list of three or more generators is replaced by
# the first pair of products of its consecutive generators that generates
# the same group, where one does.
# Regenerate with scripts/derive_catalog.py; every entry is re-verified by
# the test suite (order, transitivity, primitivity, two-orbit shape,
# set-orbit count).\
"""


if __name__ == "__main__":
    main()
