#!/usr/bin/env python3
"""Build the shipped group database (src/setorbits/data/groups.cat).

Every generator set is produced from a first-principles construction:

* one construction of each maximal primitive group of degrees 5-12 that
  ``catalog.PRIMITIVE_MAXIMA`` lists (``MAXIMA``): PGL/PGammaL(2, q) on
  the projective line over GF(q), each generator one ``mobius`` map, with
  field arithmetic done here; AGL(1, p) over a prime field, the Moebius
  maps that fix infinity; the linear actions of GL(3,2) on the nonzero
  vectors of GF(2)^3 and of AGL(3,2), AGL(2,3) on GF(2)^3, GF(3)^2; and
  stated generators for M_11 and M_12 (each the one primitive group of its
  order and degree, so ``verify_entry`` certifies it);
* the subgroup-closure walk ``setorbits.subgroups.subgroup_classes``, run
  by ``closure_entries`` over the maxima for the primitive groups of
  degrees 5-12 other than A_n and S_n, over the wreath products
  S_k wr S_m with k*m = 4, 6, 8, 9, 10 for the imprimitive transitive
  groups, and over the Young subgroups S_a x S_b with a + b = 4..7 for the
  groups with two orbits and no fixed point; no S_n is walked.  Where the
  groups needed all hold a conjugate of one element, the walk starts above
  it (``SEEDS``): at degree 12, both maxima above an 11-cycle; at degree
  10, S2 wr S5 above (1,3,5,7,9)(2,4,6,8,10) and S5 wr S2 above
  (1,2,3,4,5)(6,7,8,9,10), each of cycle type 5^2, which every transitive
  group of degree 10 holds.  The catalog's tables decide the degrees
  walked: a primitive closure at each degree of ``PRIMITIVE_MAXIMA``, a
  transitive or two-orbit closure at each degree ``CLOSURE_NAMES`` lists
  for that kind, which holds every degree ``catalog.MANIFEST`` counts.
  ``CLOSURE_NAMES`` names the classes, each by its place among those of
  its (order, s) in ``closure_entries``' sort.  At a counted degree every
  class ships; at degree 10, which ``catalog.TRANSITIVE_COUNTS`` does not
  count, only the eight table groups it names do, of 36 classes.

So every entry of degrees 4-12 is a class of a closure walk, or A_n or S_n.

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
generators instead of three to eight.  The 15 lists kept (the degree-8
2-groups 8X*, 6S35, and 9X14, 9X19 and 9X8) have no generating pair among
their words.

Each group becomes a ``catalog.CatalogEntry`` with the tags
``catalog.structure_tags`` gives it, and is verified on the spot by
``catalog.verify_entry`` (order, tags, set-orbit count) and, up to degree
12, against the independent subset-orbit enumeration
``profile_from_enumeration``.  ``catalog.format_entry`` writes the lines;
before the file is written, ``parse_catalog`` must read the text back as
the same entries and ``check_manifest`` must find it complete; each check
raises, so ``python -O`` keeps it.  The run takes 14-15 s at a 160 MB
peak on a shared 2-core host, as its last line reports, of which the
walks of the maxima take about 6 s (M_12 above its 11-cycle about 3 s),
those of S2 wr S4, S4 wr S2 and S3 wr S3 about 2.5 s, and those of degree
10 about 6 s (S5 wr S2 above its seed 5-6 s, 51 classes; S2 wr S5 0.3-0.4
s, 26 classes); rerunning it reproduces the shipped file byte for byte.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import combinations, count, product
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from setorbits.catalog import (
    MANIFEST,
    PRIMITIVE_MAXIMA,
    TWO_ORBIT_MAX_EXCESS,
    CatalogEntry,
    builtin,
    check_manifest,
    format_entry,
    parse_catalog,
    structure_tags,
    verify_entry,
)
from setorbits.orbitcount import count_set_orbits, profile_from_enumeration
from setorbits.perm import PermGroup, Permutation, build_group
from setorbits.subgroups import SubgroupClass, conjugate_in_sn, subgroup_classes

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


def pgammal2(F: GF) -> list[Permutation]:
    return pgl2(F) + [mobius(F, 1, 0, frobenius=True)]


def affine_line(F: GF) -> list[Permutation]:
    """AGL(1, p) on the p points of the prime field GF(p): the translation
    x + 1 and x -> g x for g a generator of GF(p)^*, as the Moebius maps
    that fix oo, with oo dropped."""
    maps = [mobius(F, 1, 1), mobius(F, F.generator(), 0)]
    return [Permutation(m.images[:F.q]) for m in maps]


def linear_group(p: int, dim: int, mats: list[tuple[tuple[int, ...], ...]],
                 affine: bool = False) -> list[Permutation]:
    """Action of <mats> on the nonzero vectors of GF(p)^dim, or, when
    ``affine``, of <mats> and the translations on all of GF(p)^dim."""
    pts = [v for v in product(range(p), repeat=dim) if affine or any(v)]
    index = {v: i for i, v in enumerate(pts)}
    gens = []
    if affine:
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
GL23_MATS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))]


def cyc(text: str, n: int) -> Permutation:
    return Permutation.parse(text, n)


#: a construction of each group of ``catalog.PRIMITIVE_MAXIMA``, by its id;
#: ``closure_entries`` walks them for the primitive groups of degrees 5-12
MAXIMA = {
    "5P3": affine_line(F5),
    "6X1": pgl2(F5),
    "7P4": affine_line(F7),
    "7P5": linear_group(2, 3, GL32_MATS),
    "8P3": linear_group(2, 3, GL32_MATS, affine=True),
    "8P5": pgl2(F7),
    "9P7": linear_group(3, 2, GL23_MATS, affine=True),
    "9X4": pgammal2(F8),
    "10P7": pgammal2(F9),
    "11X4": affine_line(F11),
    # M_11 on 11 points: the one primitive group of order 7920 and degree 11
    "11P6": [cyc("(1,2,3,4,5,6,7,8,9,10,11)", 11),
             cyc("(3,7,11,8)(4,10,5,6)", 11)],
    # M_12 on 12 points: the one primitive group of order 95040 and degree 12
    "12P2": [cyc("(1,2,3,4,5,6,7,8,9,10,11)", 12),
             cyc("(3,7,11,8)(4,10,5,6)", 12),
             cyc("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)],
    "12T218": pgl2(F11),
}

#: the element a closure walks above, by the label ``_parents`` gives the
#: parent: each class the walk must find holds a parent-conjugate of it.
#: - Degree 12: every primitive group other than A12 and S12 has order
#:   divisible by 11 (Dixon and Mortimer, Permutation Groups, 1996, App. B),
#:   and 11^2 does not divide 12!, so by Sylow each one that lies in a
#:   maximum contains a conjugate, under that maximum, of the group one
#:   element of order 11 generates; both maxima hold this 11-cycle.  The
#:   full walk of M_12 takes minutes and more than a gigabyte.
#: - Degree 10: in a transitive group of degree n every orbit of a Sylow
#:   p-subgroup has length divisible by the p-part of n (Wielandt, Finite
#:   Permutation Groups, 1964, Thm 3.4), so each transitive group of degree
#:   10 holds an element of cycle type 5^2.  In each wreath product these
#:   elements form one class (384 in S2 wr S5, 576 in S5 wr S2), which
#:   holds its seed.  No element of type 5^2 lies in both parents.  The full
#:   walk of S5 wr S2 takes minutes.
SEEDS = {"12P2": cyc("(1,2,3,4,5,6,7,8,9,10,11)", 12),
         "12T218": cyc("(1,2,3,4,5,6,7,8,9,10,11)", 12),
         "S2 wr S5": cyc("(1,3,5,7,9)(2,4,6,8,10)", 10),
         "S5 wr S2": cyc("(1,2,3,4,5)(6,7,8,9,10)", 10)}


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


#: the names of the classes ``closure_entries`` derives, by kind, degree and
#: (order, set-orbit count), by ascending order; it writes them in the order
#: of its own sort, not of this table.  The degrees walked are those of
#: ``catalog.PRIMITIVE_MAXIMA`` for the primitive kind and of this table for
#: the others, which holds every degree ``catalog.MANIFEST`` counts.  An ID
#: that is not an X-ID is the group's row label in the reference tables
#: (data/tables/r*.tsv), which the record itself does not repeat.  The
#: primitive kind names every class, one per signature.  At a degree the
#: manifest counts, the other kinds ship every class too; an unnamed one, of
#: the transitive kind only, ships as "T(n) order ... s=..." under the next
#: of ``free_ids``.  At transitive degree 10, which the manifest does not
#: count, only the 8 named classes ship: those the tables cite, all with
#: s = 21; the other 28 of the walk have s >= 22.  Where classes share a
#: signature, the j-th of them in the sort takes the j-th name listed.
CLOSURE_NAMES = {
    "primitive": {
        5: {(5, 8): [("5P1", "C5")], (10, 8): [("5P2", "D10")],
            (20, 6): [("5P3", "AGL(1,5)")]},
        6: {(60, 8): [("6P1", "PSL(2,5)")], (120, 7): [("6X1", "PGL(2,5)")]},
        7: {(7, 20): [("7P1", "C7")], (14, 18): [("7P2", "D14")],
            (21, 12): [("7P3", "C7:C3")], (42, 10): [("7P4", "AGL(1,7)")],
            (168, 10): [("7P5", "PSL(3,2)")]},
        8: {(56, 10): [("8P1", "AGL(1,8)")],
            (168, 10): [("8P2", "AGammaL(1,8)")],
            (168, 11): [("8P4", "PSL(2,7)")],
            (336, 10): [("8P5", "PGL(2,7)")],
            (1344, 10): [("8P3", "ASL(3,2)")]},
        9: {(36, 28): [("9X1", "3^2:4")], (72, 26): [("9X2", "3^2:D8")],
            (72, 16): [("9T15", "AGL(1,9)")], (72, 18): [("9S370", "3^2:Q8")],
            (144, 16): [("9T19", "AGammaL(1,9)")],
            (216, 14): [("9P6", "ASL(2,3)")], (432, 14): [("9P7", "AGL(2,3)")],
            (504, 10): [("9X3", "PSL(2,8)")],
            (1512, 10): [("9X4", "PGammaL(2,8)")]},
        10: {(60, 40): [("10X1", "A5 (pairs)")],
             (120, 34): [("10X2", "S5 (pairs)")],
             (360, 20): [("10S1396", "A6=PSL(2,9)")],
             (720, 19): [("10T32", "PSigmaL(2,9)=S6")],
             (720, 14): [("10P4", "PGL(2,9)")],
             (720, 15): [("10P6", "M10")],
             (1440, 14): [("10P7", "PGammaL(2,9)")]},
        11: {(11, 188): [("11X1", "C11")], (22, 126): [("11X2", "D22")],
             (55, 44): [("11X3", "11:5")], (110, 30): [("11X4", "AGL(1,11)")],
             (660, 24): [("11X5", "PSL(2,11) deg 11")],
             (7920, 14): [("11P6", "M11")]},
        12: {(660, 22): [("12T179", "PSL(2,11)")],
             (1320, 20): [("12T218", "PGL(2,11)")],
             (7920, 19): [("12P1", "M11 deg 12")],
             (95040, 14): [("12P2", "M12")]},
    },
    "transitive": {
        4: {(4, 6): [("4T1", "C4")], (4, 7): [("4T2", "C2xC2")],
            (8, 6): [("4T3", "D8")]},
        6: {(6, 14): [("6S17", "C6")], (6, 16): [("6X4", "S3")],
            (12, 12): [("6S31", "A4")], (12, 13): [("6S33", "D12")],
            (18, 10): [("6T5", "C3xS3")],
            (24, 11): [("6T6", "C2xA4"), ("6T7", "S4")],
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
                        ("9X10", "wreath block group order 648 #2")],
            (1296, 20): [("9S534", "S3wrS3")]},
        10: {(800, 21): [("10S1496", "AGL(1,5)wrC2")],
             (1920, 21): [("10S1543", "C2x(2^4:A5)"),
                          ("10S1542", "2^4:S5 (twisted)")],
             (3840, 21): [("10S1561", "C2x(2^4:S5)")],
             (7200, 21): [("10S1569", "(A5xA5):C2")],
             (14400, 21): [("10S1576", "(A5xA5):(C2xC2)"),
                           ("10S1577", "(A5xA5):C4")],
             (28800, 21): [("10S1584", "S5wrC2")]},
    },
    "two-orbit": {
        4: {(2, 10): [("4S2", "C2")], (4, 9): [("4S6", "C2xC2")]},
        5: {(6, 12): [("5S11", "C6"), ("5S10", "S3")],
            (12, 12): [("5S15", "D12")]},
        6: {(9, 16): [("6S28", "C3xC3")],
            (18, 16): [("6S37", "C3xS3"), ("6S35", "(C3xC3):C2")],
            (24, 15): [("6S40", "C2xA4"), ("6S41", "S4")],
            (36, 16): [("6S45", "S3xS3")], (48, 15): [("6S49", "C2xS4")]},
        7: {(40, 18): [("7S75", "C2x(C5:C4)")],
            (120, 18): [("7S88", "C2xA5"), ("7S87", "S5")],
            (240, 18): [("7S92", "C2xS5")]},
    },
}


#: the IDs of A_n and S_n at the degrees ``main`` derives in its loop
ALT_SYM_IDS = {4: ("4P1", "4P2"), 5: ("5P4", "5P5"), 6: ("6X2", "6X3"),
               7: ("7X1", "7X2"), 8: ("8X1", "8X2"), 9: ("9X5", "9X6"),
               10: ("10X3", "10X4"), 11: ("11X6", "11X7"), 12: ("12X1", "12X2")}

#: every ID that CLOSURE_NAMES or ALT_SYM_IDS gives, in table order
NAMED_IDS = tuple(
    [c[0] for by_degree in CLOSURE_NAMES.values() for names in by_degree.values()
     for cited in names.values() for c in cited]
    + [ident for ids in ALT_SYM_IDS.values() for ident in ids])


def free_ids(n: int) -> Iterator[str]:
    """The X-IDs of degree n that NAMED_IDS does not hold, least first: the
    IDs of the unnamed classes, whatever was built before."""
    return (ident for k in count(1) if (ident := f"{n}X{k}") not in NAMED_IDS)


def young(a: int, b: int) -> list[Permutation]:
    """S_a x S_b on the orbits {1..a} and {a+1..a+b}: a cycle and a
    transposition on each (a transposition is left out where it equals its
    cycle)."""
    def sym_on(lo: int, k: int) -> list[Permutation]:
        pts = ",".join(map(str, range(lo, lo + k)))
        return [cyc(f"({pts})", a + b), cyc(f"({lo},{lo + 1})", a + b)][:1 if k == 2 else 2]

    return sym_on(1, a) + sym_on(a + 1, b)


def _parents(n: int, kind: str) -> list[tuple[str, PermGroup]]:
    """The closures every group of the kind is S_n-conjugate into: for the
    primitive kind, the maxima PRIMITIVE_MAXIMA lists; for the transitive
    kind, S_k wr S_m for each block shape n = m*k; for the two-orbit kind,
    S_a x S_b for each pair of orbits with
    (a + 1)(b + 1) <= n + TWO_ORBIT_MAX_EXCESS, the orbit-shape floor of s."""
    if kind == "primitive":
        return [(ident, build_group(MAXIMA[ident]))
                for ident in PRIMITIVE_MAXIMA[n]]
    if kind == "transitive":
        return [(f"S{k} wr S{n // k}", build_group(wreath(k, n // k)))
                for k in range(2, n) if n % k == 0]
    return [(f"S{a} x S{n - a}", build_group(young(a, n - a)))
            for a in range(2, n // 2 + 1)
            if (a + 1) * (n - a + 1) <= n + TWO_ORBIT_MAX_EXCESS]


def fused_classes(n: int, kind: str) -> dict[tuple[int, int], list[SubgroupClass]]:
    """The subgroup classes of degree n of one kind, one per S_n-class, by
    (order, s): "primitive" gives the primitive groups other than A_n and
    S_n, "transitive" the imprimitive transitive groups, "two-orbit" the
    groups with two orbits, no fixed point and s <= n + TWO_ORBIT_MAX_EXCESS.

    A primitive group not containing A_n lies in a conjugate of one of the
    maxima, a block system of m blocks of size k puts a group inside a
    conjugate of S_k wr S_m, and orbits of sizes a and b put it inside a
    conjugate of S_a x S_b, so every such group is S_n-conjugate to a
    subgroup class of one of ``_parents``: a primitive class of a maximum, a
    transitive class of a wreath product, or a class of a Young subgroup
    whose orbits are its two parts.  A transitive group is not primitive,
    since it keeps the blocks of its wreath.  The classes are fused under
    S_n by (order, s) and ``conjugate_in_sn``, keeping the first one walked
    with the canonical key its own parent gave it.  Where ``SEEDS`` forces
    an element, each walk starts above it.
    """
    fused: dict[tuple[int, int], list[SubgroupClass]] = {}
    for label, parent in _parents(n, kind):
        t0 = time.time()
        classes = subgroup_classes(parent, above=SEEDS.get(label))
        print(f"{label}: {len(classes)} subgroup classes "
              f"({time.time() - t0:.1f}s)", flush=True)
        for c in classes:
            G = c.representative
            if kind not in structure_tags(G):
                continue
            sig = (c.order, count_set_orbits(G))
            if kind == "two-orbit" and sig[1] > n + TWO_ORBIT_MAX_EXCESS:
                continue
            kept = fused.setdefault(sig, [])
            if all(conjugate_in_sn(k.representative, G) is None for k in kept):
                kept.append(c)
    return fused


def closure_entries(n: int, kind: str) -> list[CatalogEntry]:
    """One entry for each class ``fused_classes(n, kind)`` gives, at every
    degree ``catalog.MANIFEST`` counts for the kind; elsewhere, one for each
    class ``CLOSURE_NAMES`` names.  The classes are sorted by (order,
    canonical key under the parent that walked them).  Two fused classes
    never share a key, which is the element list of one of their subgroups,
    so the order is total and rests on the parents alone, not on their
    generators.  The j-th class of an (order, s) in this order takes the
    j-th name ``CLOSURE_NAMES`` lists for it, and a class beyond the names
    listed takes the next of ``free_ids(n)`` where the degree is counted.
    """
    names = CLOSURE_NAMES[kind][n]
    ordered = sorted(((c.order, c.canonical_key, s, c.representative)
                      for (_, s), classes in fused_classes(n, kind).items()
                      for c in classes), key=lambda t: t[:2])
    free_x = free_ids(n)
    seen: Counter = Counter()
    out = []
    for order, _, s, G in ordered:
        seen[order, s] += 1
        j = seen[order, s]
        cited = names.get((order, s), [])
        if j <= len(cited):
            ident, name = cited[j - 1]
        elif n not in MANIFEST[kind]:
            continue
        elif kind == "transitive":
            ident = next(free_x)
            name = f"T({n}) order {order} s={s}" + (f" #{j}" if j > 1 else "")
        else:
            raise ValueError(f"degree {n}: no {kind} name for {(order, s)}")
        out.append(entry(ident, name, G.generators, order, s=s))
        if ("primitive" in out[-1].tags) != (kind == "primitive"):
            raise ValueError(f"{ident}: primitive tag disagrees with {kind}")
    if any(seen[sig] < len(cited) for sig, cited in names.items()):
        raise ValueError(f"degree {n}: a {kind} name fits no class")
    return out


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
    order = build_group(gens).order
    for pair in combinations(words(gens), 2):
        if build_group(pair).order == order:
            return list(pair)
    return gens


def entry(ident, name, gens, order, s) -> CatalogEntry:
    """The entry of the group ``gens`` generate, shipped on the generators
    ``reduced`` gives, with the tags it earns.  ``verify_entry`` checks the
    order and the set-orbit count s, and up to degree 12 the bit-by-bit
    enumeration checks s."""
    gens = reduced(gens)
    G = build_group(gens)
    e = CatalogEntry(ident, G.degree, name, order, structure_tags(G),
                     tuple(gens), s)
    failures = verify_entry(e)
    if failures:
        raise ValueError(f"{ident}: {failures}")
    if e.degree <= 12 and (check := profile_from_enumeration(G).total) != s:
        raise ValueError(f"{ident}: enumeration gives {check}, expected {s}")
    return e


def main():
    t_start = time.time()

    def sym(n):
        return builtin("symmetric", n).generators

    def alt(n):
        return builtin("alternating", n).generators

    # ---- degrees 1..3 ------------------------------------------------------
    entries = [entry("1P1", "e", [cyc("()", 1)], 1, s=2),
               entry("2P1", "S2", [cyc("(1,2)", 2)], 2, s=3),
               entry("3P1", "C3", [cyc("(1,2,3)", 3)], 3, s=4),
               entry("3P2", "S3", sym(3), 6, s=4)]

    # ---- degrees 4..12: the primitive closure, A_n and S_n, then the
    # transitive and two-orbit closures --------------------------------------
    for n, (alt_id, sym_id) in ALT_SYM_IDS.items():
        if n in PRIMITIVE_MAXIMA:
            entries += closure_entries(n, "primitive")
        entries += [entry(alt_id, f"A{n}", alt(n), factorial(n) // 2, s=n + 1),
                    entry(sym_id, f"S{n}", sym(n), factorial(n), s=n + 1)]
        for kind in ("transitive", "two-orbit"):
            if n in CLOSURE_NAMES[kind]:
                entries += closure_entries(n, kind)

    # ---- structural cross-checks ------------------------------------------
    for e in entries:
        flags = ("P" if "primitive" in e.tags else "") + (
            "T" if "transitive" in e.tags else "")
        print(f"  {e.id:10s} deg={e.degree:2d} order={e.expected_order:<9d} "
              f"s={e.expected_s:<3d} {flags:2s} {e.name}")
    text = "\n".join([HEADER] + [format_entry(e) for e in entries]) + "\n"
    if parse_catalog(text) != entries:
        raise ValueError("the written text does not parse back as the entries")
    if problems := check_manifest(entries):
        raise ValueError(f"manifest: {problems}")
    OUT.write_text(text, encoding="utf-8")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"manifest OK; wrote {OUT} with {len(entries)} entries "
          f"({time.time() - t_start:.0f}s total, {peak_mb:.0f} MB peak)")


HEADER = """\
# Permutation group database: generators in cycle notation over {1..degree}.
# id|degree|name|order|tags|generators|set-orbit count
#
# Sources: the primitive subgroup classes of the maximal primitive groups
# of degrees 5-12 (projective, affine and linear actions over small finite
# fields, M11 and M12), the transitive subgroup classes of the wreath
# products S_k wr S_m (k*m = 4, 6, 8, 9, 10; at degree 10 the eight that
# the reference tables cite) and the two-orbit subgroup classes of the
# Young subgroups S_a x S_b (a + b = 4..7), each fused under S_n.  No
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
