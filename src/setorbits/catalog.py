"""Named permutation groups: built-in families and the shipped group database.

The database (``data/groups.cat``) holds generator words in cycle notation
for the primitive groups of every degree up to 12 (and the trivial group of
degree 1), the transitive groups of degrees 4, 6, 8 and 9, the groups of
degrees 4 to 7 with two orbits, no fixed point and s <= n + 11, and the
auxiliary groups needed to reproduce the reference classification tables.
``scripts/derive_catalog.py`` derives the primitive groups of degrees 5 to
11 other than A_n and S_n as the primitive subgroup classes of the maxima
``PRIMITIVE_MAXIMA`` lists, and the transitive and two-orbit pools from
walks of wreath products and Young subgroups.  Each word is parsed once,
on load, into the entry's ``generators``; the entry is the unit the
classification works with.  This module alone reads and writes the record
format: ``parse_catalog`` reads it and ``format_entry`` writes one record
back.  No generator set is trusted: ``verify_entry`` rebuilds every group
and checks its order, the tags ``structure_tags`` says it earns and its
set-orbit count, and the test suite runs this over the whole file.

Each group is shipped once: no entry of degree >= 2 has a fixed point, and
``by_id("<id>+1")`` is the entry ``<id>`` padded by one.  This module alone
knows the manifest, the classical count of each tag per degree, and a
record carries no tag the manifest does not count.  ``MANIFEST`` is the one
table of pools, with no index beside it: ``pool`` gives every entry of one
(degree, tag) from one pass over the entries, or raises ``DataGapError``
when the manifest does not vouch for that pool, and ``check_manifest``
counts every pool in one pass.

Record format, one per line, ``#`` starts a comment, tags in manifest
order:

    id|degree|name|expected_order|tag,tag,...|gen;gen;...|expected_s
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable

from .orbitcount import count_set_orbits
from .perm import (PermError, PermGroup, Permutation, build_group,
                   is_primitive, is_transitive, parse_permutation)

#: number of primitive groups of each degree; the shipped file must carry
#: exactly this many primitive-tagged entries per degree.  Classical counts
#: (Dixon and Mortimer, Permutation Groups, 1996, App. B).  Degrees 1-7 are
#: rechecked against the walk of S_n (tests/test_lemmas.py); the entries of
#: degrees 5-11 other than A_n and S_n are the primitive subgroup classes of
#: PRIMITIVE_MAXIMA, fused under S_n (scripts/derive_catalog.py); degree 12
#: is cited only.
PRIMITIVE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 2, 5: 5, 6: 4, 7: 7, 8: 7, 9: 11,
                    10: 9, 11: 8, 12: 6}

#: the maximal primitive groups of each degree other than A_n, by catalog
#: id: the primitive groups not containing A_n that lie in no larger one,
#: so every primitive group of degree n that does not contain A_n is
#: S_n-conjugate to a subgroup of one of them (Dixon and Mortimer,
#: Permutation Groups, 1996, App. B)
PRIMITIVE_MAXIMA = {5: ("5P3",), 6: ("6X1",), 7: ("7P4", "7P5"),
                    8: ("8P3", "8P5"), 9: ("9P7", "9X4"), 10: ("10P7",),
                    11: ("11X4", "11P6")}

#: number of transitive groups of the degrees whose transitive groups the
#: shipped file carries in full (primitive + imprimitive: 2 + 3, 4 + 12,
#: 7 + 43 and 11 + 23; Butler and McKay, The transitive groups of degree up
#: to eleven, 1983), the imprimitive ones taken from the transitive
#: subgroup classes of the wreath products S_k wr S_m with k*m = n, fused
#: under S_n
TRANSITIVE_COUNTS = {4: 5, 6: 16, 8: 50, 9: 34}

#: the two-orbit pools hold the groups with s <= n + TWO_ORBIT_MAX_EXCESS,
#: so they serve every r up to this excess
TWO_ORBIT_MAX_EXCESS = 11

#: number of groups of degree n with no fixed point, exactly two orbits and
#: s <= n + TWO_ORBIT_MAX_EXCESS, up to S_n-conjugacy.  Their orbits are
#: (2, 2) at degree 4, (2, 3) at 5, (2, 4) or (3, 3) at 6 and (2, 5) at 7,
#: the only shapes with prod(|O_i| + 1) <= n + TWO_ORBIT_MAX_EXCESS.  They
#: are the subgroup classes of the Young subgroups S_a x S_b with these
#: orbits, fused under S_n, and every one is a reference-table row.  The
#: entries carry the tag "two-orbit".
TWO_ORBIT_COUNTS = {4: 2, 5: 3, 6: 7, 7: 4}

#: the completeness counts per tag, in the order a record lists its tags;
#: these are the only tags a record may carry
MANIFEST = {"transitive": TRANSITIVE_COUNTS, "primitive": PRIMITIVE_COUNTS,
            "two-orbit": TWO_ORBIT_COUNTS}


class CatalogError(ValueError):
    """Malformed catalog data."""


class DataGapError(RuntimeError):
    """The catalog lacks a candidate pool that a surviving degree needs."""


@dataclass(frozen=True)
class CatalogEntry:
    """One database record: the generators, parsed on load, and the order,
    tags and set-orbit count the record states (``verify_entry`` checks
    them).  Entries compare and hash by value, so an entry keys the
    pipeline's s-memo."""
    id: str
    degree: int
    name: str
    expected_order: int
    tags: frozenset[str]
    generators: tuple[Permutation, ...]
    expected_s: int

    @property
    def generator_texts(self) -> tuple[str, ...]:
        """The generator words, in cycle notation."""
        return tuple(str(g) for g in self.generators)

    def group(self) -> PermGroup:
        """The entry's group, trusting its recorded order: ``verify_entry``
        certifies that order, and a chain built later cross-checks it."""
        return build_group(self.generators, self.degree, self.expected_order)


# ---------------------------------------------------------------------------
# loading

#: ``by_id("<id>" + PAD_SUFFIX)`` is entry ``<id>`` padded by one point, so
#: no record's id may end in it
PAD_SUFFIX = "+1"


def parse_catalog(text: str) -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    seen_ids: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 7:
            raise CatalogError(f"line {lineno}: expected 7 fields, "
                               f"got {len(parts)}")
        ident, deg_s, name, order_s, tags_s, gens_s, s_text = parts
        if ident.endswith(PAD_SUFFIX):
            raise CatalogError(f"line {lineno}: id {ident!r} ends in "
                               f"{PAD_SUFFIX!r}, which names a padding")
        if ident in seen_ids:
            raise CatalogError(f"line {lineno}: duplicate id {ident!r} "
                               f"(first seen on line {seen_ids[ident]})")
        seen_ids[ident] = lineno
        try:
            degree, expected_order, expected_s = (
                int(deg_s), int(order_s), int(s_text))
        except ValueError:
            raise CatalogError(f"line {lineno}: bad integer field") from None
        for field, value in (("degree", degree), ("order", expected_order),
                             ("set-orbit count", expected_s)):
            if value < 1:
                raise CatalogError(f"line {lineno}: {field} {value} is below 1")
        tags = frozenset(t for t in tags_s.split(",") if t)
        for t in tags:
            if t not in MANIFEST:
                raise CatalogError(f"line {lineno}: unknown tag {t!r}")
        if tags_s != _tags_text(tags):
            raise CatalogError(f"line {lineno}: tags {tags_s!r} are not "
                               f"{_tags_text(tags)!r}, each once in manifest "
                               f"order")
        generators = []
        for g in filter(None, gens_s.split(";")):
            try:
                generators.append(parse_permutation(g, degree))
            except PermError as exc:
                raise CatalogError(f"line {lineno}: bad generator {g!r}: {exc}")
        entries.append(CatalogEntry(ident, degree, name, expected_order, tags,
                                    tuple(generators), expected_s))
    return entries


def _tags_text(tags: frozenset[str]) -> str:
    """The tags field of a record: each tag once, in manifest order."""
    return ",".join(t for t in MANIFEST if t in tags)


def format_entry(e: CatalogEntry) -> str:
    """The record line of ``e``, which ``parse_catalog`` reads back as
    ``e``."""
    return "|".join((e.id, str(e.degree), e.name, str(e.expected_order),
                     _tags_text(e.tags),
                     ";".join(e.generator_texts), str(e.expected_s)))


@lru_cache(maxsize=1)
def load_default() -> tuple[CatalogEntry, ...]:
    """The catalog shipped with the package."""
    text = resources.files("setorbits").joinpath("data/groups.cat").read_text(
        encoding="utf-8")
    return tuple(parse_catalog(text))


def by_id(ident: str) -> CatalogEntry:
    """The shipped entry ``ident``; ``<id>+1`` is entry ``<id>`` padded by
    one fixed point."""
    if ident.endswith(PAD_SUFFIX):
        return padded(by_id(ident[:-len(PAD_SUFFIX)]))
    for e in load_default():
        if e.id == ident:
            return e
    raise KeyError(f"no catalog entry {ident!r}")


def padded(e: CatalogEntry) -> CatalogEntry:
    """``e`` acting on one more point, which every element fixes: each
    generator extended by that point, the same order, no transitivity tag,
    and twice the set-orbit count (each set-orbit of ``e``, with and
    without the new point)."""
    return CatalogEntry(e.id + PAD_SUFFIX, e.degree + 1, e.name + PAD_SUFFIX,
                        e.expected_order, frozenset(),
                        tuple(Permutation(g.images + (e.degree,))
                              for g in e.generators),
                        2 * e.expected_s)


# ---------------------------------------------------------------------------
# verification

def verify_entry(e: CatalogEntry) -> list[str]:
    """Rebuild the group and check order, tags and recorded s-value.

    Returns the failed checks as ``"<check>: <detail>"`` lines, none when
    the entry verifies.  The order is the group's own (an order rule, its
    direct factors or its chain), never the recorded one that
    ``CatalogEntry.group`` trusts.  The group's chain then checks it, so
    every shipped S_n and A_n checks Jordan's order rule; where the two
    disagree, that is the one failure line, as no count can trust G."""
    G = build_group(e.generators, e.degree)
    reported = G.order
    try:
        built = G._built_chain().order
    except PermError as exc:
        return [f"order: {exc}, expected {e.expected_order}"]
    failures = []
    if built != e.expected_order:
        failures.append(f"order: chain gives {built}, the group reports "
                        f"{reported}, expected {e.expected_order}")
    earned = structure_tags(G)
    for tag in MANIFEST:
        if tag in earned and tag not in e.tags:
            failures.append(f"{tag}-tag: group earns {tag}, tag absent")
        elif tag in e.tags and tag not in earned:
            failures.append(f"{tag}-tag: group does not earn {tag}, "
                            f"tag present")
    s = count_set_orbits(G)
    if s != e.expected_s:
        failures.append(f"set-orbits: computed {s}, expected {e.expected_s}")
    return failures


def structure_tags(G: PermGroup) -> frozenset[str]:
    """The manifest tags ``G`` earns: transitive, primitive, and two-orbit
    (exactly two orbits, and no fixed point)."""
    orbits = G.orbits()
    earned = {"transitive": is_transitive(G), "primitive": is_primitive(G),
              "two-orbit": len(orbits) == 2 and min(map(len, orbits)) > 1}
    return frozenset(tag for tag, holds in earned.items() if holds)


# ---------------------------------------------------------------------------
# completeness

def _count_problem(got: int, degree: int, tag: str) -> str | None:
    want = MANIFEST[tag][degree]
    if got != want:
        return f"degree {degree}: {got} {tag} entries, expected {want}"
    return None


def pool(degree: int, tag: str,
         entries: Iterable[CatalogEntry] | None = None) -> list[CatalogEntry]:
    """Every ``tag`` entry of ``degree`` among ``entries`` (by default the
    shipped ones), from one pass over them.  Raises DataGapError when the
    manifest does not count that degree, or when the entries hold another
    number of them."""
    if degree not in MANIFEST[tag]:
        raise DataGapError(f"degree {degree}: {tag} catalog does not cover "
                           f"degree {degree}")
    found = [e for e in (load_default() if entries is None else entries)
             if e.degree == degree and tag in e.tags]
    problem = _count_problem(len(found), degree, tag)
    if problem is not None:
        raise DataGapError(f"{tag} catalog incomplete: {problem}")
    return found


def check_manifest(entries: Iterable[CatalogEntry] | None = None) -> list[str]:
    """Completeness assertions: for every tag in MANIFEST, the entries of
    every degree its counts list, counted in one pass over ``entries`` (by
    default the shipped ones).

    Returns a list of problems (empty = complete).
    """
    got = Counter((e.degree, tag)
                  for e in (load_default() if entries is None else entries)
                  for tag in e.tags)
    return [problem for tag, counts in MANIFEST.items() for degree in counts
            if (problem := _count_problem(got[degree, tag], degree, tag))]


# ---------------------------------------------------------------------------
# built-in families

def builtin(family: str, n: int) -> PermGroup:
    """Natural actions: cyclic, dihedral (order 2n on n points, n >= 3),
    symmetric, alternating."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if family == "cyclic":
        return build_group([_cycle(n)])
    if family == "dihedral":
        if n < 3:
            raise ValueError("dihedral needs n >= 3")
        flip = Permutation([0] + list(range(n - 1, 0, -1)))
        return build_group([_cycle(n), flip])
    if family == "symmetric":
        if n == 1:
            return build_group([], degree=1)
        gens = [Permutation([1, 0] + list(range(2, n)))]
        if n >= 3:
            gens.append(_cycle(n))
        return build_group(gens, degree=n)
    if family == "alternating":
        if n <= 2:
            return build_group([], degree=n)
        three = Permutation([1, 2, 0] + list(range(3, n)))
        if n == 3:
            return build_group([three])
        if n % 2:  # an n-cycle is even for odd n
            return build_group([three, _cycle(n)])
        rest = Permutation([0] + list(range(2, n)) + [1])  # (2,3,...,n)
        return build_group([three, rest])
    raise ValueError(f"unknown family {family!r}")


def _cycle(n: int) -> Permutation:
    return Permutation(list(range(1, n)) + [0])

