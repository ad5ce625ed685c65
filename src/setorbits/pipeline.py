"""End-to-end classification of permutation groups with s(G) = n + r.

For a target excess r from 1 (the set-transitive groups) to ``MAX_R``,
the run bounds the degree (``prune.degree_bound``: past it, step 1
eliminates every degree; n <= 55 for r <= 11), eliminates
degrees by parity, the prime window and the homogeneity bound, selects
candidate groups per surviving degree, computes s(G) exactly for each and
keeps the hits.  The candidates for s(G) = s at degree n form a pool built
by one recursion on (n, s), from the shipped catalog only:

* the transitive groups.  C(n, t*) must divide the order, where
  t* = (n - r + 1) // 2 is the largest size whose orbit count is forced
  to 1 (``prune.forced_transitive_size``).  r < n - 2 is t* >= 2: s_2 = 1,
  so the group is primitive.  A transitive G with m blocks of size k has
  s(G) >= C(m + k, k) (block shape), so when every factorisation
  n = m * k gives more than s, and in particular at a prime degree, they
  are primitive too and come from the primitive catalog; otherwise from
  the transitive catalog (degrees 4, 6, 8 and 9), with the same C(n, t*)
  filter;
* the groups with orbits O_1..O_k, k >= 2, and no fixed point.  The tuple
  of restricted orbits of a subset is constant on its G-orbit and every
  tuple occurs, so s(G) >= prod(|O_i| + 1) (orbit shape).  For s <= n + 11
  only two orbits of sizes (2, 2), (2, 3), (2, 4), (3, 3) or (2, 5) fit;
  these groups ship in the two-orbit catalog (degrees 4 to 7);
* the groups with a fixed point: P+1 doubles s(P), so these are P+1 for
  P in the pool of (n - 1, s / 2) when s is even.  A P whose catalog entry
  records another s is dropped.  At s = 2n these are the set-transitive
  groups of degree n - 1, padded.

Each catalog pool is checked against its classical count, so a missing
entry is a data gap.  Groups containing A_n always have s = n + 1 and are
excluded throughout.

The run report is the tuple of per-degree ``DegreeResult``s: the prune
verdict and, per surviving degree, the candidates' source and either how
many of them each counting route (``orbitcount.counting_route``) took or
why the catalog cannot cover the degree (a data gap).  ``classify``
memoises the frozen report once per process and r, so a warm
``classify(r)`` is one lookup; the s of each catalog entry is memoised
apart (``_s_and_route``), since one entry is a candidate at several (n, r).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Optional, Sequence

from . import catalog as cat
from .catalog import DataGapError
from .orbitcount import count_set_orbits, counting_route
from .perm import contains_alternating, point_orbits
from .prune import (PruneVerdict, binomial_divides, degree_range,
                    forced_transitive_size, prune_degree)

#: classify(r) needs the two-orbit pools up to s = n + r
MIN_R, MAX_R = 1, cat.TWO_ORBIT_MAX_EXCESS


@dataclass(frozen=True)
class ClassificationRow:
    r: int
    degree: int
    group_label: str
    name: str
    order: int
    s_value: int


@dataclass(frozen=True)
class DegreeResult:
    """What classify(r) finds at one degree: the prune verdict and, for a
    survivor, its candidate source and either its data-gap reason or its
    rows (sorted) and route counts (route, number of candidates)."""
    verdict: PruneVerdict
    source: Optional[str] = None
    gap: Optional[str] = None
    rows: tuple[ClassificationRow, ...] = ()
    routes: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class RunReport:
    """One classify(r) run: the ``DegreeResult`` of each degree of
    ``degree_range(r)``, in order."""
    r: int
    degrees: tuple[DegreeResult, ...]

    @property
    def rows(self) -> list[ClassificationRow]:
        return [row for d in self.degrees for row in d.rows]

    @property
    def gaps(self) -> dict[int, str]:
        """Per surviving degree with a data gap: why the catalog cannot
        cover it."""
        return {d.verdict.n: d.gap for d in self.degrees if d.gap is not None}

    def survivors(self) -> list[int]:
        return [d.verdict.n for d in self.degrees if not d.verdict.eliminated]

    def to_tsv(self) -> str:
        lines = ["r\tdegree\tlabel\tname\torder\ts"]
        for row in self.rows:
            lines.append(f"{row.r}\t{row.degree}\t{row.group_label}\t"
                         f"{row.name}\t{row.order}\t{row.s_value}")
        return "\n".join(lines) + "\n"


def block_shape_floor(n: int) -> Optional[int]:
    """Least s(G) of a transitive imprimitive G of degree n, as far as its
    block shape tells, or None when n has no block shape (n prime or 1).

    With m blocks of size k, the multiset of the sizes in which a subset
    meets the blocks is constant on its G-orbit, and each of the C(m + k, k)
    multisets occurs, so s(G) >= C(m + k, k).
    """
    return min((math.comb(n // k + k, k) for k in range(2, n) if n % k == 0),
               default=None)


def two_orbit_shape_fits(n: int, s: int) -> bool:
    """Whether a group of degree n with no fixed point and two or more
    orbits can have s(G) = s.  The least prod(|O_i| + 1) over such orbit
    shapes is 3 * (n - 1), from the orbits (2, n - 2); three orbits need at
    least 9 * (n - 3), more than n + 11 at every n >= 6, so below that only
    two orbits fit."""
    return n >= 4 and 3 * (n - 1) <= s


def pads_fit(n: int, s: int) -> bool:
    """Whether a group of degree n with a fixed point can have s(G) = s:
    G = P+1 with s(P) = s / 2, and s(P) >= n for P of degree n - 1."""
    return n >= 2 and s % 2 == 0 and s >= 2 * n


def _parts(n: int, s: int) -> tuple[str, Optional[str], bool, bool]:
    """The one decision on the pool of (n, s), which both the pool and its
    source text read: the manifest kind of its transitive part, with the
    lemma that makes it primitive at r = s - n >= n - 2, whether the
    two-orbit catalog fits, and whether one-point paddings fit."""
    kind, lemma = "primitive", None
    if s - n >= n - 2:
        floor = block_shape_floor(n)
        if floor is not None and s >= floor:
            kind = "transitive"
        else:
            lemma = "prime degree" if floor is None else "block shape"
    return kind, lemma, two_orbit_shape_fits(n, s), pads_fit(n, s)


def _source(kind: str, lemma: Optional[str], two_orbit: bool,
            pads: bool) -> str:
    """The ``DegreeResult.source`` text of a pool's ``_parts``."""
    return (f"{kind} catalog" + (f" ({lemma})" if lemma else "")
            + (" + two-orbit catalog" if two_orbit else "")
            + (" + one-point paddings" if pads else ""))


def _pool(n: int, s: int, entries: Sequence[cat.CatalogEntry] | None,
          ) -> list[cat.CatalogEntry]:
    """Catalog entries, padded by fixed points as needed, among which every
    group of degree n with s(G) = s has an S_n-conjugate (the recursion in
    the module docstring); some have another s."""
    kind, _, two_orbit, pads = _parts(n, s)
    t = forced_transitive_size(n, s - n)
    out = [e for e in cat.pool(n, kind, entries)
           if t is None or binomial_divides(n, t, e.expected_order)]
    if two_orbit:
        out += [e for e in cat.pool(n, "two-orbit", entries)
                if math.prod(len(O) + 1
                             for O in point_orbits(e.generators, n)) <= s]
    if pads:
        out += [cat.padded(e) for e in _pool(n - 1, s // 2, entries)
                if e.expected_s == s // 2]
    return out


def candidate_groups(n: int, r: int,
                     entries: Sequence[cat.CatalogEntry] | None = None,
                     ) -> list[cat.CatalogEntry]:
    """Candidates for s(G) = n + r at a surviving degree n: the entries of
    the pool of (n, n + r), less the groups containing A_n.  Their IDs are
    catalog IDs, with a ``+1`` per padded fixed point.

    Raises DataGapError when a catalog pool the recursion needs is missing
    or incomplete.
    """
    if not MIN_R <= r <= MAX_R:
        # the two-orbit catalog holds the groups with s <= n + MAX_R only
        raise ValueError(f"r must be in {MIN_R}..{MAX_R}")
    return [e for e in _pool(n, n + r, entries)
            if not contains_alternating(n, e.expected_order)]


@cache
def _s_and_route(e: cat.CatalogEntry) -> tuple[int, str]:
    """s of the entry's group and the counting route that computed it,
    cached per entry, since one entry is a candidate at several (n, r);
    the group is built only on a miss."""
    G = e.group()
    return count_set_orbits(G), counting_route(G)


def _degree_result(n: int, r: int) -> DegreeResult:
    """Prune degree n for r and, if it survives, select and count its
    candidates.  Uncached: only classify(r) asks for (n, r), once, and it
    memoises the whole report."""
    v = prune_degree(n, r)
    if v.eliminated:
        return DegreeResult(v)
    source = _source(*_parts(n, n + r))
    try:
        cands = candidate_groups(n, r)
    except DataGapError as exc:
        return DegreeResult(v, source, gap=str(exc))
    routes: dict[str, int] = {}
    rows = []
    for e in cands:
        s, route = _s_and_route(e)
        routes[route] = routes.get(route, 0) + 1
        if s == n + r:
            rows.append(ClassificationRow(r, n, e.id, e.name,
                                          e.expected_order, s))
    rows.sort(key=lambda row: (row.order, row.group_label))
    return DegreeResult(v, source, rows=tuple(rows),
                        routes=tuple(routes.items()))


@cache
def classify(r: int) -> RunReport:
    """Classify all permutation groups with s(G) = n + r.

    A surviving degree whose candidate pool the catalog lacks is a data gap:
    its ``DegreeResult`` records the reason and the run goes on to the next
    degree.  Rows are sorted by (degree, order, label) and every run over
    the same inputs produces identical output.  Cached per r, since the
    report depends on r and the shipped catalog only: every later call
    hands out the same frozen report, whose ``rows`` and ``gaps`` are built
    anew on each access.  An r out of range raises on every call.
    """
    if not MIN_R <= r <= MAX_R:
        raise ValueError(f"r must be in {MIN_R}..{MAX_R}")
    return RunReport(r, tuple(_degree_result(n, r) for n in degree_range(r)))


# ---------------------------------------------------------------------------
# golden tables

def load_golden(r: int) -> list[ClassificationRow]:
    """The shipped reference table for one r."""
    text = resources.files("setorbits").joinpath(
        f"data/tables/r{r}.tsv").read_text(encoding="utf-8")
    return parse_golden(text, r)


def parse_golden(text: str, r: int) -> list[ClassificationRow]:
    """The rows of table r in ``RunReport.to_tsv`` format.  Blank lines and
    a header before the first row are skipped; errors name the line.  Every
    row has s = degree + r; a row of another r is an error, as the table is
    not table r."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or (not rows and line.startswith("r\t")):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"golden line {lineno}: expected 6 columns, "
                             f"got {len(parts)}")
        row_r, degree, label, name, order, s = parts
        try:
            row = ClassificationRow(int(row_r), int(degree), label, name,
                                    int(order), int(s))
        except ValueError:
            raise ValueError(
                f"golden line {lineno}: bad integer field") from None
        if row.s_value != row.degree + row.r:
            raise ValueError(f"golden line {lineno}: s = {row.s_value} is not "
                             f"degree + r = {row.degree + row.r}")
        if row.r != r:
            raise ValueError(f"golden row {label} is for r = {row.r}, not "
                             f"r = {r}: a table for another r")
        rows.append(row)
    return rows


@dataclass
class GoldenDiff:
    missing: list[ClassificationRow]  # golden rows with no computed match
    extra: list[ClassificationRow]    # computed rows with no golden match
    ambiguous: list[tuple[int, int, int, int]]  # (degree, order, s, multiplicity)

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra

    def summary(self) -> str:
        if self.empty and not self.ambiguous:
            return "empty diff"
        bits = []
        if self.missing:
            bits.append(f"{len(self.missing)} missing")
        if self.extra:
            bits.append(f"{len(self.extra)} extra")
        if self.ambiguous:
            bits.append(f"{len(self.ambiguous)} signature(s) matched as a group")
        return ", ".join(bits) or "empty diff"


def compare_to_golden(report: RunReport,
                      golden: list[ClassificationRow]) -> GoldenDiff:
    """Match rows by the (degree, order, s) multiset.

    Signatures shared by several rows are matched as multisets and flagged
    as ambiguous rather than paired individually.  ``golden`` is table
    ``report.r``, as ``parse_golden`` reads it.
    """
    gold = Counter(map(_signature, golden))
    ambiguous = [(d, o, s, m) for (d, o, s), m in gold.items() if m > 1]
    return GoldenDiff(_unmatched(golden, report.rows),
                      _unmatched(report.rows, golden), sorted(ambiguous))


def _signature(row: ClassificationRow) -> tuple[int, int, int]:
    return row.degree, row.order, row.s_value


def _unmatched(rows: list[ClassificationRow],
               others: list[ClassificationRow]) -> list[ClassificationRow]:
    """The rows with no match in ``others``: each row of ``others`` matches
    the first unmatched row of its (degree, order, s) signature."""
    left = Counter(map(_signature, others))
    out = []
    for row in rows:
        key = _signature(row)
        if left[key] > 0:
            left[key] -= 1
        else:
            out.append(row)
    return out
