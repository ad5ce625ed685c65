"""End-to-end classification of permutation groups with s(G) = n + r.

For a target excess r, the run bounds the degree (n <= 81 for r < 16),
eliminates degrees by parity and the two prime-window arguments, selects
candidate groups per surviving degree, computes s(G) exactly for each and
keeps the hits.  Candidate selection splits on how much transitivity the
excess forces:

* r < n - 2: one split subset size of 2 would already overshoot, so
  candidates are primitive and C(n, t*) must divide the order, where t* is
  the largest size whose orbit count is forced to 1;
* r < n: a split size 1 would overshoot, so candidates are transitive.  A
  transitive G with m blocks of size k has s(G) >= C(m + k, k) (block
  shape), so when every factorisation n = m * k gives more than n + r, and
  in particular at a prime degree, they are primitive too and come from the
  primitive catalog; otherwise from the transitive catalog (degrees 4, 6
  and 8), with the same C(n, t*) filter;
* r = n >= 3: a G with orbits O_1..O_k, k >= 2, has s(G) >= prod(|O_i| + 1)
  >= 2n (orbit shape), with equality only for the orbits (n - 1, 1) and a
  set-transitive constituent on the n - 1 points.  So the candidates are
  the transitive ones as for r < n, plus H+1 for every set-transitive H of
  degree n - 1, all of which are in the primitive catalog;
* r > n: every subgroup class of S_n is checked (the cached walk, n <= 7).

Each catalog pool is checked against its classical count, so a missing
entry is a data gap.  Groups containing A_n always have s = n + 1 and are
excluded throughout.  The run report records, per degree, where the
candidates came from and how many of them each counting route
(``orbitcount.counting_route``) took.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from . import catalog as cat
from .orbitcount import count_set_orbits, counting_route
from .perm import PermGroup
from .prune import PruneVerdict, binomial_divides, degree_range, prune_degree
from .subgroups import SubgroupCapError, all_subgroups

MIN_R, MAX_R = 2, 11


class DataGapError(RuntimeError):
    """Candidate data is missing for one or more surviving degrees."""

    def __init__(self, gaps: list[str]):
        self.gaps = gaps
        super().__init__("; ".join(gaps))


@dataclass(frozen=True)
class ClassificationRow:
    r: int
    degree: int
    group_label: str
    name: str
    order: int
    s_value: int


@dataclass
class RunReport:
    r: int
    degree_verdicts: list[PruneVerdict]
    candidate_counts: dict[int, int]
    rows: list[ClassificationRow]
    gaps: list[str] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)
    #: per surviving degree: where its candidates come from
    candidate_sources: dict[int, str] = field(default_factory=dict)
    #: per degree with candidates: counting route -> number of candidates
    route_counts: dict[int, dict[str, int]] = field(default_factory=dict)

    def survivors(self) -> list[int]:
        return [v.n for v in self.degree_verdicts if not v.eliminated]

    def to_tsv(self) -> str:
        lines = ["r\tdegree\tlabel\tname\torder\ts"]
        for row in self.rows:
            lines.append(f"{row.r}\t{row.degree}\t{row.group_label}\t"
                         f"{row.name}\t{row.order}\t{row.s_value}")
        return "\n".join(lines) + "\n"


def forced_transitive_size(n: int, r: int) -> Optional[int]:
    """Largest t <= n/2 with s_t(G) = 1 forced by s(G) = n + r, or None.

    A split at size t propagates to every size in [t, n-t], costing
    n - 2t + 1 extra orbits against a budget of r - 1.
    """
    if r < 2:
        raise ValueError("defined for r >= 2")
    if n % 2 == 0:
        t = n // 2 - 1 - (r - 2) // 2
    else:
        t = (n - 1) // 2 - (r - 1) // 2
    return t if t >= 1 else None


def block_shape_floor(n: int) -> Optional[int]:
    """Least s(G) of a transitive imprimitive G of degree n, as far as its
    block shape tells, or None when n has no block shape (n prime).

    With m blocks of size k, the multiset of the sizes in which a subset
    meets the blocks is constant on its G-orbit, and each of the C(m + k, k)
    multisets occurs, so s(G) >= C(m + k, k).
    """
    return min((math.comb(n // k + k, k) for k in range(2, n) if n % k == 0),
               default=None)


@dataclass(frozen=True)
class Candidate:
    group: PermGroup
    label: str
    name: str


def _divides_filter(n: int, r: int, order: int) -> bool:
    t = forced_transitive_size(n, r)
    return t is None or binomial_divides(n, t, order)


def _require_count(pool: list, want: int, n: int, kind: str) -> None:
    """A catalog pool that lacks classical count entries is a data gap."""
    if len(pool) != want:
        raise DataGapError([f"{kind} catalog incomplete: degree {n}: "
                            f"{len(pool)} {kind} entries, expected {want}"])


def _catalog_pool(n: int, kind: str,
                  entries: list[cat.CatalogEntry]) -> list[cat.CatalogEntry]:
    """All ``kind`` ("primitive" or "transitive") entries of degree n, or a
    data gap when the catalog does not hold all of them."""
    counts = cat.PRIMITIVE_COUNTS if kind == "primitive" else cat.TRANSITIVE_COUNTS
    if n not in counts:
        raise DataGapError([f"degree {n}: {kind} catalog does not cover "
                            f"degree {n}"])
    pool = cat.candidates(n, kind, entries=entries)
    _require_count(pool, counts[n], n, kind)
    return pool


PRIMITIVE = "primitive catalog"
PRIMITIVE_PRIME = "primitive catalog (prime degree)"
PRIMITIVE_BLOCKS = "primitive catalog (block shape)"
TRANSITIVE_CATALOG = "transitive catalog"
PADDINGS = " + one-point paddings"


def candidate_source(n: int, r: int) -> str:
    """Where the candidates for s(G) = n + r at degree n come from."""
    if r < n - 2:
        return PRIMITIVE
    if r > n or n < 3:
        return f"subgroup classes of S_{n}"
    floor = block_shape_floor(n)
    if floor is None:
        source = PRIMITIVE_PRIME
    elif n + r < floor:
        source = PRIMITIVE_BLOCKS
    else:
        source = TRANSITIVE_CATALOG
    return source + PADDINGS if r == n else source


def candidate_groups(n: int, r: int,
                     entries: Iterable[cat.CatalogEntry] | None = None) -> list[Candidate]:
    """Candidates for s(G) = n + r at a surviving degree n.

    Raises DataGapError when the needed subgroup enumeration or catalog
    coverage is unavailable.
    """
    if entries is None:
        entries = cat.load_default()
    entries = list(entries)
    source = candidate_source(n, r)
    if source.startswith("subgroup classes"):
        try:
            classes = all_subgroups(n)
        except SubgroupCapError as exc:
            raise DataGapError([f"degree {n}: needs subgroup data for S_{n} "
                                f"({exc})"]) from None
        out = [Candidate(c.representative, f"S{n}-cls{c.index}",
                         f"subgroup class {c.index} of S_{n}") for c in classes]
    else:
        kind = "transitive" if source.startswith(TRANSITIVE_CATALOG) else "primitive"
        out = [Candidate(e.group(), e.id, e.name)
               for e in _catalog_pool(n, kind, entries)
               if _divides_filter(n, r, e.expected_order)]
        if source.endswith(PADDINGS):
            # the set-transitive groups of degree n - 1: 2-homogeneous, hence
            # primitive, from degree 3 on; S_2 at degree 2.  s(H) is read
            # from the catalog; an entry that records none is kept
            for e in _catalog_pool(n - 1, "primitive", entries):
                if e.expected_s in (None, n):
                    p = cat.padded(e)
                    out.append(Candidate(p.group(), p.id, p.name))
    if n <= 2:
        # A_1 and A_2 are trivial; the s = n + 1 exclusion only applies from
        # degree 3 on (the trivial group on 2 points has s = 4)
        return out
    return [c for c in out if not c.group.contains_alternating()]


_profile_cache: dict[tuple, tuple[int, str]] = {}


def _s_and_route(G: PermGroup) -> tuple[int, str]:
    """s(G) and the counting route that computed it, cached per group."""
    key = (G.degree, G.order, G.generator_tuples())
    hit = _profile_cache.get(key)
    if hit is None:
        hit = _profile_cache[key] = (count_set_orbits(G), counting_route(G))
    return hit


def classify(r: int, strict: bool = True,
             entries: Iterable[cat.CatalogEntry] | None = None) -> RunReport:
    """Classify all permutation groups with s(G) = n + r.

    ``strict`` raises DataGapError when any surviving degree lacks candidate
    data; otherwise the gaps are recorded in the report and those degrees
    are skipped.  Rows are sorted by (degree, order, label) and every run
    over the same inputs produces identical output.
    """
    if not MIN_R <= r <= MAX_R:
        raise ValueError(f"r must be in {MIN_R}..{MAX_R}")
    t0 = time.perf_counter()
    verdicts = [prune_degree(n, r) for n in degree_range(r)]
    t1 = time.perf_counter()
    rows: list[ClassificationRow] = []
    counts: dict[int, int] = {}
    sources: dict[int, str] = {}
    routes: dict[int, dict[str, int]] = {}
    gaps: list[str] = []
    for v in verdicts:
        if v.eliminated:
            continue
        n = v.n
        sources[n] = candidate_source(n, r)
        try:
            cands = candidate_groups(n, r, entries=entries)
        except DataGapError as exc:
            gaps.extend(exc.gaps)
            continue
        counts[n] = len(cands)
        taken = routes[n] = {}
        for c in cands:
            s, route = _s_and_route(c.group)
            taken[route] = taken.get(route, 0) + 1
            if s == n + r:
                rows.append(ClassificationRow(r, n, c.label, c.name,
                                              c.group.order, s))
    if gaps and strict:
        raise DataGapError(gaps)
    rows.sort(key=lambda row: (row.degree, row.order, row.group_label))
    t2 = time.perf_counter()
    return RunReport(r=r, degree_verdicts=verdicts, candidate_counts=counts,
                     rows=rows, gaps=gaps,
                     timing={"prune": t1 - t0, "compute": t2 - t1},
                     candidate_sources=sources,
                     route_counts=routes)


# ---------------------------------------------------------------------------
# golden tables

@dataclass(frozen=True)
class GoldenRow:
    r: int
    degree: int
    label: str
    name: str
    order: int
    s_value: int


def load_golden(r: int) -> list[GoldenRow]:
    """The shipped reference table for one r."""
    text = resources.files("setorbits").joinpath(
        f"data/tables/r{r}.tsv").read_text(encoding="utf-8")
    return parse_golden(text)


def parse_golden(text: str) -> list[GoldenRow]:
    rows = []
    for i, line in enumerate(text.strip().splitlines()):
        if i == 0 and line.startswith("r\t"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise ValueError(f"golden line {i + 1}: expected 6 columns")
        rows.append(GoldenRow(int(parts[0]), int(parts[1]), parts[2],
                              parts[3], int(parts[4]), int(parts[5])))
    return rows


@dataclass
class GoldenDiff:
    missing: list[GoldenRow]          # golden rows with no computed match
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


def compare_to_golden(report: RunReport, golden: list[GoldenRow]) -> GoldenDiff:
    """Match rows by the (degree, order, s) multiset.

    Signatures shared by several rows are matched as multisets and flagged
    as ambiguous rather than paired individually.
    """
    gold = Counter((g.degree, g.order, g.s_value) for g in golden)
    got = Counter((row.degree, row.order, row.s_value) for row in report.rows)
    missing = []
    for g in golden:
        key = (g.degree, g.order, g.s_value)
        if got[key] > 0:
            got[key] -= 1
        else:
            missing.append(g)
    extra = []
    unmatched = gold.copy()
    for row in report.rows:
        key = (row.degree, row.order, row.s_value)
        if unmatched[key] > 0:
            unmatched[key] -= 1
        else:
            extra.append(row)
    ambiguous = [(d, o, s, m) for (d, o, s), m in gold.items() if m > 1]
    return GoldenDiff(missing, extra, sorted(ambiguous))
