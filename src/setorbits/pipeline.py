"""End-to-end classification of permutation groups with s(G) = n + r.

For a target excess r, the run bounds the degree (n <= 81 for r < 16),
eliminates degrees by parity and the two prime-window arguments, selects
candidate groups per surviving degree, computes s(G) exactly for each and
keeps the hits.  Candidate selection splits on how much transitivity the
excess forces:

* r < n - 2: one split subset size of 2 would already overshoot, so
  candidates are primitive and C(n, t*) must divide the order, where t* is
  the largest size whose orbit count is forced to 1;
* r < n: a split size 1 would overshoot, so candidates are transitive.  At
  a prime degree they are primitive too (a block size divides n), so they
  come from the primitive catalog as above; otherwise they are the
  transitive classes (subgroup enumeration for n <= SUBGROUP_MAX_DEGREE = 7,
  the catalog's transitive entries otherwise);
* r >= n: every subgroup class of S_n is checked.

Groups containing A_n always have s = n + 1 and are excluded throughout.
The run report records, per degree, where the candidates came from and how
many of them each counting route (``orbitcount.counting_route``) took.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from . import catalog as cat
from .orbitcount import count_set_orbits, counting_route
from .perm import PermGroup
from .prune import PruneVerdict, binomial_divides, degree_range, is_prime, prune_degree
from .subgroups import SUBGROUP_MAX_DEGREE, SubgroupCapError, all_subgroups, transitive_classes

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


PRIMITIVE = "primitive catalog"
PRIMITIVE_PRIME = "primitive catalog (prime degree)"
TRANSITIVE_CATALOG = "transitive catalog"


def candidate_source(n: int, r: int) -> str:
    """Where the candidates for s(G) = n + r at degree n come from."""
    if r < n - 2:
        return PRIMITIVE
    if r < n and is_prime(n):
        return PRIMITIVE_PRIME
    if r < n:
        if n <= SUBGROUP_MAX_DEGREE:
            return f"transitive classes of S_{n}"
        return TRANSITIVE_CATALOG
    return f"subgroup classes of S_{n}"


def candidate_groups(n: int, r: int,
                     entries: Iterable[cat.CatalogEntry] | None = None) -> list[Candidate]:
    """Candidates for s(G) = n + r at a surviving degree n.

    Raises DataGapError when the needed subgroup enumeration or catalog
    coverage is unavailable.
    """
    if entries is None:
        entries = cat.load_default()
    entries = list(entries)
    out: list[Candidate] = []
    source = candidate_source(n, r)
    if source in (PRIMITIVE, PRIMITIVE_PRIME):
        if n not in cat.PRIMITIVE_COUNTS:
            raise DataGapError([f"degree {n}: primitive catalog does not "
                                f"cover degree {n}"])
        pool = cat.candidates(n, "primitive", entries=entries)
        _require_count(pool, cat.PRIMITIVE_COUNTS[n], n, "primitive")
        for e in pool:
            if _divides_filter(n, r, e.expected_order):
                out.append(Candidate(e.group(), e.id, e.name))
    elif source == TRANSITIVE_CATALOG:
        if n != 8:
            raise DataGapError(
                [f"degree {n}: needs subgroup data for S_{n} (cap "
                 f"{SUBGROUP_MAX_DEGREE}) or a complete transitive catalog"])
        pool = cat.candidates(n, "transitive", entries=entries)
        _require_count(pool, cat.TRANSITIVE_8_COUNT, n, "transitive")
        for e in pool:
            if _divides_filter(n, r, e.expected_order):
                out.append(Candidate(e.group(), e.id, e.name))
    elif r < n:
        for c in transitive_classes(n):
            if _divides_filter(n, r, c.order):
                out.append(Candidate(c.representative, f"S{n}-cls{c.index}",
                                     f"transitive class {c.index} of S_{n}"))
    else:
        try:
            classes = all_subgroups(n)
        except SubgroupCapError as exc:
            raise DataGapError([f"degree {n}: needs subgroup data for S_{n} "
                                f"({exc})"]) from None
        for c in classes:
            out.append(Candidate(c.representative, f"S{n}-cls{c.index}",
                                 f"subgroup class {c.index} of S_{n}"))
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


def _s_of(G: PermGroup) -> int:
    return _s_and_route(G)[0]


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
    from collections import Counter
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
    gold2 = Counter((g.degree, g.order, g.s_value) for g in golden)
    for row in report.rows:
        key = (row.degree, row.order, row.s_value)
        if gold2[key] > 0:
            gold2[key] -= 1
        else:
            extra.append(row)
    ambiguous = [(d, o, s, m) for (d, o, s), m in
                 Counter((g.degree, g.order, g.s_value) for g in golden).items()
                 if m > 1]
    return GoldenDiff(missing, extra, sorted(ambiguous))


# ---------------------------------------------------------------------------
# spot checks for the large-r tables

@dataclass
class SpotCheckReport:
    r: int
    reproduced: list[tuple[GoldenRow, str]]   # (row, how)
    out_of_cap: list[tuple[GoldenRow, str]]   # (row, why)
    failed: list[tuple[GoldenRow, str]]

    @property
    def ok(self) -> bool:
        return not self.failed

    def lines(self) -> list[str]:
        out = []
        for row, how in self.reproduced:
            out.append(f"r={row.r} {row.label}: s={row.s_value} reproduced ({how})")
        for row, why in self.out_of_cap:
            out.append(f"r={row.r} {row.label}: out of cap ({why})")
        for row, why in self.failed:
            out.append(f"r={row.r} {row.label}: FAILED ({why})")
        return out


def spot_check_golden(r: int,
                      entries: Iterable[cat.CatalogEntry] | None = None) -> SpotCheckReport:
    """Reproduce each golden row from the catalog or subgroup enumeration.

    Rows whose groups would require subgroup enumeration beyond the cap are
    reported as out-of-cap, never silently dropped.
    """
    if entries is None:
        entries = cat.load_default()
    entries = list(entries)
    reproduced, out_of_cap, failed = [], [], []
    for row in load_golden(r):
        matches = [e for e in entries
                   if e.degree == row.degree and e.expected_order == row.order]
        hit = None
        for e in matches:
            if _s_of(e.group()) == row.s_value:
                hit = f"catalog {e.id}"
                break
        if hit is None and row.degree <= SUBGROUP_MAX_DEGREE:
            for c in all_subgroups(row.degree):
                if c.order == row.order and _s_of(c.representative) == row.s_value:
                    hit = f"subgroup class {c.index} of S_{row.degree}"
                    break
        if hit is not None:
            reproduced.append((row, hit))
        elif row.degree > SUBGROUP_MAX_DEGREE:
            out_of_cap.append(
                (row, f"needs subgroup enumeration of S_{row.degree}, cap is "
                      f"{SUBGROUP_MAX_DEGREE}"))
        else:
            failed.append((row, "no group with this degree/order/s found"))
    return SpotCheckReport(r, reproduced, out_of_cap, failed)
