"""Workload inputs, operations and set-up.

Each in-process workload is a list of operations that make up one round.
The seed fixes the inputs; it never changes how much work a round does:
groups are relabelled by a seeded permutation (which leaves Burnside and
enumeration work unchanged), and direct-product factors are drawn within
fixed (degree, order) classes of the catalog, so every seed iterates the
same number of group elements.  This keeps the run-to-run spread a
measure of the program rather than of the draw.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import checks
from setorbits import catalog, orbitcount, perm, pipeline, subgroups

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = os.path.join(ROOT, "src", "setorbits", "data", "tables")

COLD_R = (2, 3, 4, 5, 6)
WARM_R = (2, 3, 4, 6)
#: sweeps over WARM_R in one classify-warm round
WARM_REPEATS = 50
#: seeded relabellings of every catalog entry, and draws of every product
#: slot, in one count-profiles round: the labelling moves a group's chain
#: build (one S11 took 28 to 75 ms over eight labellings), so one draw
#: would let the seed move the operation-time percentiles
RELABELLINGS = 3
#: subset enumeration cross-checks count-profiles outputs up to this degree
ENUM_CHECK_MAX_DEGREE = 12

#: direct-product factors as ((degree, order), (degree, order)) catalog classes
PRODUCT_SLOTS = [
    ((8, 8), (8, 8)), ((8, 8), (8, 16)), ((8, 16), (8, 16)),
    ((8, 16), (8, 32)), ((8, 24), (8, 32)), ((8, 32), (8, 32)),
    ((8, 32), (8, 64)), ((8, 48), (8, 64)), ((8, 64), (8, 64)),
    ((8, 64), (8, 96)), ((8, 96), (8, 192)), ((8, 168), (8, 192)),
    ((9, 72), (7, 21)), ((9, 162), (7, 14)),
]

#: orbit-partition families: (kind, parameters), degrees 12..18
PARTITION_FAMILIES = [
    ("wreath", (3, 4)), ("wreath", (6, 2)), ("wreath", (2, 7)),
    ("wreath", (5, 3)), ("wreath", (8, 2)), ("wreath", (4, 4)),
    ("young", (5, 7)), ("young", (2, 3, 4, 4)), ("young", (3, 5, 6)),
    ("cyclic", (12,)), ("cyclic", (15,)), ("cyclic", (17,)), ("cyclic", (18,)),
    ("dihedral", (13,)), ("dihedral", (16,)),
]


# ---------------------------------------------------------------------------
# permutations as 0-based image lists

def parse_cycles(text: str, n: int) -> list[int]:
    img = list(range(n))
    for body in text.replace(" ", "").strip("()").split(")("):
        pts = [int(p) - 1 for p in body.split(",") if p]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return img


def cycles_text(img: list[int]) -> str:
    seen, out = set(), []
    for i in range(len(img)):
        if i in seen or img[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1))
            j = img[j]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out) or "()"


def relabel(gens: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Conjugate every generator by one random permutation s: i -> s[i]."""
    n = len(gens[0])
    s = list(range(n))
    rng.shuffle(s)
    out = []
    for g in gens:
        h = [0] * n
        for i, j in enumerate(g):
            h[s[i]] = s[j]
        out.append(h)
    return out


def _shift(g: list[int], offset: int, n: int) -> list[int]:
    """g acting on points offset..offset+len(g)-1 of n points."""
    img = list(range(n))
    for i, j in enumerate(g):
        img[offset + i] = offset + j
    return img


def _symmetric_gens(k: int) -> list[list[int]]:
    if k < 2:
        return []
    gens = [[1, 0] + list(range(2, k))]
    if k >= 3:
        gens.append(list(range(1, k)) + [0])
    return gens


def family_gens(kind: str, params: tuple) -> tuple[list[list[int]], int]:
    """Generators of one orbit-partition family and its closed-form count."""
    if kind == "wreath":
        k, m = params
        n = k * m
        gens = [_shift(g, 0, n) for g in _symmetric_gens(k)]
        gens += [[h[p // k] * k + p % k for p in range(n)]
                 for h in _symmetric_gens(m)]
        return gens, checks.wreath_orbits(k, m)
    if kind == "young":
        n = sum(params)
        gens, offset = [], 0
        for a in params:
            gens += [_shift(g, offset, n) for g in _symmetric_gens(a)]
            offset += a
        return gens, checks.young_orbits(params)
    (n,) = params
    rot = list(range(1, n)) + [0]
    if kind == "cyclic":
        return [rot], checks.necklaces(n)
    flip = [(-i) % n for i in range(n)]
    return [rot, flip], checks.bracelets(n)


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _build(n: int, texts: list[str]) -> perm.PermGroup:
    return perm.build_group([perm.parse_permutation(t, n) for t in texts],
                            degree=n)


def count_profiles_ops(seed: int) -> list[Op]:
    """Every catalog entry, relabelled, plus one direct product per slot,
    each RELABELLINGS times.

    An operation parses and builds the group and computes its profile and
    its set-orbit count, as ``setorbits orbits --per-size`` does.
    """
    rng = random.Random(seed)
    entries = catalog.load_default()
    by_class: dict[tuple[int, int], list] = {}
    for e in entries:
        by_class.setdefault((e.degree, e.expected_order), []).append(e)
    enum_profile: dict[str, tuple[int, ...]] = {}

    def factor_profile(e) -> tuple[int, ...]:
        if e.id not in enum_profile:
            enum_profile[e.id] = orbitcount.profile_from_enumeration(e.group()).by_size
        return enum_profile[e.id]

    ops = []
    for e in entries * RELABELLINGS:
        gens = relabel([parse_cycles(t, e.degree) for t in e.generator_texts]
                       or [list(range(e.degree))], rng)
        ops.append(_profile_op(e.id, e.degree, gens, e.expected_order,
                               e.expected_s, None))
    for ca, cb in PRODUCT_SLOTS * RELABELLINGS:
        a, b = rng.choice(by_class[ca]), rng.choice(by_class[cb])
        n = a.degree + b.degree
        gens = [_shift(parse_cycles(t, a.degree), 0, n) for t in a.generator_texts]
        gens += [_shift(parse_cycles(t, b.degree), a.degree, n)
                 for t in b.generator_texts]
        ops.append(_profile_op(
            f"{a.id}x{b.id}", n, relabel(gens, rng),
            a.expected_order * b.expected_order, None,
            lambda a=a, b=b: checks.convolve(factor_profile(a), factor_profile(b))))
    rng.shuffle(ops)
    return ops


def _profile_op(label: str, n: int, gens: list[list[int]], expected_order: int,
                expected_s: Optional[int],
                expected_profile: Optional[Callable[[], tuple]]) -> Op:
    texts = [cycles_text(g) for g in gens]

    def run():
        G = _build(n, texts)
        prof = orbitcount.orbit_profile(G)
        return G.order, prof.by_size, orbitcount.count_set_orbits(G)

    def check(out) -> list[str]:
        order, profile, s = out
        want = expected_profile() if expected_profile else None
        if want is None and n <= ENUM_CHECK_MAX_DEGREE:
            want = orbitcount.profile_from_enumeration(_build(n, texts)).by_size
        return [f"{label}: {p}" for p in checks.profile_problems(
            profile, s, order, n, gens, expected_order, expected_s, want)]

    return Op(label, run, check)


def orbit_partition_ops(seed: int) -> list[Op]:
    """Seeded relabellings of the families in PARTITION_FAMILIES.  An
    operation builds the group and enumerates its orbits on all 2^n
    subsets, as ``setorbits orbits --dump`` does."""
    rng = random.Random(seed)
    ops = []
    for kind, params in PARTITION_FAMILIES:
        gens, expected = family_gens(kind, params)
        gens = relabel(gens, rng)
        n = len(gens[0])
        texts = [cycles_text(g) for g in gens]
        label = f"{kind}{params}"
        ops.append(Op(
            label,
            lambda n=n, texts=texts: orbitcount.enumerate_set_orbits(_build(n, texts)),
            lambda out, n=n, gens=gens, expected=expected, label=label: [
                f"{label}: {p}" for p in
                checks.partition_problems(out, n, gens, expected)]))
    rng.shuffle(ops)
    return ops


def classify_rows(r: int) -> tuple[tuple[int, str, int, int], ...]:
    """classify(r), strict, as (degree, label, order, s) rows."""
    rep = pipeline.classify(r)
    return tuple((x.degree, x.group_label, x.order, x.s_value) for x in rep.rows)


def rederive(rows) -> dict[str, int]:
    """s of every row's group, found again by subset enumeration."""
    out = {}
    for degree, label, _, _ in rows:
        if label.startswith(f"S{degree}-cls"):
            index = int(label.split("-cls")[1])
            G = subgroups.all_subgroups(degree)[index - 1].representative
        else:
            G = catalog.by_id(label).group()
        out[label] = orbitcount.profile_from_enumeration(G).total
    return out


def classify_check(r: int, rows, rederived: dict[str, int]) -> list[str]:
    golden = checks.read_golden(os.path.join(TABLES, f"r{r}.tsv"))
    return checks.classify_problems(r, rows, golden, rederived)


def classify_warm_ops(seed: int) -> list[Op]:
    """WARM_REPEATS sweeps; a sweep calls classify(r) once for each r in
    WARM_R, in a seeded order.  A sweep, not a single call, is the
    operation, so that operation times do not fall into one cluster per r
    with the median on the edge between two of them."""
    rng = random.Random(seed)
    verdicts: dict[tuple, list[str]] = {}

    def check(sweep) -> list[str]:
        problems = []
        for r, rows in sweep:
            if (r, rows) not in verdicts:
                verdicts[r, rows] = classify_check(r, rows, rederive(rows))
            problems += verdicts[r, rows]
        return problems

    ops = []
    for _ in range(WARM_REPEATS):
        order = list(WARM_R)
        rng.shuffle(order)
        ops.append(Op("sweep" + "".join(map(str, order)),
                      lambda order=order: tuple((r, classify_rows(r)) for r in order),
                      check))
    return ops


OPS = {
    "classify-warm": classify_warm_ops,
    "count-profiles": count_profiles_ops,
    "orbit-partition": orbit_partition_ops,
}


# ---------------------------------------------------------------------------
# set-up

def setup(workload: str) -> float:
    """What a fresh process pays before its first timed operation: the
    catalog load, and for classify-warm one untimed pass that fills the
    pipeline's caches.  Returns the time of the catalog load."""
    t0 = time.perf_counter()
    catalog.load_default()
    load_s = time.perf_counter() - t0
    if workload == "classify-warm":
        for r in WARM_R:
            pipeline.classify(r)
    return load_s
