"""Acceptance gate: one test per criterion, exact tolerances, one summary
line printed per criterion (run with -s or -v to see them)."""

import random
import time

from setorbits.catalog import builtin, by_id, load_default, verify_entry
from setorbits.orbitcount import (
    count_set_orbits,
    orbit_profile,
    profile_from_enumeration,
)
from setorbits.perm import Permutation, build_group, transitivity_degree
from setorbits.prune import (
    degree_bound,
    degree_range,
    prune_degree,
    step1_eliminates,
)
from setorbits.pipeline import classify, compare_to_golden, load_golden
from setorbits.subgroups import all_subgroups


def report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. oracle equivalence

def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for e in load_default():
        G = e.group()
        prof = orbit_profile(G)
        enum = profile_from_enumeration(G)
        assert prof == enum, e.id
        assert count_set_orbits(G) == enum.total, e.id
        checked += 1
    for n in range(2, 7):
        for c in all_subgroups(n):
            G = c.representative
            prof = orbit_profile(G)
            enum = profile_from_enumeration(G)
            assert prof == enum, (n, c.index)
            assert count_set_orbits(G) == enum.total
            checked += 1
    elapsed = time.time() - t0
    report(f"criterion 1 PASS: Burnside == enumeration on {checked} groups "
           f"({elapsed:.1f}s, target < 60s)")
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. published spot values

SPOT_VALUES = [
    ("trivial deg 2", lambda: build_group([], degree=2), 4),
    ("C4", lambda: builtin("cyclic", 4), 6),
    ("D8", lambda: builtin("dihedral", 4), 6),
    ("PSL(2,5)", lambda: by_id("6P1").group(), 8),
    ("AGL(1,8)", lambda: by_id("8P1").group(), 10),
    ("AGammaL(1,8)", lambda: by_id("8P2").group(), 10),
    ("PGL(2,7)", lambda: by_id("8P5").group(), 10),
    ("ASL(3,2)", lambda: by_id("8P3").group(), 10),
    ("M12", lambda: by_id("12P2").group(), 14),
    ("PSL(2,7) deg 8", lambda: by_id("8P4").group(), 11),
    ("M11 deg 11", lambda: by_id("11P6").group(), 14),
    ("AGL(1,7)", lambda: by_id("7P4").group(), 10),
    ("L(3,2) deg 7", lambda: by_id("7P5").group(), 10),
    ("PGL(2,9)", lambda: by_id("10P4").group(), 14),
    ("PGammaL(2,9)", lambda: by_id("10P7").group(), 14),
    ("C7:C3", lambda: by_id("7P3").group(), 12),
    ("ASL(2,3)", lambda: by_id("9P6").group(), 14),
    ("AGL(2,3)", lambda: by_id("9P7").group(), 14),
    ("M10", lambda: by_id("10P6").group(), 15),
    ("M11 deg 12", lambda: by_id("12P1").group(), 19),
    ("PSL(2,11) deg 12", lambda: by_id("12T179").group(), 22),
]


def test_criterion_2_spot_values():
    for name, make, want in SPOT_VALUES:
        got = count_set_orbits(make())
        assert got == want, f"{name}: s = {got}, expected {want}"
    report(f"criterion 2 PASS: {len(SPOT_VALUES)} published s-values exact")


# ---------------------------------------------------------------------------
# 3. pruning reproduction

def test_criterion_3_pruning():
    assert [n for n in degree_range(2) if prune_degree(n, 2).stage
            not in ("parity", "step1")] == [2, 4, 6, 8, 10, 12, 14, 16, 24]
    assert classify(2).survivors() == [2, 4, 6, 8, 12]
    assert classify(3).survivors() == [3, 4, 5, 6, 7, 8, 9, 11, 12]
    assert prune_degree(24, 2).witness_text() == "t*=11,h=5"
    report("criterion 3 PASS: step-1/step-2 survivor lists and the n=24 "
           "witness reproduce exactly")


# ---------------------------------------------------------------------------
# 4. the degree window

def test_criterion_4_degree_window():
    for r in range(1, 17):
        assert degree_bound(r) <= 81
        assert all(step1_eliminates(n, r) is not None
                   for n in range(degree_bound(r) + 1, 82))
    report("criterion 4 PASS: for r=1..16 the degree bound is at most 81 "
           "and step 1 eliminates every degree between it and 81")


# ---------------------------------------------------------------------------
# 5. full classification reproduction, r = 2..5

def test_criterion_5_classification():
    t0 = time.time()
    counts = {}
    for r, want in [(2, 9), (3, 8), (4, 10), (5, 10)]:
        rep = classify(r)
        assert not rep.gaps, (r, rep.gaps)
        diff = compare_to_golden(rep, load_golden(r))
        assert diff.empty, (r, diff.missing, diff.extra)
        assert len(rep.rows) == want
        counts[r] = len(rep.rows)
    elapsed = time.time() - t0
    report(f"criterion 5 PASS: r=2..5 reproduce with row counts {counts} "
           f"({elapsed:.1f}s, target < 600s)")
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 6. partial checks for r = 6..11

def test_criterion_6_partial_large_r(golden_check_failures):
    found = in_gaps = 0
    for r in range(6, 12):
        rep = classify(r)
        golden = load_golden(r)
        assert golden_check_failures(rep, golden) == [], r
        missing = len(compare_to_golden(rep, golden).missing)
        found += len(golden) - missing
        in_gaps += missing
    # named examples from the criterion
    assert {row.group_label: row.s_value for row in classify(7).rows}["12P1"] == 19
    assert {row.group_label: row.s_value for row in classify(10).rows}["12T179"] == 22
    report(f"criterion 6 PASS: r=6..11: {found} golden rows found by classify, "
           f"{in_gaps} at gap degrees matched by distinct catalog entries, "
           f"no extra row")


# ---------------------------------------------------------------------------
# 7. invariant suite on random subgroups

def test_criterion_7_random_invariants():
    rng = random.Random(20240809)
    checked = 0
    for n in range(2, 9):
        for _ in range(29):
            a = Permutation(rng.sample(range(n), n))
            b = Permutation(rng.sample(range(n), n))
            G = build_group([a, b], degree=n)
            H = build_group([a], degree=n)
            pg = orbit_profile(G)
            ph = orbit_profile(H)
            # symmetry and monotonicity
            p = pg.by_size
            assert p == p[::-1]
            assert all(p[t - 1] <= p[t] for t in range(1, n // 2 + 1))
            # lower bounds
            assert pg.total >= n + 1
            assert pg.total * G.order >= 2 ** n
            # refinement for H <= G
            assert all(x >= y for x, y in zip(ph.by_size, pg.by_size))
            # transitivity bridge
            k = transitivity_degree(G)
            assert all(pg.by_size[u] == 1 for u in range(min(k, n) + 1))
            checked += 1
    assert checked == 203
    report(f"criterion 7 PASS: invariants hold on {checked} random subgroups "
           f"of S_n, n <= 8 (exact Burnside divisibility asserted throughout)")


# ---------------------------------------------------------------------------
# 8. subgroup class counts against frozen oracle fixtures

def test_criterion_8_subgroup_counts():
    # S_5 and S_6 counts were computed once by the naive join-closure oracle
    # (scripts/subgroup_oracle.py): 19/156 and 56/1455
    want = {3: 4, 4: 11, 5: 19, 6: 56}
    for n, k in want.items():
        assert len(all_subgroups(n)) == k
    report(f"criterion 8 PASS: class counts {want} match the frozen oracle "
           f"fixtures")


# ---------------------------------------------------------------------------
# catalog gate (supports criteria 2 and 6; every shipped entry must verify)

def test_catalog_fully_verified():
    bad = [e.id for e in load_default() if verify_entry(e)]
    assert not bad, bad
    report(f"catalog gate PASS: all {len(load_default())} entries rebuilt "
           f"and verified")
