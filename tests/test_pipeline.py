import math
from collections import Counter

import pytest

from setorbits import prune
from setorbits.catalog import load_default
from setorbits.orbitcount import count_set_orbits
from setorbits.perm import is_primitive
from setorbits.pipeline import (
    ClassificationRow,
    DataGapError,
    RunReport,
    candidate_groups,
    classify,
    compare_to_golden,
    forced_transitive_size,
    load_golden,
    parse_golden,
)
from setorbits.subgroups import transitive_classes


# ---------------------------------------------------------------------------
# forced sizes: every divisor the reference classification uses

@pytest.mark.parametrize("n,r,t", [
    (6, 2, 2), (8, 2, 3), (12, 2, 5),
    (6, 3, 2), (7, 3, 2), (8, 3, 3), (9, 3, 3), (11, 3, 4), (12, 3, 5),
    (8, 4, 2), (10, 4, 3), (12, 4, 4),
    (9, 5, 2), (11, 5, 3), (10, 5, 3),
    (4, 1, 2), (5, 1, 2),  # s = n + 1: every size up to n/2 is one orbit
])
def test_forced_transitive_size_instantiations(n, r, t):
    assert forced_transitive_size(n, r) == t


def test_forced_size_sentinel():
    assert forced_transitive_size(4, 4) is None
    assert forced_transitive_size(3, 5) is None


def test_published_divisors():
    assert math.comb(6, 2) == 15 and math.comb(8, 3) == 56
    assert math.comb(12, 5) == 792 and math.comb(9, 3) == 84
    assert math.comb(11, 4) == 330 and math.comb(10, 3) == 120
    assert math.comb(12, 4) == 495 and math.comb(9, 2) == 36
    assert math.comb(11, 3) == 165 and math.comb(8, 2) == 28


# ---------------------------------------------------------------------------
# candidate regimes

def test_primitive_regime_degree8():
    cands = candidate_groups(8, 2)
    names = {c.name for c in cands}
    assert names == {"AGL(1,8)", "AGammaL(1,8)", "ASL(3,2)", "PSL(2,7)",
                     "PGL(2,7)"}


def test_transitive_regime_degree4():
    cands = candidate_groups(4, 2)
    assert sorted(c.group().order for c in cands) == [4, 4, 8]  # A4/S4 excluded


def test_orbit_shape_regime_degree4():
    # r > n: the transitive catalog less A_4 and S_4, and the two-orbit
    # groups, whose orbits (2, 2) give s >= 9; s = 9 is odd, so no padding
    cands = candidate_groups(4, 5)
    assert [c.id for c in cands] == ["4T2", "4T1", "4T3", "4S2", "4S6"]
    assert sorted(c.group().order for c in cands) == [2, 4, 4, 4, 8]


def test_degree2_keeps_trivial_group():
    cands = candidate_groups(2, 2)
    assert [(c.id, c.group().order) for c in cands] == [("2P1", 2), ("1P1+1", 1)]


def test_transitive_regime_degree8_uses_catalog():
    cands = candidate_groups(8, 7)  # r <= 6 is primitive by block shape
    assert len(cands) == 48  # 50 transitive classes minus A_8 and S_8
    assert all(c.group().degree == 8 for c in cands)


def _without_one_imprimitive_degree8():
    entries = list(load_default())
    drop = next(e for e in entries if e.degree == 8
                and "transitive" in e.tags and "primitive" not in e.tags)
    return [e for e in entries if e is not drop]


@pytest.mark.parametrize("r", [7, 8])
def test_missing_transitive_degree8_entry_is_a_gap(r):
    with pytest.raises(DataGapError, match="transitive catalog incomplete"):
        candidate_groups(8, r, entries=_without_one_imprimitive_degree8())


def test_transitive_degree8_gap_spares_primitive_regime():
    cands = candidate_groups(8, 5, entries=_without_one_imprimitive_degree8())
    assert [c.id for c in cands] == ["8P1", "8P2", "8P3", "8P4", "8P5"]


def test_transitive_degree8_gap_spares_block_shape_regime():
    # at r = 6, 2 blocks of 4 or 4 blocks of 2 would need s >= 15 > 14
    cands = candidate_groups(8, 6, entries=_without_one_imprimitive_degree8())
    assert [c.id for c in cands] == ["8P1", "8P2", "8P3", "8P4", "8P5"]


def test_missing_primitive_entry_is_a_gap():
    entries = [e for e in load_default() if e.id != "8P4"]
    with pytest.raises(DataGapError, match="primitive catalog incomplete"):
        candidate_groups(8, 2, entries=entries)


# ---------------------------------------------------------------------------
# prime degree: a block size divides n, so transitive means primitive

@pytest.mark.parametrize("n", [3, 5, 7])
def test_transitive_classes_of_prime_degree_are_primitive(n):
    assert all(is_primitive(c.representative) for c in transitive_classes(n))


@pytest.mark.parametrize("n,r", [(5, 3), (7, 5), (7, 6)])
def test_prime_degree_candidates_match_transitive_classes(n, r):
    """The primitive pool gives the (order, s) multiset of the transitive
    classes that pass the divisibility filter and do not contain A_n."""
    t = forced_transitive_size(n, r)
    want = Counter((c.order, count_set_orbits(c.representative))
                   for c in transitive_classes(n)
                   if not c.representative.contains_alternating()
                   and (t is None or c.order % math.comb(n, t) == 0))
    got = Counter((c.group().order, count_set_orbits(c.group()))
                  for c in candidate_groups(n, r))
    assert got == want


def test_prime_degree7_candidates():
    assert [c.id for c in candidate_groups(7, 5)] == [
        "7P1", "7P2", "7P3", "7P4", "7P5"]


def test_prime_degree7_missing_primitive_entry_is_a_gap():
    entries = [e for e in load_default() if e.id != "7P3"]
    with pytest.raises(DataGapError, match="primitive catalog incomplete"):
        candidate_groups(7, 5, entries=entries)


def test_prime_degree11_gap_closed():
    assert [c.id for c in candidate_groups(11, 9)] == [
        "11X1", "11X2", "11X3", "11X4", "11X5", "11P6"]
    report = classify(9)
    assert report.candidate_sources[11] == "primitive catalog (prime degree)"
    assert not any("degree 11" in g for g in report.gaps.values())


def test_prime_degree13_gap_still_reported():
    assert classify(11).gaps[13] == (
        "degree 13: primitive catalog does not cover degree 13")


# ---------------------------------------------------------------------------
# classification runs

@pytest.mark.parametrize("r,rows", [(2, 9), (3, 8), (4, 10), (5, 10)])
def test_classification_matches_golden(r, rows):
    report = classify(r)
    assert not report.gaps
    assert len(report.rows) == rows
    diff = compare_to_golden(report, load_golden(r))
    assert diff.empty, (diff.missing, diff.extra)


def test_classification_row_invariant():
    report = classify(2)
    for row in report.rows:
        assert row.s_value == row.degree + row.r


def test_emitted_rows_recomputed_by_enumeration():
    """Each emitted row's s-value re-derived on the independent 2^n route,
    and no emitted group contains A_n (checked by 3-cycle membership)."""
    from setorbits.orbitcount import profile_from_enumeration
    from setorbits.perm import Permutation
    for r in (2, 3):
        report = classify(r)
        for row in report.rows:
            matches = [c for c in candidate_groups(row.degree, r)
                       if c.id == row.group_label]
            assert len(matches) == 1
            G = matches[0].group()
            prof = profile_from_enumeration(G)
            assert prof.total == row.s_value
            p = prof.by_size
            assert p == p[::-1]
            assert all(p[t - 1] <= p[t] for t in range(1, row.degree // 2 + 1))
            if row.degree >= 3:
                n = row.degree
                three_cycles = [Permutation.parse(f"(1,2,{k})", n)
                                for k in range(3, n + 1)]
                assert not all(t in G for t in three_cycles)


def test_report_records_sources_and_routes():
    report = classify(3)
    assert report.candidate_sources == {
        3: "primitive catalog (prime degree) + one-point paddings",
        4: "transitive catalog",
        5: "primitive catalog (prime degree)", 6: "primitive catalog",
        7: "primitive catalog", 8: "primitive catalog", 9: "primitive catalog",
        11: "primitive catalog", 12: "primitive catalog"}
    assert not report.gaps
    assert set(report.route_counts) == set(report.candidate_sources)
    for n, routes in report.route_counts.items():
        assert sum(routes.values()) == len(candidate_groups(n, 3))
        assert set(routes) <= {"product", "shortcut", "burnside", "enumeration"}
    assert report.route_counts[12] == {"enumeration": 2}  # M11 and M12


def test_classification_deterministic():
    assert classify(3).to_tsv() == classify(3).to_tsv()


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_second_classify_reuses_prune_verdicts(r, monkeypatch):
    first = classify(r).to_tsv()

    def unreachable(n, r):
        raise AssertionError(f"degree {n} pruned again for r={r}")

    monkeypatch.setattr(prune, "step1_eliminates", unreachable)
    assert classify(r).to_tsv() == first


def test_survivor_sets_match_published_lists():
    assert classify(2).survivors() == [2, 4, 6, 8, 12]
    assert classify(3).survivors() == [3, 4, 5, 6, 7, 8, 9, 11, 12]
    assert classify(4).survivors() == [4, 6, 8, 10, 12]
    assert classify(5).survivors() == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]


def test_classify_r_out_of_range():
    with pytest.raises(ValueError):
        classify(1)
    with pytest.raises(ValueError):
        classify(12)
    with pytest.raises(ValueError):
        candidate_groups(4, 12)  # the two-orbit catalog stops at s = n + 11


def test_classify_r6_runs_clean():
    report = classify(6)
    assert not report.gaps
    assert len(report.rows) == 5
    diff = compare_to_golden(report, load_golden(6))
    assert diff.empty


def test_classify_r7():
    # degree 7 takes the one-point paddings (PGL(2,5)+1, A6+1, S6+1) and
    # degree 9 only primitive candidates (block shape)
    report = classify(7)
    assert not report.gaps
    assert len(report.rows) == 19
    diff = compare_to_golden(report, load_golden(7))
    assert diff.empty, (diff.missing, diff.extra)
    assert {row.group_label for row in report.rows if row.degree == 7} == {
        "6X1+1", "6X2+1", "6X3+1"}


# ---------------------------------------------------------------------------
# golden comparison

def test_golden_self_comparison_empty():
    report = classify(2)
    assert compare_to_golden(report, load_golden(2)).empty


@pytest.mark.parametrize("r", range(2, 8))
def test_golden_rows_round_trip(r):
    """Reference tables and run reports share one row type: a report's TSV
    parses back to its own rows."""
    report = classify(r)
    assert parse_golden(report.to_tsv()) == report.rows


HEADER = "r\tdegree\tlabel\tname\torder\ts\n"
ROW = "2\t4\t4S2\tV4\t4\t6\n"


def test_parse_golden_names_file_line_of_bad_integer():
    text = "\n\n" + HEADER + ROW + "2\t4\t4S2\tV4\tfour\t6\n"
    with pytest.raises(ValueError, match=r"^golden line 5: bad integer"):
        parse_golden(text)


def test_parse_golden_counts_leading_blank_lines():
    text = "\n\n" + HEADER + "2\t4\t4S2\n"
    with pytest.raises(ValueError, match=r"^golden line 4: expected 6 columns"):
        parse_golden(text)


def test_parse_golden_skips_blank_lines_and_header():
    row = parse_golden(ROW)[0]
    assert parse_golden("\n" + HEADER + "\n" + ROW + "\n") == [row]
    assert row == ClassificationRow(2, 4, "4S2", "V4", 4, 6)


def test_golden_negative_control():
    report = classify(2)
    golden = load_golden(2)[:-1]  # drop one row
    diff = compare_to_golden(report, golden)
    assert len(diff.extra) == 1 and not diff.missing


def test_golden_missing_detected():
    report = classify(2)
    golden = load_golden(2) + [parse_golden(
        "9\t9\t9X99\tfake\t999\t11\n")[0]]
    diff = compare_to_golden(report, golden)
    assert len(diff.missing) == 1


def test_ambiguous_signatures_flagged():
    report = classify(4)
    diff = compare_to_golden(report, load_golden(4))
    # two degree-6 order-36 rows share a signature
    assert any(d == 6 and o == 36 and m == 2 for d, o, s, m in diff.ambiguous)


def test_golden_tables_have_expected_row_counts():
    for r, n in [(2, 9), (3, 8), (4, 10), (5, 10), (6, 5), (7, 19), (8, 9),
                 (9, 10), (10, 14), (11, 28)]:
        assert len(load_golden(r)) == n


# ---------------------------------------------------------------------------
# golden tables for r = 6..11, with their data gaps

@pytest.mark.parametrize("r", [6, 7, 8, 9, 10, 11])
def test_spot_checks_fully_reproduce(r, golden_check_failures):
    assert golden_check_failures(classify(r), load_golden(r)) == []


@pytest.mark.parametrize("r,gaps", [
    (8, {14, 18}), (9, {13, 14, 17, 18}), (10, {14, 16, 18}),
    (11, {9, 10, 13, 14, 15, 16, 17, 18})], ids=["8", "9", "10", "11"])
def test_gap_degrees(r, gaps):
    assert set(classify(r).gaps) == gaps


def test_golden_check_negative_control(golden_check_failures):
    # degree 9 is a gap at r = 11, and one catalog entry has 9S497's signature
    golden = load_golden(11)
    (row,) = [g for g in golden if g.group_label == "9S497"]
    assert golden_check_failures(classify(11), golden) == []
    assert golden_check_failures(classify(11), golden + [row]) == [
        "2 missing rows (9, 324, 20), 1 catalog entries"]


@pytest.mark.parametrize("r,labels", [
    (7, ("5S10", "5S11")), (9, ("6S40", "6S41")), (10, ("6S35", "6S37")),
    (11, ("7S87", "7S88"))], ids=["7", "9", "10", "11"])
def test_shared_signatures_matched_by_distinct_rows(r, labels):
    gold = [g for g in load_golden(r) if g.group_label in labels]
    assert len(gold) == 2
    assert len({(g.degree, g.order, g.s_value) for g in gold}) == 1
    key = (gold[0].degree, gold[0].order, gold[0].s_value)
    rows = [row for row in classify(r).rows
            if (row.degree, row.order, row.s_value) == key]
    assert len(rows) == len({row.group_label for row in rows}) == 2


def test_spot_check_named_rows():
    rows7 = {row.group_label: row for row in classify(7).rows}
    assert rows7["12P1"].s_value == 19
    rows10 = {row.group_label: row for row in classify(10).rows}
    assert rows10["12T179"].s_value == 22
