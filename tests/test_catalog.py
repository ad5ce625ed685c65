import importlib.util
import math
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest

from setorbits import perm, pipeline
from setorbits.catalog import (
    MANIFEST,
    PRIMITIVE_COUNTS,
    PRIMITIVE_MAXIMA,
    CatalogError,
    DataGapError,
    TRANSITIVE_COUNTS,
    TWO_ORBIT_COUNTS,
    builtin,
    by_id,
    check_manifest,
    format_entry,
    load_default,
    padded,
    parse_catalog,
    pool,
    verify_entry,
)
from setorbits.orbitcount import count_set_orbits, counting_route
from setorbits.perm import (Permutation, _Chain, _order_from_generators,
                            build_group, contains_alternating, is_primitive,
                            is_transitive)
from setorbits.pipeline import candidate_groups, forced_transitive_size
from setorbits.subgroups import conjugate_in_sn
from test_perm import _oracle_script


# ---------------------------------------------------------------------------
# parsing

def test_parse_simple_record():
    entries = parse_catalog("x1|6|PSL(2,5)|60|transitive,primitive|"
                            "(1,2,3,4,5);(1,6)(2,5)|8\n# comment\n")
    (e,) = entries
    assert e.degree == 6 and e.expected_order == 60 and e.expected_s == 8
    assert e.group().order == 60


def test_parse_empty_stream():
    assert parse_catalog("") == []


def test_duplicate_id_rejected():
    text = ("a|2|X|2|transitive|(1,2)|3\n"
            "a|2|Y|2|transitive|(1,2)|3\n")
    with pytest.raises(CatalogError, match="duplicate id"):
        parse_catalog(text)


def test_padding_suffix_id_rejected():
    # by_id("a+1") pads entry "a", so it could never return a record "a+1"
    text = ("a|2|X|2|transitive|(1,2)|3\n"
            "a+1|3|Y|2||(1,2)|6\n")
    with pytest.raises(CatalogError, match=r"line 2: id 'a\+1' ends in '\+1'"):
        parse_catalog(text)


def test_malformed_record_reports_line():
    with pytest.raises(CatalogError, match="line 2"):
        parse_catalog("# header\nbad|record\n")


def test_recorded_s_is_required():
    with pytest.raises(CatalogError, match="expected 7 fields, got 6"):
        parse_catalog("a|2|X|2|transitive|(1,2)\n")
    with pytest.raises(CatalogError, match="bad integer field"):
        parse_catalog("a|2|X|2|transitive|(1,2)|\n")


def test_generator_texts_are_the_shipped_words():
    """Each word is parsed once, on load; printing the parsed generators
    gives back the words of the entry's line, and ``format_entry`` gives
    back the whole line."""
    text = resources.files("setorbits").joinpath("data/groups.cat").read_text(
        encoding="utf-8")
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    entries = load_default()
    assert len(lines) == len(entries)
    for line, e in zip(lines, entries):
        assert e.generator_texts == tuple(
            w for w in line.split("|")[5].split(";") if w), e.id
        assert format_entry(e) == line


def test_generator_out_of_range_rejected():
    with pytest.raises(CatalogError, match="bad generator"):
        parse_catalog("a|3|X|3|transitive|(1,4)|4\n")


@pytest.mark.parametrize("tag", ["shiny", "paper:8P1"])
def test_unknown_tag_rejected(tag):
    # a record carries only the tags the manifest counts
    with pytest.raises(CatalogError, match="unknown tag"):
        parse_catalog(f"a|2|X|2|{tag}|(1,2)|3\n")


@pytest.mark.parametrize("tags", ["primitive,transitive",
                                  "transitive,transitive,primitive",
                                  "transitive,,primitive"])
def test_tags_out_of_manifest_order_rejected(tags):
    # format_entry writes each tag once in manifest order, so only that
    # field reads back as the same record
    with pytest.raises(CatalogError,
                       match=r"line 2: tags .* are not 'transitive,primitive'"):
        parse_catalog(f"# C5\n5X9|5|C5|5|{tags}|(1,2,3,4,5)|8\n")


@pytest.mark.parametrize("text,field,value", [
    ("a|0|X|1|||2\n", "degree", 0),
    ("a|2|X|0|transitive|(1,2)|3\n", "order", 0),
    ("a|2|X|2|transitive|(1,2)|0\n", "set-orbit count", 0),
    ("a|2|X|2|transitive|(1,2)|-5\n", "set-orbit count", -5)])
def test_degree_order_or_s_below_one_rejected(text, field, value):
    with pytest.raises(CatalogError,
                       match=f"line 1: {field} {value} is below 1"):
        parse_catalog(text)


# ---------------------------------------------------------------------------
# verification gate

def test_all_shipped_entries_verify():
    bad = [(e.id, failures) for e in load_default()
           if (failures := verify_entry(e))]
    assert not bad, bad


def test_verifying_every_entry_builds_one_chain_each(chain_builds):
    """The order check reads the group's own chain, which the count then
    reuses: no second chain from the same generators."""
    assert all(verify_entry(e) == [] for e in load_default())
    assert len(chain_builds) == len(load_default()) == 168


def test_order_rule_disagreeing_with_the_chain_is_an_order_failure(
        monkeypatch):
    # no subgroup of S_n has order n! + 1
    monkeypatch.setattr(perm, "_order_from_generators",
                        lambda G: math.factorial(G.degree) + 1)
    for e in load_default():
        (failure,) = verify_entry(e)
        assert failure.startswith("order: "), (e.id, failure)


def test_manifest_complete():
    assert check_manifest() == []


def test_pool_is_every_entry_of_a_degree_and_tag():
    assert [e.id for e in pool(5, "primitive")] == [
        "5P1", "5P2", "5P3", "5P4", "5P5"]
    assert [e.id for e in pool(4, "two-orbit")] == ["4S2", "4S6"]
    assert pipeline.DataGapError is DataGapError


def test_pool_and_manifest_take_a_one_shot_iterator():
    """Each reads its entries in one pass, so an iterator gives what the
    list gives."""
    entries = list(load_default())
    for tag, counts in MANIFEST.items():
        for n in counts:
            assert pool(n, tag, iter(entries)) == pool(n, tag, entries)
    del entries[-1]  # S12
    assert check_manifest(iter(entries)) == check_manifest(entries) == [
        "degree 12: 5 primitive entries, expected 6"]


def test_pools_are_pairwise_non_conjugate():
    """A pool matching its manifest count is complete only if no two of its
    entries are S_n-conjugate; entries that differ in order or s are not."""
    pairs = [(a, b) for tag, counts in MANIFEST.items() for n in counts
             for a, b in combinations(pool(n, tag), 2)
             if (a.expected_order, a.expected_s)
             == (b.expected_order, b.expected_s)]
    assert len(pairs) == 20
    for a, b in pairs:
        assert conjugate_in_sn(a.group(), b.group()) is None, (a.id, b.id)


def test_pool_of_an_uncounted_degree_is_a_gap():
    with pytest.raises(DataGapError) as exc:
        pool(13, "primitive")
    assert str(exc.value) == (
        "degree 13: primitive catalog does not cover degree 13")


def test_pool_with_another_count_is_a_gap():
    entries = [e for e in load_default() if e.id != "8P4"]
    with pytest.raises(DataGapError) as exc:
        pool(8, "primitive", entries)
    assert str(exc.value) == ("primitive catalog incomplete: degree 8: "
                              "6 primitive entries, expected 7")
    with pytest.raises(DataGapError) as exc:
        pool(4, "two-orbit", list(load_default()) + [by_id("4S2")])
    assert str(exc.value) == ("two-orbit catalog incomplete: degree 4: "
                              "3 two-orbit entries, expected 2")


def test_corrupted_generator_fails_order_check():
    (e,) = parse_catalog("bad|6|PSL(2,5)-ish|60|transitive,primitive|"
                         "(1,2,3,4,5);(1,6)|8\n")
    failures = verify_entry(e)
    assert failures
    assert any(f.startswith("order: ") for f in failures)


def test_wrong_tag_fails():
    (e,) = parse_catalog("bad|4|C4|4|transitive,primitive|(1,2,3,4)|6\n")
    assert any(f.startswith("primitive-tag: ") for f in verify_entry(e))


def test_named_spot_entries():
    agl18 = by_id("8P1")
    assert verify_entry(agl18) == []
    assert agl18.expected_order == 56 and agl18.expected_s == 10
    pgl29 = by_id("10P4")
    assert pgl29.expected_order == 720 and pgl29.expected_s == 14


def test_primitive_entries_are_transitive():
    for e in load_default():
        if "primitive" in e.tags:
            assert "transitive" in e.tags


def test_no_line_has_a_fixed_point():
    # a group with a fixed point is shipped once, as the padding "<id>+1"
    assert [e.id for e in load_default()
            if e.degree >= 2
            and any(len(O) == 1 for O in e.group().orbits())] == []


# ---------------------------------------------------------------------------
# builtins

def test_builtin_cyclic():
    C4 = builtin("cyclic", 4)
    assert C4.order == 4 and count_set_orbits(C4) == 6


def test_builtin_dihedral():
    D8 = builtin("dihedral", 4)
    assert D8.order == 8 and count_set_orbits(D8) == 6
    with pytest.raises(ValueError):
        builtin("dihedral", 2)


def test_builtin_symmetric_and_alternating():
    for n in (1, 2, 3, 5, 8):
        assert builtin("symmetric", n).order == math.factorial(n)
    for n in (3, 4, 6, 8):
        G = builtin("alternating", n)
        assert G.order == math.factorial(n) // 2
    assert count_set_orbits(builtin("alternating", 6)) == 7
    assert builtin("alternating", 2).order == 1


def test_builtin_rejects_unknown():
    with pytest.raises(ValueError):
        builtin("sporadic", 5)


# ---------------------------------------------------------------------------
# candidate filtering

def test_degree8_primitive_with_divisor():
    # s = 8 + 2 forces t* = 3: primitive entries with C(8, 3) = 56 | order,
    # less A_8 and S_8 (8X1, 8X2)
    assert forced_transitive_size(8, 2) == 3
    got = {c.id for c in candidate_groups(8, 2)}
    assert got == {"8P1", "8P2", "8P3", "8P4", "8P5"}


def test_degree9_primitive_with_divisor_36():
    # s = 9 + 5 forces t* = 2: C(9, 2) = 36 divides the order
    assert forced_transitive_size(9, 5) == 2
    got = {c.name for c in candidate_groups(9, 5)}
    assert {"ASL(2,3)", "AGL(2,3)"} <= got
    assert all(c.group().order % 36 == 0 for c in candidate_groups(9, 5))


def test_transitive_filter_semantics():
    def tagged(tag):
        return [e for e in load_default() if e.degree == 6 and tag in e.tags]

    six = tagged("transitive")
    assert len(six) == TRANSITIVE_COUNTS[6]
    assert {e.id for e in tagged("primitive")} == {"6P1", "6X1", "6X2", "6X3"}
    allsix = [e for e in load_default() if e.degree == 6]
    two = tagged("two-orbit")
    assert len(two) == TWO_ORBIT_COUNTS[6]
    assert len(allsix) == len(six) + len(two)  # no other degree-6 entries


def test_transitive_degree8_complete():
    assert sum(1 for e in load_default()
               if e.degree == 8 and "transitive" in e.tags) == TRANSITIVE_COUNTS[8]


def test_tags_match_recomputation_spotwise():
    for ident in ("12P2", "10P6", "8P5+1", "7X2+1"):
        e = by_id(ident)
        G = e.group()
        assert is_transitive(G) == ("transitive" in e.tags)
        assert is_primitive(G) == ("primitive" in e.tags)


# ---------------------------------------------------------------------------
# one-point paddings

def test_padded_by_id():
    e = by_id("5P4+1")
    assert (e.id, e.degree, e.name, e.expected_order) == ("5P4+1", 6, "A5+1", 60)
    assert e.expected_s == 12 and not e.tags
    G = e.group()
    assert G.degree == 6 and G.order == 60 and count_set_orbits(G) == 12
    assert [O for O in G.orbits() if len(O) == 1] == [{5}]
    assert verify_entry(e) == []


def test_padded_by_id_unknown_base():
    with pytest.raises(KeyError):
        by_id("99ZZ+1")


def test_manifest_reports_missing_transitive_entry():
    entries = [e for e in load_default() if e.id != "6T9"]
    assert check_manifest(entries) == [
        "degree 6: 15 transitive entries, expected 16"]


# ---------------------------------------------------------------------------
# the derivation script

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "derive_catalog.py"


@lru_cache(maxsize=1)
def _derive_catalog_script():
    spec = importlib.util.spec_from_file_location("derive_catalog", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped_lines(keep):
    """The record lines of the shipped entries ``keep`` accepts, in order."""
    text = resources.files("setorbits").joinpath("data/groups.cat").read_text(
        encoding="utf-8")
    return [line for line, e in zip(
        (l for l in text.splitlines() if l.strip() and not l.startswith("#")),
        parse_catalog(text)) if keep(e)]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
def test_derived_imprimitive_entries_are_the_shipped_lines(n):
    """The closure derivation prints exactly the shipped imprimitive
    transitive and two-orbit lines of degree n, in order.  Degree 9 walks
    S3 wr S3 and has no two-orbit closure; degree 8, whose two wreath walks
    take about 2 s, is left to the CI job that re-runs the script."""
    kinds = ({"transitive"}, {"two-orbit"})
    shipped = _shipped_lines(lambda e: e.degree == n and e.tags in kinds)
    script = _derive_catalog_script()
    derived = [e for kind, counts in (("transitive", TRANSITIVE_COUNTS),
                                      ("two-orbit", TWO_ORBIT_COUNTS))
               if n in counts for e in script.closure_entries(n, kind)]
    assert [format_entry(e) for e in derived] == shipped
    assert len(shipped) == (TRANSITIVE_COUNTS.get(n, PRIMITIVE_COUNTS[n])
                            - PRIMITIVE_COUNTS[n] + TWO_ORBIT_COUNTS.get(n, 0))


def test_free_ids_skip_every_named_id():
    """An unnamed class takes the least X-ID of its degree that no table of
    the script names, whatever was built before it: 8X3 follows A8 and S8
    (8X1, 8X2), and at degree 9 the cited 9X1-9X10 are all taken."""
    script = _derive_catalog_script()
    assert next(script.free_ids(8)) == "8X3"
    assert next(script.free_ids(9)) == "9X11"
    assert [i for i, k in Counter(script.NAMED_IDS).items() if k > 1] == []
    cited = [c[0] for by_degree in script.CLOSURE_NAMES.values()
             for names in by_degree.values() for c in sum(names.values(), [])]
    assert len(script.NAMED_IDS) == len(cited) + 2 * len(script.ALT_SYM_IDS)


def test_closure_names_cover_exactly_the_walked_degrees():
    """The script walks the primitive closure at the degrees of
    PRIMITIVE_MAXIMA and the others at the degrees its names table lists.
    Every degree MANIFEST counts is named, so a count added without names
    fails here, not partway through the script.  Transitive degree 10, whose
    eight table groups the script derives with no count, is the one named
    degree that is not counted."""
    names = _derive_catalog_script().CLOSURE_NAMES
    assert names.keys() == {"primitive", "transitive", "two-orbit"}
    assert names["primitive"].keys() == PRIMITIVE_MAXIMA.keys()
    uncounted = set()
    for kind in ("transitive", "two-orbit"):
        assert names[kind].keys() >= MANIFEST[kind].keys(), kind
        uncounted |= {(kind, n) for n in names[kind].keys() - MANIFEST[kind].keys()}
    assert uncounted == {("transitive", 10)}


def test_s2_wr_s5_above_its_seed_derives_three_shipped_lines(monkeypatch, capsys):
    """The quick half of degree 10: S2 wr S5 above its seed gives 26
    classes, and its three table classes (s = 21) are the shipped lines of
    10S1543, 10S1542 and 10S1561, in order; its unnamed classes do not
    ship.  The walk of S5 wr S2 (5-7 s), which the other five need, is left
    to the CI job that re-runs the script."""
    script = _derive_catalog_script()
    parents = script._parents(10, "transitive")
    assert [label for label, _ in parents] == ["S2 wr S5", "S5 wr S2"]
    quick = ("10S1543", "10S1542", "10S1561")
    names = {sig: cited for sig, cited in script.CLOSURE_NAMES["transitive"][10].items()
             if cited[0][0] in quick}
    monkeypatch.setattr(script, "_parents", lambda n, kind: parents[:1])
    monkeypatch.setitem(script.CLOSURE_NAMES["transitive"], 10, names)
    derived = script.closure_entries(10, "transitive")
    assert capsys.readouterr().out.startswith("S2 wr S5: 26 subgroup classes")
    assert [format_entry(e) for e in derived] == _shipped_lines(lambda e: e.id in quick)


@pytest.mark.parametrize("n", [5, 6, 7, 9, 10])
def test_derived_primitive_entries_are_the_shipped_lines(n):
    """The walks of the maximal primitive groups print exactly the shipped
    primitive lines of degree n other than A_n and S_n, in order (degrees 8,
    11 and 12, whose AGL(3,2), M11 and M12 walks take 1.7 s, 3.7 s and
    6-7 s, are left to the CI job that re-runs the script)."""
    shipped = _shipped_lines(
        lambda e: e.degree == n and "primitive" in e.tags
        and not contains_alternating(n, e.expected_order))
    derived = _derive_catalog_script().closure_entries(n, "primitive")
    assert [format_entry(e) for e in derived] == shipped
    assert len(shipped) == PRIMITIVE_COUNTS[n] - 2


def test_primitive_maxima_are_shipped_primitive_entries():
    """Each maximum is a primitive entry of its degree below A_n, and the
    script builds exactly the maxima the table lists."""
    for n, maxima in PRIMITIVE_MAXIMA.items():
        for ident in maxima:
            e = by_id(ident)
            assert e.degree == n and "primitive" in e.tags, ident
            assert not contains_alternating(n, e.expected_order), ident
    assert list(_derive_catalog_script().MAXIMA) == [
        ident for maxima in PRIMITIVE_MAXIMA.values() for ident in maxima]


def test_script_checks_hold_under_python_O():
    """The script's checks raise, so ``python -O``, which drops asserts,
    keeps them: an entry with the wrong order and s is refused."""
    code = ("import runpy, sys; m = runpy.run_path(sys.argv[1]); "
            "m['entry']('5X99', 'wrong', m['MAXIMA']['5P3'], 21, s=99)")
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(SCRIPT)],
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "5X99: ['order: chain gives 20" in proc.stderr
    assert "set-orbits: computed 6, expected 99" in proc.stderr


#: the entries shipped on three or more generators: the degree-8 2-groups
#: 8X*, (C3xC3):C2, and 9X14, 9X19 and 9X8 of orders 18, 54 and 162
LONG_LISTS = ("6S35", "8X3", "8X8", "8X10", "8X16", "8X18", "8X22", "8X25",
              "8X27", "8X29", "8X32", "8X33", "9X14", "9X19", "9X8")


def test_long_lists_are_the_pinned_entries():
    assert tuple(e.id for e in load_default()
                 if len(e.generators) > 2) == LONG_LISTS


@pytest.mark.parametrize("ident", LONG_LISTS)
def test_no_pair_of_words_generates_a_long_list_entry(ident):
    """``reduced`` keeps a list only when no pair of its ``words`` generates
    the group: so a construction whose list a pair could replace fails
    here, and every other entry ships on at most two generators."""
    e = by_id(ident)
    words = [g.images for g in _derive_catalog_script().words(e.generators)]
    for pair in combinations(words, 2):
        assert _Chain(pair, e.degree).order < e.expected_order, pair


def test_words_are_the_generators_then_their_consecutive_runs():
    a, b, c = (Permutation.parse(t, 4) for t in ("(1,2)", "(2,3)", "(3,4)"))
    # b * a applies a first
    assert _derive_catalog_script().words([a, b, c]) == [
        a, b, c, b * a, c * b * a, c * b]


# ---------------------------------------------------------------------------
# presentations: what the shipped generators decide beyond the group

def _entries_and_paddings():
    return [g for e in load_default() for g in (e, padded(e))]


#: the entries whose order the generators answer with no chain (trivial,
#: cyclic, or S_n and A_n by Jordan's theorem)
ORDER_FROM_GENERATORS = (
    "1P1", "2P1", "3P1", "3P2", "4P1", "4P2", "4T1", "4S2", "5P1", "5P4",
    "5P5", "6X2", "6X3", "7P1", "7X1", "7X2", "8X1", "8X2", "8X6", "9X5",
    "9X6", "9X12", "10X3", "10X4", "11X1", "11X6", "11X7", "12X1", "12X2")


def test_order_read_off_the_generators_of_the_same_entries():
    """The shipped generators keep every order rule: the 29 entries above,
    and the paddings of those with at most one generator (a padding is not
    primitive, so only the trivial and cyclic rules reach it)."""
    answered = {}
    for e in _entries_and_paddings():
        order = _order_from_generators(build_group(e.generators, e.degree))
        if order is not None:
            answered[e.id] = order
    padded_ids = {e.id + "+1" for e in load_default() if len(e.generators) <= 1}
    assert set(answered) == set(ORDER_FROM_GENERATORS) | padded_ids
    assert len(padded_ids) == 10
    assert all(answered[i] == by_id(i).expected_order for i in answered)


#: the entries counted as a product of direct factors, and by the natural
#: S_n / A_n shortcut
PRODUCT_ENTRIES = ("4S6", "5S11", "6S28")
SHORTCUT_ENTRIES = (
    "1P1", "2P1", "3P1", "3P2", "4P1", "4P2", "5P4", "5P5", "6X2", "6X3",
    "7X1", "7X2", "8X1", "8X2", "9X5", "9X6", "10X3", "10X4", "11X6", "11X7",
    "12X1", "12X2")


def test_counting_routes_of_the_shipped_presentations():
    """A route depends on the presentation: a diagonal generator keeps a
    direct product from splitting, and the number of generators weighs
    enumeration against Burnside.  The route histogram is pinned, and no
    entry or padding leaves `product` or `shortcut`.  The trivial 1P1+1 on
    two points is no S_2, so it takes no shortcut."""
    routes = {e.id: counting_route(e.group()) for e in _entries_and_paddings()}
    assert Counter(routes[e.id] for e in load_default()) == {
        "enumeration": 107, "burnside": 36, "shortcut": 22, "product": 3}
    for route, ids in (("product", PRODUCT_ENTRIES),
                       ("shortcut", SHORTCUT_ENTRIES)):
        want = {i + pad for i in ids for pad in ("", "+1")} - {"1P1+1"}
        assert {i for i, r in routes.items() if r == route} == want, route


#: the eight table groups of degree 10 on the generators the catalog shipped
#: before the closure walk derived them: wreath-type constructions, made by
#: hand from the structure each name states
HAND_BUILT_10 = {
    "10S1496": "(2,3,5,4);(1,8,2,10)(3,7,5,6)(4,9)",
    "10S1543": "(1,3,5)(2,4,6);(1,6,4,8,10,2,5,3,7,9)",
    "10S1542": "(1,3,5,7,9)(2,4,6,8,10);(1,3,2,4)",
    "10S1561": "(1,3)(2,4);(1,6,8,10,2,5,7,9)",
    "10S1569": "(1,2,3);(1,8,2,9,5,6,3,7,4,10)",
    "10S1576": "(1,6)(2,7)(3,8)(4,9)(5,10);(1,6,3,9,5,7,4,10,2,8)",
    "10S1577": "(1,2,3);(1,8)(2,9,5,6,3,7,4,10)",
    "10S1584": "(1,2);(1,6,3,8,4,9,5,10)(2,7)",
}


def _built(gens, degree):
    return build_group([Permutation.parse(g, degree) for g in gens.split(";")])


@pytest.mark.parametrize("ident", list(HAND_BUILT_10))
def test_degree_10_entries_are_the_hand_built_groups(ident):
    """Each derived table group of degree 10 is S_10-conjugate to the group
    built by hand for its name; SHARED_SIGNATURE_GROUPS tells the two pairs
    of one (order, s) apart."""
    e = by_id(ident)
    hand = _built(HAND_BUILT_10[ident], 10)
    assert hand.order == e.expected_order
    assert conjugate_in_sn(e.group(), hand) is not None


def _conjugacy_class(x, gens):
    """The class of x under the group ``gens`` generate, by the oracle's
    point-by-point conjugation."""
    conjugate = _oracle_script().conjugate
    out, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for z in (conjugate(g, y) for g in gens):
            if z not in out:
                out.add(z)
                todo.append(z)
    return out


def test_every_transitive_group_of_degree_10_holds_a_seed_conjugate():
    """Wielandt (Finite Permutation Groups, 1964, Thm 3.4): an orbit of a
    Sylow 5-subgroup of a transitive group of degree 10 has length 5 or 10,
    so the group holds an element of cycle type 5^2.  Each shipped
    transitive entry of degree 10 below A_10 does.  In each wreath product
    the script walks, those elements form one class, which holds the seed:
    so every transitive subgroup meets the seed's class, and the walk above
    the seed misses none."""
    def five_squared(p):
        return perm._cycle_lengths(p) == (5, 5)

    for e in load_default():
        if (e.degree == 10 and "transitive" in e.tags
                and not contains_alternating(10, e.expected_order)):
            assert any(map(five_squared, e.group().iter_element_tuples())), e.id
    script = _derive_catalog_script()
    for (label, parent), size in zip(script._parents(10, "transitive"), (384, 576)):
        seed = script.SEEDS[label]
        assert seed in parent
        every = {p for p in parent.iter_element_tuples() if five_squared(p)}
        assert len(every) == size
        assert _conjugacy_class(seed.images, parent.generator_tuples()) == every


#: each entry that shares its (order, s) with one other class of its kind and
#: degree: its name, generators of the group the name states, built apart
#: from the catalog, and that sibling
SHARED_SIGNATURE_GROUPS = {
    "5S11": ("C6", "(1,2);(3,4,5)", "5S10"),
    "5S10": ("S3", "(1,2)(4,5);(3,4,5)", "5S11"),
    "6S37": ("C3xS3", "(1,2,3);(4,5,6);(5,6)", "6S35"),
    "6S35": ("(C3xC3):C2", "(1,2,3);(4,5,6);(2,3)(5,6)", "6S37"),
    "6S40": ("C2xA4", "(1,2);(3,4,5);(4,5,6)", "6S41"),
    "6S41": ("S4", "(1,2)(3,4);(1,2)(3,4,5,6)", "6S40"),
    "7S88": ("C2xA5", "(1,2);(3,4,5);(3,4,5,6,7)", "7S87"),
    "7S87": ("S5", "(1,2)(3,4);(3,4,5,6,7)", "7S88"),
    # C2xA4 on the octahedron's 6 vertices, S4 on the 2-subsets of {1..4}
    "6T6": ("C2xA4", "(1,2)(3,4)(5,6);(1,3,5)(2,4,6);(3,4)(5,6)", "6T7"),
    "6T7": ("S4", "(2,4)(3,5);(1,4,6,3)(2,5)", "6T6"),
    "6T9": ("S3xS3", "(1,2,3);(4,5,6);(2,3)(5,6);(1,4)(2,5)(3,6)", "6T10"),
    "6T10": ("C3^2:C4", "(1,2,3);(4,5,6);(1,4)(2,6,3,5)", "6T9"),
    "10S1543": ("C2x(2^4:A5)", HAND_BUILT_10["10S1543"], "10S1542"),
    "10S1542": ("2^4:S5 (twisted)", HAND_BUILT_10["10S1542"], "10S1543"),
    "10S1576": ("(A5xA5):(C2xC2)", HAND_BUILT_10["10S1576"], "10S1577"),
    "10S1577": ("(A5xA5):C4", HAND_BUILT_10["10S1577"], "10S1576"),
}


@lru_cache(maxsize=None)
def _derived_closure(n, kind):
    """The entries ``closure_entries(n, kind)`` derives, by ID."""
    return {e.id: e for e in _derive_catalog_script().closure_entries(n, kind)}


@pytest.mark.parametrize("ident", list(SHARED_SIGNATURE_GROUPS))
def test_shared_signature_names_match_their_groups(ident):
    """The script names the classes of one (order, s) by their place in its
    sort; under this name, the shipped entry and the derived one are each
    S_n-conjugate to the group the name states, and their sibling is not.
    At degree 10, whose S5 wr S2 walk is left to the CI job that re-runs the
    script, only the shipped side is checked.  The 9X7-9X10 names state no
    group, so only their shipped lines pin them."""
    name, gens, sibling = SHARED_SIGNATURE_GROUPS[ident]
    e = by_id(ident)
    kind = "transitive" if "transitive" in e.tags else "two-orbit"
    stated = _built(gens, e.degree)
    shipped = {i: by_id(i) for i in (ident, sibling)}
    sides = [shipped] if e.degree == 10 else [shipped, _derived_closure(e.degree, kind)]
    for entries in sides:
        assert entries[ident].name == name
        assert conjugate_in_sn(entries[ident].group(), stated) is not None
        assert conjugate_in_sn(entries[sibling].group(), stated) is None
