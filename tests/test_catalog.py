import importlib.util
import math
from collections import Counter
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest

from setorbits.catalog import (
    PRIMITIVE_COUNTS,
    CatalogError,
    TRANSITIVE_COUNTS,
    TWO_ORBIT_COUNTS,
    builtin,
    by_id,
    check_manifest,
    format_entry,
    load_default,
    padded,
    parse_catalog,
    verify_entry,
)
from setorbits.orbitcount import count_set_orbits, counting_route
from setorbits.perm import (Permutation, _Chain, _order_from_generators,
                            build_group, is_primitive, is_transitive)
from setorbits.pipeline import candidate_groups, forced_transitive_size


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


@pytest.mark.parametrize("text,field", [
    ("a|0|X|1|||2\n", "degree"),
    ("a|2|X|0|transitive|(1,2)|3\n", "order")])
def test_degree_or_order_below_one_rejected(text, field):
    with pytest.raises(CatalogError, match=f"line 1: {field} 0 is below 1"):
        parse_catalog(text)


# ---------------------------------------------------------------------------
# verification gate

def test_all_shipped_entries_verify():
    bad = [(e.id, failures) for e in load_default()
           if (failures := verify_entry(e))]
    assert not bad, bad


def test_manifest_complete():
    assert check_manifest() == []


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

@lru_cache(maxsize=1)
def _derive_catalog_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "derive_catalog.py"
    spec = importlib.util.spec_from_file_location("derive_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_derived_imprimitive_entries_are_the_shipped_lines(n):
    """The closure derivation prints exactly the shipped imprimitive
    transitive and two-orbit lines of degree n, in order (the transitive
    degree 8 is left to the script itself, about 16 s)."""
    text = resources.files("setorbits").joinpath("data/groups.cat").read_text(
        encoding="utf-8")
    kinds = ({"transitive"}, {"two-orbit"})
    shipped = [line for line, e in zip(
        (l for l in text.splitlines() if l.strip() and not l.startswith("#")),
        parse_catalog(text))
        if e.degree == n and e.tags in kinds]
    script = _derive_catalog_script()
    derived = script.closure_entries(n, "two-orbit", [])
    if n in TRANSITIVE_COUNTS:
        derived = script.closure_entries(n, "transitive", []) + derived
    assert [format_entry(e) for e in derived] == shipped
    assert len(shipped) == (TRANSITIVE_COUNTS.get(n, PRIMITIVE_COUNTS[n])
                            - PRIMITIVE_COUNTS[n] + TWO_ORBIT_COUNTS[n])


#: the script's constructions over finite fields, with the arguments its
#: ``main`` passes
FIELD_CONSTRUCTIONS = {
    "6P1": lambda s: s.psl2(s.F5),
    "6X1": lambda s: s.pgl2(s.F5),
    "7P3": lambda s: s.affine_line(s.F7, [2]),
    "7P4": lambda s: s.affine_line(s.F7, [3]),
    "8P1": lambda s: s.affine_line(s.F8, [s.F8.generator()]),
    "8P2": lambda s: s.affine_line(s.F8, [s.F8.generator()], [1]),
    "8P4": lambda s: s.psl2(s.F7),
    "8P5": lambda s: s.pgl2(s.F7),
    "9X1": lambda s: s.affine_line(s.F9, [s.F9.pow(s.F9.generator(), 2)]),
    "9X2": lambda s: s.affine_line(s.F9, [s.F9.pow(s.F9.generator(), 2)], [1]),
    "9T15": lambda s: s.affine_line(s.F9, [s.F9.generator()]),
    "9S370": lambda s: s.affine_line(s.F9, [s.F9.pow(s.F9.generator(), 2)],
                                     [s.F9.generator()]),
    "9T19": lambda s: s.affine_line(s.F9, [s.F9.generator()], [1]),
    "9X3": lambda s: s.psl2(s.F8),
    "9X4": lambda s: s.pgammal2(s.F8),
    "10S1396": lambda s: s.psl2(s.F9),
    "10P4": lambda s: s.pgl2(s.F9),
    "10T32": lambda s: s.psigmal2(s.F9),
    "10P6": lambda s: s.m10_maps(s.F9),
    "10P7": lambda s: s.pgammal2(s.F9),
    "11X3": lambda s: s.affine_line(s.F11, [3]),
    "11X4": lambda s: s.affine_line(s.F11, [2]),
    "12T179": lambda s: s.psl2(s.F11),
    "12T218": lambda s: s.pgl2(s.F11),
}


@pytest.mark.parametrize("ident", list(FIELD_CONSTRUCTIONS))
def test_field_constructions_are_the_shipped_generators(ident):
    """The shipped generators of the entry are the pair, or the list, that
    ``reduced`` makes of the projective and affine maps the script builds."""
    script = _derive_catalog_script()
    built = FIELD_CONSTRUCTIONS[ident](script)
    assert tuple(script.reduced(built)) == by_id(ident).generators


#: the entries shipped on three or more generators: the degree-8 2-groups
#: 8X*, (C3xC3):C2 and 9X8
LONG_LISTS = ("6S35", "8X3", "8X8", "8X10", "8X16", "8X18", "8X22", "8X25",
              "8X27", "8X29", "8X32", "8X33", "9X8")


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
    "9X6", "10X3", "10X4", "11X1", "11X6", "11X7", "12X1", "12X2")


def test_order_read_off_the_generators_of_the_same_entries():
    """The shipped generators keep every order rule: the 28 entries above,
    and the paddings of those with at most one generator (a padding is not
    primitive, so only the trivial and cyclic rules reach it)."""
    answered = {}
    for e in _entries_and_paddings():
        order = _order_from_generators(build_group(e.generators, e.degree))
        if order is not None:
            answered[e.id] = order
    padded_ids = {e.id + "+1" for e in load_default() if len(e.generators) <= 1}
    assert set(answered) == set(ORDER_FROM_GENERATORS) | padded_ids
    assert len(padded_ids) == 9
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
        "enumeration": 99, "burnside": 27, "shortcut": 22, "product": 3}
    for route, ids in (("product", PRODUCT_ENTRIES),
                       ("shortcut", SHORTCUT_ENTRIES)):
        want = {i + pad for i in ids for pad in ("", "+1")} - {"1P1+1"}
        assert {i for i, r in routes.items() if r == route} == want, route


@pytest.mark.parametrize("ident,central", [
    ("5S10", False), ("5S11", True), ("6S35", False), ("6S37", True),
    ("6S40", True), ("6S41", False), ("7S87", False), ("7S88", True),
    ("6T6", True), ("6T7", False)])
def test_shared_signatures_named_by_centre(ident, central):
    """Of two classes with one (order, s), the direct product (C6, C3xS3,
    C2xA4, C2xA5) has a nontrivial centre and the other (S3, (C3xC3):C2,
    S4, S5) has none; the derivation names them by this check."""
    assert _derive_catalog_script().has_centre(by_id(ident).group()) is central


@pytest.mark.parametrize("gens,degree,central", [
    ("(1,2,3,4,5,6)", 6, True),                 # C6
    ("(1,2);(1,2,3)", 3, False),                # S3
    ("(1,2);(1,2,3,4)", 4, False),              # S4
    ("(1,2);(1,2,3,4,5)", 5, False),            # S5
    ("(1,2);(3,4,5);(4,5,6)", 6, True),         # C2xA4
    ("(1,2);(3,4,5);(3,4,5,6,7)", 7, True),     # C2xA5
    ("(1,2,3);(4,5);(4,5,6)", 6, True),         # C3xS3
    ("(1,2,3);(4,5,6);(2,3)(5,6)", 6, False)])  # (C3xC3):C2
def test_centre_check(gens, degree, central):
    """The centre check on the eight groups, built apart from the catalog."""
    G = build_group([Permutation.parse(g, degree) for g in gens.split(";")])
    assert _derive_catalog_script().has_centre(G) is central
