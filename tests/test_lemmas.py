"""The candidate lemmas behind ``pipeline._parts``, the one decision on
each pool that the pool and its source text both read, each checked against
the S_n subgroup walk it replaces; and the pool recursion against that walk
up to degree 7 and against random subgroups of degrees 8 to 12."""

import copy
import dataclasses
import functools
import math
import random
import sys

import pytest

from setorbits import catalog, pipeline, prune
from setorbits.catalog import (
    MANIFEST,
    PAD_SUFFIX,
    TRANSITIVE_COUNTS,
    TWO_ORBIT_COUNTS,
    DataGapError,
    builtin,
    by_id,
    load_default,
    padded,
    pool,
)
from setorbits.orbitcount import count_set_orbits, orbit_profile
from setorbits.perm import (
    _minimal_block_size,
    build_group,
    contains_alternating,
    is_primitive,
)
from setorbits.pipeline import (
    MAX_R,
    MIN_R,
    RunReport,
    block_shape_floor,
    candidate_groups,
    classify,
    pads_fit,
    two_orbit_shape_fits,
)
from setorbits.prune import binomial_divides, forced_transitive_size, parity_admissible
from setorbits.subgroups import all_subgroups, conjugate_in_sn


def _matches(groups, others):
    """For each group, the indices of the groups in ``others`` that are
    S_n-conjugate to it."""
    return [[j for j, H in enumerate(others)
             if H.order == G.order and conjugate_in_sn(G, H) is not None]
            for G in groups]


def _one_to_one(groups, others):
    return (all(len(m) == 1 for m in _matches(groups, others))
            and all(len(m) == 1 for m in _matches(others, groups)))


# ---------------------------------------------------------------------------
# block shape: m blocks of size k force s(G) >= C(m + k, k)

def _block_sizes(G):
    n = G.degree
    gens = G.generator_tuples()
    return {_minimal_block_size(gens, n, 0, b) for b in range(1, n)} - {n}


def _transitive_groups():
    for n in range(4, 8):
        for c in all_subgroups(n):
            if c.transitive:
                yield f"S{n}-cls{c.index}", c.representative
    for e in load_default():
        if "transitive" in e.tags:
            yield e.id, e.group()


def test_block_shape_bound_holds_for_every_block_system():
    """136 block systems on 185 groups; the bound is met exactly by 37 of
    them (4T1 and D8 with blocks of 2, 6T13 with blocks of 3, ...)."""
    groups = systems = tight = 0
    for label, G in _transitive_groups():
        groups += 1
        n, s = G.degree, count_set_orbits(G)
        for k in _block_sizes(G):
            systems += 1
            floor = math.comb(n // k + k, k)
            assert s >= floor >= block_shape_floor(n), (label, k, s)
            tight += s == floor
    assert (groups, systems, tight) == (185, 136, 37)


@pytest.mark.parametrize("n,floor", [
    (2, None), (3, None), (4, 6), (5, None), (6, 10), (7, None), (8, 15),
    (9, 20), (10, 21), (11, None), (12, 28), (13, None)])
def test_block_shape_floor_values(n, floor):
    assert block_shape_floor(n) == floor


@pytest.mark.parametrize("n,r,source", [
    (8, 6, "primitive catalog (block shape)"),
    (8, 7, "transitive catalog"),
    (9, 7, "primitive catalog (block shape)"),
    (9, 9, "primitive catalog (block shape) + one-point paddings"),
    (9, 11, "transitive catalog + one-point paddings"),
    (4, 5, "transitive catalog + two-orbit catalog"),
    (4, 6, "transitive catalog + two-orbit catalog + one-point paddings"),
    (7, 11, "primitive catalog (prime degree) + two-orbit catalog"
            " + one-point paddings"),
    (2, 2, "primitive catalog (prime degree) + one-point paddings"),
    (10, 8, "primitive catalog (block shape)"),
    (10, 10, "primitive catalog (block shape) + one-point paddings"),
    (6, 4, "transitive catalog"),
    (4, 2, "transitive catalog"),
])
def test_block_shape_sources(n, r, source):
    assert pipeline._source(*pipeline._parts(n, n + r)) == source


def test_transitive_catalog_needed_only_at_degrees_4_6_8():
    """C(n/2 + 2, 2) <= 2n only for n = 4, 6, 8, and every other block
    shape gives more, so no r <= n needs a transitive catalog elsewhere."""
    for n in range(2, 200):
        for r in range(2, n + 1):
            if pipeline._parts(n, n + r)[0] == "transitive":
                assert n in TRANSITIVE_COUNTS, (n, r)


def test_two_orbit_catalog_needed_only_at_degrees_4_to_7():
    """A shape with no fixed point and two or more orbits has
    prod(|O_i| + 1) <= n + MAX_R only for two orbits and n <= 7 (checked for
    n < 200; merging two orbits lowers the product, so shapes with more than
    three orbits need no separate check), and ``two_orbit_shape_fits`` says
    exactly when one fits."""
    for n in range(2, 200):
        pairs = [(a, n - a) for a in range(2, n // 2 + 1)]
        triples = [(a, b, n - a - b) for a in range(2, n // 3 + 1)
                   for b in range(a, (n - a) // 2 + 1)]
        assert all(math.prod(k + 1 for k in shape) > n + MAX_R
                   for shape in triples), n
        for s in range(n + 1, n + MAX_R + 1):
            fits = any(math.prod(k + 1 for k in shape) <= s for shape in pairs)
            assert two_orbit_shape_fits(n, s) == fits, (n, s)
            if fits:
                assert n in TWO_ORBIT_COUNTS, (n, s)
        for r in range(MIN_R, MAX_R + 1):
            if pipeline._parts(n, n + r)[2]:
                assert n in TWO_ORBIT_COUNTS, (n, r)


@pytest.mark.parametrize("r", range(MIN_R, MAX_R + 1))
def test_source_names_every_part_the_pool_uses(r):
    """At every surviving degree without a gap, each candidate comes from a
    part that the degree's source names: a padded one from the one-point
    paddings, a two-orbit one from the two-orbit catalog, and every other
    one from the catalog kind the source starts with."""
    for d in classify(r).degrees:
        if d.verdict.eliminated or d.gap is not None:
            continue
        n, kind = d.verdict.n, d.source.split(" catalog")[0]
        for c in candidate_groups(n, r):
            if c.id.endswith(PAD_SUFFIX):
                assert "one-point paddings" in d.source, (n, c.id)
            elif "two-orbit" in c.tags:
                assert "two-orbit catalog" in d.source, (n, c.id)
            else:
                assert kind in c.tags, (n, c.id, d.source)


def test_block_shape_closes_degree9_and_10_gaps():
    assert [c.id for c in candidate_groups(9, 7)] == [
        "9X1", "9X2", "9T15", "9S370", "9T19", "9P6", "9P7", "9X3", "9X4"]
    assert {c.id for c in candidate_groups(10, 8)} == {
        "10X1", "10X2", "10S1396", "10P4", "10T32", "10P6", "10P7"}


def test_block_shape_loses_no_degree8_group():
    """At r <= 6 the degree-8 pool is primitive only; no imprimitive
    transitive group of degree 8 has s <= 8 + 6."""
    for e in pool(8, "transitive"):
        if count_set_orbits(e.group()) <= 14:
            assert "primitive" in e.tags, e.id


# ---------------------------------------------------------------------------
# the transitive catalogs of degrees 4 and 6, and the primitive ones of
# degrees 1..7, against the S_n walk

@pytest.mark.parametrize("kind,n", [("transitive", 4), ("transitive", 6)]
                         + [("primitive", n) for n in range(1, 8)])
def test_transitive_catalog_matches_walk(kind, n):
    entries = [e.group() for e in pool(n, kind)]
    walked = [c.representative for c in all_subgroups(n)
              if (c.transitive if kind == "transitive"
                  else is_primitive(c.representative))]
    assert len(entries) == len(walked) == MANIFEST[kind][n]
    assert _one_to_one(entries, walked)


# ---------------------------------------------------------------------------
# orbit shape: an intransitive G with s(G) = 2n is H+1, H set-transitive

def _orbit_floor(G):
    return math.prod(len(O) + 1 for O in G.orbits())


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_shape_bound(n):
    for c in all_subgroups(n):
        assert count_set_orbits(c.representative) >= _orbit_floor(c.representative)


@pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (5, 2), (6, 3), (7, 3)])
def test_intransitive_classes_at_2n_are_paddings(n, count):
    walked = [c.representative for c in all_subgroups(n)
              if not c.transitive and count_set_orbits(c.representative) == 2 * n]
    pads = [padded(e).group() for e in pool(n - 1, "primitive")
            if count_set_orbits(e.group()) == n]
    assert len(walked) == len(pads) == count
    assert _one_to_one(pads, walked)
    from_pipeline = [c.group() for c in candidate_groups(n, n)
                     if c.id.endswith("+1")]
    assert _one_to_one(from_pipeline, walked)


def test_set_transitive_groups_are_primitive():
    for n in range(3, 8):
        for c in all_subgroups(n):
            if c.transitive and count_set_orbits(c.representative) == n + 1:
                assert is_primitive(c.representative), (n, c.index)


def test_padded_rows_resolve_by_id():
    """Every row label, padded or not, is a catalog ID with a ``+1`` per
    fixed point, and resolves to the row's degree, order and s."""
    for r in range(MIN_R, MAX_R + 1):
        for row in classify(r).rows:
            e = by_id(row.group_label)
            assert (e.degree, e.expected_order, e.expected_s) == (
                row.degree, row.order, row.s_value), (r, row)


# ---------------------------------------------------------------------------
# the orbit-shape recursion against the S_n walk

@pytest.mark.parametrize("n", range(2, 8))
def test_candidates_match_sn_walk(n):
    """For r = 1..11, the candidates with s = n + r and the subgroup
    classes of S_n with s = n + r (less A_n from degree 3 on) match one to
    one up to S_n-conjugacy."""
    classes = [(c.representative, count_set_orbits(c.representative))
               for c in all_subgroups(n)
               if not contains_alternating(n, c.order)]
    for r in range(MIN_R, MAX_R + 1):
        walked = [G for G, s in classes if s == n + r]
        cands = [G for G in (c.group() for c in candidate_groups(n, r))
                 if count_set_orbits(G) == n + r]
        assert _one_to_one(cands, walked), r


# ---------------------------------------------------------------------------
# the pool recursion against random subgroups of degrees 8 to 12

def _random_subgroups():
    """200 subgroups of degrees 8 to 12, each generated by one or two
    random words in the generators of a shipped entry without A_n."""
    rng = random.Random(2)
    parents = [e for e in load_default() if 8 <= e.degree <= 12
               and not contains_alternating(e.degree, e.expected_order)]
    for _ in range(200):
        e = rng.choice(parents)
        words = []
        for _ in range(rng.randint(1, 2)):
            word = rng.choice(e.generators)
            for _ in range(rng.randint(0, 5)):
                word = word * rng.choice(e.generators)
            words.append(word)
        yield build_group(words, e.degree)


@functools.cache
def _landed():
    """The random subgroups with s = n + r, MIN_R <= r <= MAX_R, at a
    surviving degree whose pool is complete, each with its (n, r)."""
    out = []
    for H in _random_subgroups():
        n = H.degree
        r = count_set_orbits(H) - n
        if not MIN_R <= r <= MAX_R or prune.prune_degree(n, r).eliminated:
            continue
        try:
            candidate_groups(n, r)
        except DataGapError:
            continue
        out.append((H, n, r))
    return tuple(out)


def _referee(landed, entries=None):
    """For each landed subgroup, the ids of the candidates of
    ``candidate_groups(n, r, entries)`` that are S_n-conjugate to it."""
    return [[c.id for c in candidate_groups(n, r, entries)
             if conjugate_in_sn(H, c.group()) is not None]
            for H, n, r in landed]


def test_candidates_match_random_subgroups():
    """Each random subgroup that lands on a complete pool is S_n-conjugate
    to exactly one candidate."""
    landed = _landed()
    assert len(landed) >= 20
    assert all(len(ids) == 1 for ids in _referee(landed))


def test_random_referee_names_a_dropped_entry(monkeypatch):
    """Drop the entry one landed subgroup matches and lower its manifest
    counts by one, so every pool check passes: the referee then finds no
    candidate for exactly the subgroups that matched it or its padding."""
    landed = _landed()
    clean = _referee(landed)
    dropped = by_id(next(ids[0] for ids in clean
                         if not ids[0].endswith(PAD_SUFFIX)))
    for tag in dropped.tags:
        if dropped.degree in MANIFEST[tag]:
            monkeypatch.setitem(MANIFEST[tag], dropped.degree,
                                MANIFEST[tag][dropped.degree] - 1)
    entries = [e for e in load_default() if e != dropped]
    missed = [i for i, ids in enumerate(_referee(landed, entries)) if not ids]
    assert missed == [i for i, ids in enumerate(clean)
                      if ids[0] in (dropped.id, dropped.id + PAD_SUFFIX)]
    assert missed


# ---------------------------------------------------------------------------
# the A_n exclusion: A_n <= G exactly when 2|G| >= n!, from degree 3 on

def test_contains_alternating_matches_membership():
    """On every catalog entry and every subgroup class of S_1..S_7, the
    order rule agrees with chain membership of A_n's generators, and is
    false at degrees 1 and 2, where A_n is trivial."""
    groups = [(e.id, e.group()) for e in load_default()]
    groups += [(f"S{n}-cls{c.index}", c.representative)
               for n in range(1, 8) for c in all_subgroups(n)]
    hits = []
    for label, G in groups:
        n = G.degree
        alt = builtin("alternating", n).generators
        assert contains_alternating(n, G.order) == (
            n >= 3 and all(g in G for g in alt)), label
        if contains_alternating(n, G.order):
            hits.append(label)
    # A_n and S_n of each degree 3..12 in the catalog, 3..7 in the walk
    assert len(hits) == 2 * 10 + 2 * 5, hits


# ---------------------------------------------------------------------------
# the parity, padding and forced-size rules on every group the repo builds

def test_candidate_rules_hold_for_every_built_group():
    """On every subgroup class of S_1..S_7, every catalog entry and its
    one-point padding, with s(G) = n + r: r is odd at odd n (the parity
    rule), a group with a fixed point fits ``pads_fit``, and every
    t <= t* = forced_transitive_size(n, r) has s_t(G) = 1, with C(n, t*)
    dividing |G|."""
    groups = [(f"S{n}-cls{c.index}", c.representative)
              for n in range(1, 8) for c in all_subgroups(n)]
    groups += [(e.id, e.group())
               for e in load_default() + tuple(map(padded, load_default()))]
    assert len(groups) == 525
    for label, G in groups:
        n = G.degree
        prof = orbit_profile(G).by_size
        r = sum(prof) - n
        assert n < 2 or parity_admissible(n, r), label
        if n >= 2 and any(len(O) == 1 for O in G.orbits()):
            assert pads_fit(n, n + r), label
        t = forced_transitive_size(n, r)
        if t is not None:
            assert all(prof[u] == 1 for u in range(t + 1)), label
            assert binomial_divides(n, t, G.order), label


# ---------------------------------------------------------------------------
# guard: classify walks no S_n

def test_classify_walks_no_sn(monkeypatch, clear_memos):
    def walk(*args):
        raise AssertionError("subgroup walk")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("setorbits"):
            for name in ("subgroup_classes", "all_subgroups"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, walk)
    for r in range(MIN_R, MAX_R + 1):
        assert classify(r).rows


def test_classify_builds_chains_only_for_burnside(chain_builds, clear_memos):
    """Only the Burnside route iterates elements; every other route, the
    A_n exclusion and the row orders read the catalog's certified order."""
    for r in range(MIN_R, MAX_R + 1):
        clear_memos()
        chain_builds.clear()
        report = classify(r)
        burnside = sum(dict(d.routes).get("burnside", 0)
                       for d in report.degrees)
        assert len(chain_builds) <= burnside, r


def test_warm_classify_counts_nothing_and_builds_nothing(
        monkeypatch, chain_builds, clear_memos):
    """Once classify(r) has run, a second run gives the same report without
    pruning, selecting, padding, counting, or building a group or a chain,
    and without reading a degree or its window: it is one memo lookup."""
    cold = {r: classify(r) for r in range(MIN_R, MAX_R + 1)}

    def forbidden(*args, **kwargs):
        raise AssertionError("warm classify pruned, selected, built, counted "
                             "or gathered")

    monkeypatch.setattr(pipeline, "count_set_orbits", forbidden)
    monkeypatch.setattr(pipeline, "candidate_groups", forbidden)
    monkeypatch.setattr(catalog.CatalogEntry, "group", forbidden)
    monkeypatch.setattr(catalog, "pool", forbidden)
    monkeypatch.setattr(catalog, "padded", forbidden)
    monkeypatch.setattr(prune, "step1_eliminates", forbidden)
    monkeypatch.setattr(prune, "step2_eliminates", forbidden)
    monkeypatch.setattr(pipeline, "_degree_result", forbidden)
    monkeypatch.setattr(pipeline, "degree_range", forbidden)
    chain_builds.clear()
    for r in range(MIN_R, MAX_R + 1):
        warm = classify(r)
        for f in dataclasses.fields(RunReport):
            assert getattr(warm, f.name) == getattr(cold[r], f.name), (r, f.name)
    assert chain_builds == []


def test_classify_reports_share_no_container():
    """A report is frozen, and changing the rows list or the gaps dict one
    report hands out changes no later report."""
    for r in range(MIN_R, MAX_R + 1):
        first = classify(r)
        kept = copy.deepcopy(first)
        first.rows.clear()
        first.gaps[0] = "changed"
        for f in dataclasses.fields(RunReport):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(first, f.name, getattr(first, f.name))
        for d in first.degrees:
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.rows = ()
        assert first == kept, r
        assert classify(r) == kept, r


def test_classify_parses_no_word_after_load(monkeypatch, clear_memos):
    """Every generator word is parsed once, when the catalog loads."""
    load_default()

    def forbidden(*args):
        raise AssertionError("generator word parsed again")

    monkeypatch.setattr(catalog, "parse_permutation", forbidden)
    for r in range(MIN_R, MAX_R + 1):
        clear_memos()
        assert classify(r).rows, r
