"""The candidate lemmas of ``pipeline.candidate_source``, each checked
against the S_n subgroup walk it replaces."""

import dataclasses
import math

import pytest

from setorbits import pipeline, subgroups
from setorbits.catalog import TRANSITIVE_COUNTS, by_id, candidates, load_default, padded
from setorbits.orbitcount import count_set_orbits
from setorbits.perm import _minimal_block_size, is_primitive
from setorbits.pipeline import (
    block_shape_floor,
    candidate_groups,
    candidate_source,
    classify,
    compare_to_golden,
    load_golden,
)
from setorbits.subgroups import all_subgroups, conjugate_in_sn, transitive_classes


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
        for c in transitive_classes(n):
            yield f"S{n}-cls{c.index}", c.representative
    for e in load_default():
        if "transitive" in e.tags:
            yield e.id, e.group()


def test_block_shape_bound_holds_for_every_block_system():
    """119 block systems on 167 groups; the bound is met exactly by 37 of
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
    assert (groups, systems, tight) == (167, 119, 37)


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
    (9, 11, "subgroup classes of S_9"),
    (10, 8, "primitive catalog (block shape)"),
    (10, 10, "primitive catalog (block shape) + one-point paddings"),
    (6, 4, "transitive catalog"),
    (4, 2, "transitive catalog"),
])
def test_block_shape_sources(n, r, source):
    assert candidate_source(n, r) == source


def test_transitive_catalog_needed_only_at_degrees_4_6_8():
    """C(n/2 + 2, 2) <= 2n only for n = 4, 6, 8, and every other block
    shape gives more, so no r <= n needs a transitive catalog elsewhere."""
    for n in range(2, 200):
        for r in range(2, n + 1):
            if candidate_source(n, r).startswith("transitive catalog"):
                assert n in TRANSITIVE_COUNTS, (n, r)


def test_block_shape_closes_degree9_and_10_gaps():
    assert [c.label for c in candidate_groups(9, 7)] == [
        "9X1", "9X2", "9T15", "9S370", "9T19", "9P6", "9P7", "9X3", "9X4"]
    assert {c.label for c in candidate_groups(10, 8)} == {
        "10X1", "10X2", "10S1396", "10P4", "10T32", "10P6", "10P7"}


def test_block_shape_loses_no_degree8_group():
    """At r <= 6 the degree-8 pool is primitive only; no imprimitive
    transitive group of degree 8 has s <= 8 + 6."""
    for e in candidates(8, "transitive"):
        if count_set_orbits(e.group()) <= 14:
            assert "primitive" in e.tags, e.id


# ---------------------------------------------------------------------------
# the transitive catalogs of degrees 4 and 6 against the S_n walk

@pytest.mark.parametrize("n", [4, 6])
def test_transitive_catalog_matches_walk(n):
    entries = [e.group() for e in candidates(n, "transitive")]
    walked = [c.representative for c in transitive_classes(n)]
    assert len(entries) == len(walked) == TRANSITIVE_COUNTS[n]
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
    pads = [padded(e).group() for e in candidates(n - 1, "primitive")
            if count_set_orbits(e.group()) == n]
    assert len(walked) == len(pads) == count
    assert _one_to_one(pads, walked)
    from_pipeline = [c.group for c in candidate_groups(n, n)
                     if c.label.endswith("+1")]
    assert _one_to_one(from_pipeline, walked)


def test_padding_without_recorded_s_is_kept():
    entries = [dataclasses.replace(e, expected_s=None) if e.id == "5P1" else e
               for e in load_default()]
    labels = {c.label for c in candidate_groups(6, 6, entries=entries)}
    assert {"5P1+1", "5P3+1", "5P4+1", "5P5+1"} <= labels
    assert "5P2+1" not in labels  # D10 records s = 8, not 6


def test_set_transitive_groups_are_primitive():
    for n in range(3, 8):
        for c in transitive_classes(n):
            if count_set_orbits(c.representative) == n + 1:
                assert is_primitive(c.representative), (n, c.index)


def test_padded_rows_resolve_by_id():
    for r in (3, 4, 5, 6):
        for row in classify(r).rows:
            if row.group_label.endswith("+1"):
                e = by_id(row.group_label)
                assert (e.degree, e.expected_order, e.expected_s) == (
                    row.degree, row.order, row.s_value)


# ---------------------------------------------------------------------------
# guard: r <= 6 needs no walk of S_6 or beyond

def test_classify_up_to_r6_walks_no_s6(monkeypatch):
    real = subgroups.all_subgroups

    def guarded(n):
        if n >= 6:
            raise AssertionError(f"walked S_{n}")
        return real(n)

    monkeypatch.setattr(subgroups, "all_subgroups", guarded)
    monkeypatch.setattr(pipeline, "all_subgroups", guarded)
    for r in range(2, 7):
        report = classify(r)
        diff = compare_to_golden(report, load_golden(r))
        assert diff.empty, (r, diff.missing, diff.extra)
