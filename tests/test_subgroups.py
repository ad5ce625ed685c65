import math
from itertools import permutations

import pytest

from setorbits.catalog import builtin, by_id
from setorbits.orbitcount import count_set_orbits, profile_from_enumeration
from setorbits.perm import Permutation, build_group, parse_permutation
from setorbits.subgroups import (
    SubgroupCapError,
    all_subgroups,
    conjugate_in_sn,
    subgroup_classes,
)
from test_perm import _oracle_script

# class and subgroup counts for S_5 / S_6 were computed once by the naive
# join-closure oracle (scripts/subgroup_oracle.py) and frozen here; S_7's are
# OEIS A000638 and A005432
FROZEN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 19, 6: 56, 7: 96}
FROZEN_TOTAL_COUNTS = {1: 1, 2: 2, 3: 6, 4: 30, 5: 156, 6: 1455, 7: 11300}


def brute_subgroup_classes_s3():
    """True brute force for S_3: test every subset of the 6 elements."""
    elems = [tuple(p) for p in permutations(range(3))]
    subgroups = set()
    for mask in range(1, 1 << 6):
        subset = [e for i, e in enumerate(elems) if mask >> i & 1]
        sset = set(subset)
        if tuple(range(3)) not in sset:
            continue
        if all(tuple(a[b[i]] for i in range(3)) in sset
               for a in subset for b in subset):
            subgroups.add(frozenset(sset))

    def conj(H, s):
        sinv = tuple(sorted(range(3), key=s.__getitem__))
        return frozenset(tuple(s[h[sinv[i]]] for i in range(3)) for h in H)

    classes = {min(tuple(sorted(conj(H, s))) for s in elems)
               for H in subgroups}
    return len(subgroups), len(classes)


def test_s3_counts_against_true_brute_force():
    total, classes = brute_subgroup_classes_s3()
    assert total == 6 and classes == 4
    assert len(all_subgroups(3)) == 4
    assert sum(c.class_size for c in all_subgroups(3)) == 6


def test_s4_counts_against_pair_closure_oracle():
    """All subgroups of S_4 arise as closures of generator pairs."""
    elems = [tuple(p) for p in permutations(range(4))]
    found = set()
    for a in elems:
        for b in elems:
            G = build_group([Permutation(a), Permutation(b)], degree=4)
            found.add(frozenset(G.iter_element_tuples()))
    assert len(found) == 30
    assert sum(c.class_size for c in all_subgroups(4)) == 30
    assert len(all_subgroups(4)) == 11


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_frozen_class_and_total_counts(n):
    assert len(all_subgroups(n)) == FROZEN_CLASS_COUNTS[n]
    assert sum(c.class_size for c in all_subgroups(n)) == FROZEN_TOTAL_COUNTS[n]


def test_trivial_and_full_group_present():
    cs = all_subgroups(4)
    assert cs[0].order == 1 and cs[-1].order == 24


def test_orders_divide_factorial():
    for c in all_subgroups(6):
        assert math.factorial(6) % c.order == 0


def _transitive_classes(n):
    return [c for c in all_subgroups(n) if c.transitive]


def test_transitive_classes_s4():
    tc = _transitive_classes(4)
    assert [c.order for c in tc] == [4, 4, 8, 12, 24]
    assert all(c.transitive for c in tc)


def test_transitive_classes_s3_and_s5():
    assert [c.order for c in _transitive_classes(3)] == [3, 6]
    t5 = [c.order for c in _transitive_classes(5)]
    assert t5 == [5, 10, 20, 60, 120]


def test_no_intransitive_class_leaks():
    from setorbits.perm import is_transitive
    for c in _transitive_classes(5):
        assert is_transitive(c.representative)
    ids = {c.index for c in _transitive_classes(5)}
    for c in all_subgroups(5):
        if c.index not in ids:
            assert not is_transitive(c.representative)


def test_cap_errors():
    # the cached S_n walk stops at n = 7; S_8 goes through subgroup_classes
    with pytest.raises(SubgroupCapError):
        all_subgroups(8)


def test_class_size_orbit_stabilizer():
    """class_size * |N_{S_n}(H)| = n!, normalizer by brute conjugation."""
    for n in (3, 4, 5):
        elems = [tuple(p) for p in permutations(range(n))]
        for c in all_subgroups(n):
            H = frozenset(c.representative.iter_element_tuples())
            norm = 0
            for s in elems:
                sinv = tuple(sorted(range(n), key=s.__getitem__))
                if all(tuple(s[h[sinv[i]]] for i in range(n)) in H for h in H):
                    norm += 1
            assert c.class_size * norm == math.factorial(n), (n, c.index)


def test_representatives_pairwise_nonconjugate():
    classes = all_subgroups(4)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            if a.order != b.order:
                continue
            assert conjugate_in_sn(a.representative, b.representative) is None


def test_burnside_vs_enumeration_cross_validation():
    """Classes of S_n, n <= 6: the two counting routes agree everywhere."""
    for n in (4, 5, 6):
        total_b = total_e = 0
        for c in all_subgroups(n):
            total_b += count_set_orbits(c.representative)
            total_e += profile_from_enumeration(c.representative).total
        assert total_b == total_e


def test_deterministic_ordering():
    a = [(c.order, c.canonical_key) for c in all_subgroups(5)]
    assert a == sorted(a)


# ---------------------------------------------------------------------------
# the closure walk over other parent groups

def _fields(c):
    return (c.index, c.order, c.class_size, c.canonical_key, c.transitive,
            c.representative.generator_tuples())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_parent_is_all_subgroups(n):
    """S_n generated by adjacent transpositions: other conjugating
    generators, the same classes field for field."""
    adjacent = [Permutation(list(range(i)) + [i + 1, i] + list(range(i + 2, n)))
                for i in range(n - 1)]
    got = subgroup_classes(build_group(adjacent, degree=n))
    assert list(map(_fields, got)) == list(map(_fields, all_subgroups(n)))


@pytest.mark.parametrize("family,n,classes", [
    ("alternating", 4, 5), ("alternating", 5, 9), ("dihedral", 4, 8),
])
def test_classical_class_counts(family, n, classes):
    parent = builtin(family, n)
    got = subgroup_classes(parent)
    assert len(got) == classes
    assert got[0].order == 1 and got[-1].order == parent.order
    for c in got:
        assert parent.order % c.order == 0
        assert parent.order % c.class_size == 0


YOUNG_AND_WREATH = {
    "S2wrS2": (4, ["(1,2)", "(1,3)(2,4)"], 8),
    "S2xS3": (5, ["(1,2)", "(3,4)", "(3,4,5)"], 12),
    "S2wrS3": (6, ["(1,2)", "(1,3)(2,4)", "(1,3,5)(2,4,6)"], 48),
    "S3wrS2": (6, ["(1,2)", "(1,2,3)", "(1,4)(2,5)(3,6)"], 72),
}


#: a second generating set of each parent of YOUNG_AND_WREATH: the
#: constructions of scripts/derive_catalog.py (``wreath``, ``young``)
OTHER_GENERATORS = {
    "S2wrS2": ["(1,2)", "(3,4)", "(1,3)(2,4)"],
    "S2xS3": ["(1,2)", "(3,4,5)", "(3,4)"],
    "S2wrS3": ["(1,2)", "(3,4)", "(5,6)", "(1,3,5)(2,4,6)", "(1,3)(2,4)"],
    "S3wrS2": ["(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)", "(1,4)(2,5)(3,6)"],
}


@pytest.mark.parametrize("name", sorted(YOUNG_AND_WREATH))
def test_young_and_wreath_classes_fuse_into_sn(name):
    """Each class meets exactly one S_n-class."""
    n, gens, order = YOUNG_AND_WREATH[name]
    parent = build_group([parse_permutation(g, n) for g in gens])
    assert parent.order == order
    sn = all_subgroups(n)
    for c in subgroup_classes(parent):
        hits = [d for d in sn if d.order == c.order and
                conjugate_in_sn(c.representative, d.representative) is not None]
        assert len(hits) == 1, (name, c.index, [d.index for d in hits])


@pytest.mark.parametrize("name", sorted(YOUNG_AND_WREATH))
def test_class_order_rests_on_the_parent_not_its_generators(name):
    """The same parent on a second generating set gives the same classes
    field for field, so the script's sort by (order, canonical key) does not
    depend on how a construction lists its generators."""
    n, gens, _ = YOUNG_AND_WREATH[name]
    parent = build_group([parse_permutation(g, n) for g in gens])
    other = build_group([parse_permutation(g, n) for g in OTHER_GENERATORS[name]])
    assert other.generator_tuples() != parent.generator_tuples()
    assert other.order == parent.order
    assert all(g in parent for g in other.generators)
    assert list(map(_fields, subgroup_classes(other))) == list(
        map(_fields, subgroup_classes(parent)))


@pytest.mark.parametrize("name,subgroups,classes", [
    ("S2wrS3", 98, 33), ("S3wrS2", 112, 26)])
def test_wreath_classes_match_join_closure_oracle(name, subgroups, classes):
    """The walk's classes and their sizes under the parent against the naive
    census of scripts/subgroup_oracle.py, run on the parent's elements."""
    n, gens, _ = YOUNG_AND_WREATH[name]
    parent = build_group([parse_permutation(g, n) for g in gens])
    got = subgroup_classes(parent)
    census = _oracle_script().census(parent.iter_element_tuples())
    assert census == (sum(c.class_size for c in got), len(got)) == (subgroups, classes)


# ---------------------------------------------------------------------------
# the walk above a seed

SEEDED_PARENTS = {
    "S5": lambda: builtin("symmetric", 5),
    "S6": lambda: builtin("symmetric", 6),
    "AGL(1,11)": lambda: by_id("11X4").group(),
    "PGL(2,11)": lambda: by_id("12T218").group(),
}


@pytest.mark.parametrize("name,seed", [
    ("S5", "(1,2,3,4,5)"), ("S6", "(1,2,3,4,5)"), ("S6", "(1,2,3)"),
    ("AGL(1,11)", "(1,2,3,4,5,6,7,8,9,10,11)"),
    ("PGL(2,11)", "(1,2,3,4,5,6,7,8,9,10,11)")])
def test_walk_above_a_seed_is_the_full_walk_above_it(name, seed):
    """``above=x`` lists, field for field and in order, the classes of the
    full walk whose subgroups contain a parent-conjugate of x, and so of
    <x>; the conjugates are taken by brute conjugation."""
    parent = SEEDED_PARENTS[name]()
    n = parent.degree
    above = parse_permutation(seed, n)
    x = above.images
    conjugates = set()
    for t in parent.iter_element_tuples():
        tinv = tuple(sorted(range(n), key=t.__getitem__))
        conjugates.add(tuple(t[x[tinv[i]]] for i in range(n)))
    want = [c for c in subgroup_classes(parent)
            if not conjugates.isdisjoint(c.representative.iter_element_tuples())]
    got = subgroup_classes(parent, above=above)

    def fields(c):
        return c.order, c.class_size, c.canonical_key

    assert list(map(fields, got)) == list(map(fields, want))


def test_walk_above_an_element_outside_the_parent_is_refused():
    with pytest.raises(ValueError, match="not an element of the parent"):
        subgroup_classes(builtin("alternating", 4),
                         above=parse_permutation("(1,2)", 4))


# ---------------------------------------------------------------------------
# conjugacy search

def test_conjugate_transposition_groups():
    A = build_group([parse_permutation("(1,2)", 4)])
    B = build_group([parse_permutation("(3,4)", 4)])
    g = conjugate_in_sn(A, B)
    assert g is not None
    assert {g(1), g(2)} == {3, 4}


def test_non_conjugate_same_order():
    A = build_group([parse_permutation("(1,2,3,4)", 4)])
    B = build_group([parse_permutation("(1,2)(3,4)", 4),
                     parse_permutation("(1,3)(2,4)", 4)])
    assert A.order == B.order == 4
    assert conjugate_in_sn(A, B) is None


def test_different_orbit_shapes_are_not_conjugate():
    A = build_group([parse_permutation("(1,2)", 4)])
    B = build_group([parse_permutation("(1,2)(3,4)", 4)])
    assert A.order == B.order == 2
    assert conjugate_in_sn(A, B) is None


def test_self_conjugacy_identity_acceptable():
    A = build_group([parse_permutation("(1,2,3)", 5)])
    g = conjugate_in_sn(A, A)
    assert g is not None
    gt = g.images
    ginv = tuple(sorted(range(5), key=gt.__getitem__))
    for a in A.generator_tuples():
        conj = tuple(gt[a[ginv[i]]] for i in range(5))
        assert Permutation(conj) in A
