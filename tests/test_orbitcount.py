import contextlib
import hashlib
import math
import signal
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setorbits import orbitcount
from setorbits.catalog import builtin, by_id, load_default
from setorbits.orbitcount import (
    OrbitProfile,
    _burnside_profile,
    _profile_from_histogram,
    _direct_factors,
    _enumeration_profile,
    _image_table,
    count_set_orbits,
    counting_route,
    dump_orbits,
    enumerate_set_orbits,
    is_set_transitive,
    is_t_set_transitive,
    orbit_profile,
    profile_from_enumeration,
)
from setorbits.perm import (
    GroupTooLargeError,
    Permutation,
    build_group,
    elements,
    parse_permutation,
    transitivity_degree,
)
from setorbits.subgroups import all_subgroups


def brute_orbits(G):
    """Oracle: orbits of frozensets under explicit full group multiplication,
    independent of both the Burnside path and the bitmask walks.  Returned
    as masks in the order ``enumerate_set_orbits`` promises: each orbit
    ascending, the orbits by (subset size, smallest mask)."""
    n = G.degree
    elems = [p.images for p in elements(G)]
    seen = set()
    orbits = []
    for seed in (frozenset(c) for k in range(n + 1)
                 for c in combinations(range(n), k)):
        if seed in seen:
            continue
        orbit = {frozenset(g[x] for x in seed) for g in elems}
        seen |= orbit
        orbits.append(sorted(sum(1 << x for x in s) for s in orbit))
    return sorted(orbits, key=lambda orbit: (bin(orbit[0]).count("1"), orbit[0]))


def brute_profile(G):
    by_size = [0] * (G.degree + 1)
    for orbit in brute_orbits(G):
        by_size[bin(orbit[0]).count("1")] += 1
    return tuple(by_size)


def gset(*texts, degree):
    return build_group([parse_permutation(t, degree) for t in texts],
                       degree=degree)


C4 = gset("(1,2,3,4)", degree=4)
M12 = gset("(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)",
           "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", degree=12)
C8XC8 = gset("(1,2,3,4,5,6,7,8)", "(9,10,11,12,13,14,15,16)", degree=16)


# ---------------------------------------------------------------------------
# counts

def test_trivial_group_on_two_points():
    assert count_set_orbits(build_group([], degree=2)) == 4


def test_c4_count_and_profile():
    assert count_set_orbits(C4) == 6
    prof = orbit_profile(C4)
    assert prof.by_size == brute_profile(C4) == (1, 1, 2, 1, 1)
    assert prof.total == 6


def test_m12_count():
    assert count_set_orbits(M12) == 14


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 20])
def test_symmetric_shortcut(n):
    assert count_set_orbits(builtin("symmetric", n)) == n + 1


@pytest.mark.parametrize("n", [3, 4, 5, 13])
def test_alternating_shortcut(n):
    assert count_set_orbits(builtin("alternating", n)) == n + 1


def test_a2_takes_generic_path():
    # the alternating group on 2 points is trivial: s = 4, not n + 1
    assert count_set_orbits(builtin("alternating", 2)) == 4


def test_s3_profile_all_ones():
    assert orbit_profile(builtin("symmetric", 3)).by_size == (1, 1, 1, 1)


def test_c7_c3_total():
    # (2^7 + 6*2 + 14*2^3) / 21 = 12
    F21 = gset("(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)", degree=7)
    assert F21.order == 21
    assert count_set_orbits(F21) == 12
    assert brute_profile(F21) == orbit_profile(F21).by_size


def wreath_s2(k):
    """S_k wr S_2 on 2k points: S_k on {1..k}, and the swap of the halves."""
    cycle = "(" + ",".join(map(str, range(1, k + 1))) + ")"
    swap = "".join(f"({i},{i + k})" for i in range(1, k + 1))
    return gset("(1,2)", cycle, swap, degree=2 * k)


def test_enumeration_fallback_beyond_burnside_limit():
    # |S8 wr S2| = 2 * 8!^2 > 10^7 and no shortcut applies: the profile
    # comes from subset enumeration (16 <= 22), C(10, 2) = 45 orbits
    G = wreath_s2(8)
    assert G.order == 2 * math.factorial(8) ** 2
    assert orbit_profile(G).by_size == (1, 1, 2, 2, 3, 3, 4, 4, 5, 4, 4, 3, 3,
                                        2, 2, 1, 1)
    assert count_set_orbits(G) == 45


def test_enumeration_fallback_keeps_no_partition(monkeypatch):
    # the counting kernel, not the partition oracle, counts S8 wr S2
    def no_partition(G):
        raise AssertionError("orbit partition built")

    monkeypatch.setattr(orbitcount, "enumerate_set_orbits", no_partition)
    prof = orbit_profile(wreath_s2(8))
    assert prof.total == 45
    assert prof.by_size == (1, 1, 2, 2, 3, 3, 4, 4, 5, 4, 4, 3, 3, 2, 2, 1, 1)


def test_cap_exceeded_without_shortcut():
    # S12 wr S2: order above 10^7 and degree 24 > 22, so no exact route fits
    G = wreath_s2(12)
    assert G.order > 10**7 and G.degree == 24
    with pytest.raises(GroupTooLargeError, match="no exact route"):
        orbit_profile(G)
    with pytest.raises(GroupTooLargeError):
        count_set_orbits(G)


def test_fixed_point_reduction_matches_oracle():
    # A_4 plus one fixed point: every profile entry convolves with (1, 1)
    G = gset("(1,2,3)", "(2,3,4)", degree=5)
    assert orbit_profile(G).by_size == brute_profile(G)
    assert count_set_orbits(G) == 2 * count_set_orbits(builtin("alternating", 4))


@pytest.mark.parametrize("ident, route, hint_free_chains", [
    pytest.param("8P1+1", "enumeration", 1, id="8P1+1-enumeration"),
    pytest.param("7P2+1", "burnside", 1, id="7P2+1-burnside"),
    # A_6: primitive with a 3-cycle, so Jordan gives the order
    pytest.param("6X2+1", "shortcut", 0, id="6X2+1-shortcut")])
def test_support_restriction_keeps_order(chain_builds, ident, route,
                                         hint_free_chains):
    e = by_id(ident)
    gens = [parse_permutation(t, e.degree) for t in e.generator_texts]
    hinted = build_group(gens, degree=e.degree, order=e.expected_order)
    (core,), fixed = _direct_factors(hinted)
    assert fixed == 1 and core.known_order == hinted.order == e.expected_order
    assert counting_route(hinted) == route

    prof = orbit_profile(build_group(gens, degree=e.degree, order=e.expected_order))
    assert len(chain_builds) == (route == "burnside")
    hint_free = build_group(gens, degree=e.degree)
    assert orbit_profile(hint_free) == prof and prof.total == e.expected_s
    # only the support group may build a chain; the padded group never does
    assert len(chain_builds) == hint_free_chains + (route == "burnside")
    assert hint_free.known_order is None


def _factor_gens(n):
    """1 or 2 generators of degree n, moving all points or only a few."""
    def place(points, images):
        out = list(range(n))
        for p, q in zip(points, images):
            out[p] = q
        return out

    some = st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                    unique=True).flatmap(
        lambda pts: st.permutations(pts).map(lambda img: place(pts, img)))
    return st.lists(st.one_of(st.permutations(range(n)), some),
                    min_size=1, max_size=2)


#: 2 or 3 factors of total degree <= 10, and a relabelling of their points
direct_products = st.lists(st.integers(1, 5), min_size=2, max_size=3).filter(
    lambda ds: sum(ds) <= 10).flatmap(lambda ds: st.tuples(
        st.tuples(*map(_factor_gens, ds)), st.permutations(range(sum(ds)))))


@given(direct_products)
@settings(max_examples=40, deadline=None)
def test_direct_product_profile_matches_oracles(case):
    factor_gens, relabel = case
    n = len(relabel)
    gens, offset = [], 0
    for fg in factor_gens:
        k = len(fg[0])
        for g in fg:
            img = list(range(n))
            for p in range(k):
                img[relabel[offset + p]] = relabel[offset + g[p]]
            gens.append(Permutation(img))
        offset += k
    G = build_group(gens, degree=n)
    factors, fixed = _direct_factors(G)
    assert fixed + sum(F.degree for F in factors) == n
    assert math.prod(F.order for F in factors) == G.order
    prof = orbit_profile(G)
    assert prof == profile_from_enumeration(G) == _burnside_profile(G)
    assert enumerate_set_orbits(G) == brute_orbits(G)


@pytest.mark.parametrize("G, degrees", [
    pytest.param(C8XC8, [8, 8], id="C8XC8"),
    # S3 on {1,5,7}, S4 on {2,3,6,8}, S2 on {4,9}
    pytest.param(gset("(4,9)", "(1,5)", "(1,5,7)", "(2,3)", "(2,3,6,8)",
                      degree=9), [2, 3, 4], id="S2xS3xS4"),
    pytest.param(by_id("7P2+1").group(), [7], id="7P2+1")])
def test_product_partition_walks_only_the_factors(monkeypatch, chain_builds,
                                                  G, degrees):
    """A direct product's partition is assembled from walks of its
    nontrivial factors, each on its own points, and asks for no order."""
    walked = []
    walk = orbitcount._orbits

    def recorded(F):
        walked.append(F.degree)
        return walk(F)

    monkeypatch.setattr(orbitcount, "_orbits", recorded)
    orbits = enumerate_set_orbits(G)
    assert sorted(walked) == degrees and not chain_builds
    assert orbits == brute_orbits(G)


@pytest.mark.parametrize("text, degree", [("(1,2)(3,4)", 4),
                                          ("(1,2,3)(4,5,6)", 7),
                                          ("(1,2)(3,4,5)", 6)])
def test_diagonal_is_not_split(text, degree):
    """A generator moving two orbits links them: a subdirect product is
    one factor, and counted as one."""
    G = gset(text, degree=degree)
    (core,), fixed = _direct_factors(G)
    moved = sum(map(len, Permutation.parse(text, degree).cycles()))
    assert core.degree == degree - fixed == moved
    assert counting_route(G) != "product"
    assert orbit_profile(G) == profile_from_enumeration(G) == _burnside_profile(G)


@pytest.mark.parametrize("ids, chains", [(("4P2", "3P1"), 0),
                                         (("6X2", "5P2"), 1),
                                         (("5P2", "5P2"), 2)])
def test_product_builds_chains_only_for_unknown_orders(chain_builds, ids, chains):
    """S4 and A6 (Jordan) and C3 (one generator) give their orders without
    a chain; D10 needs one, and its enumeration route builds no other."""
    a, b = map(by_id, ids)
    n = a.degree + b.degree
    gens = [Permutation(g.images + tuple(range(a.degree, n))) for g in a.generators]
    gens += [Permutation(tuple(range(a.degree)) + tuple(a.degree + p for p in g.images))
             for g in b.generators]
    G = build_group(gens, degree=n, order=a.expected_order * b.expected_order)
    assert counting_route(G) == "product" and not chain_builds
    assert orbit_profile(G).total == a.expected_s * b.expected_s
    assert len(chain_builds) == chains
    # without the order: the factors give it, and are split off once, so
    # the profile, the order, the count and the route share their chains
    hint_free = build_group(gens, degree=n)
    assert orbit_profile(hint_free).total == a.expected_s * b.expected_s
    assert hint_free.order == G.order
    assert count_set_orbits(hint_free) == a.expected_s * b.expected_s
    assert counting_route(hint_free) == "product"
    assert len(chain_builds) == 2 * chains


# ---------------------------------------------------------------------------
# counting routes: each one checked directly, and the choice between them

# Burnside sums over every element; the catalog entries above this order
# are natural A_n / S_n of degree 9-11, with or without a fixed point, each
# taking seconds, and are left to the other two routes
BURNSIDE_CHECK_MAX_ORDER = 10**5

#: the groups with a fixed point that the reference tables cite, by their
#: table label: each is the padding of a shipped entry
TABLE_PADDINGS = {
    "8S293": "7X1+1", "8S294": "7X2+1", "9S355": "8P1+1", "9S462": "8P2+1",
    "9S499": "8P5+1", "9S535": "8P3+1", "9S551": "8X1+1", "9S552": "8X2+1",
    "10S1448": "9X3+1", "10S1539": "9X4+1", "10S1590": "9X5+1",
    "10S1591": "9X6+1", "11S3091": "10X3+1", "11S3092": "10X4+1"}

#: (test id, entry): every shipped entry, and the table paddings
ENTRIES = ([(e.id, e) for e in load_default()]
           + [(label, by_id(ident)) for label, ident in TABLE_PADDINGS.items()])

ROUTE_GROUPS = (
    [pytest.param(e.group(), id=label) for label, e in ENTRIES
     if e.degree <= 16 and e.expected_order <= 10**7]
    + [pytest.param(c.representative, id=f"S{n}-cls{c.index}")
       for n in range(1, 7) for c in all_subgroups(n)])


@pytest.mark.parametrize("G", ROUTE_GROUPS)
def test_counting_routes_agree(G):
    prof = _enumeration_profile(G)
    assert prof == profile_from_enumeration(G) == orbit_profile(G)
    if G.order <= BURNSIDE_CHECK_MAX_ORDER:
        assert prof == _burnside_profile(G)


def test_route_choice():
    assert counting_route(M12) == "enumeration"
    assert C8XC8.order == 64
    assert counting_route(C8XC8) == "product"
    assert counting_route(builtin("dihedral", 16)) == "burnside"
    assert counting_route(wreath_s2(8)) == "enumeration"
    # S_3 and A_4 on the support of a larger degree still take the shortcut
    assert counting_route(gset("(1,2)", "(1,2,3)", degree=9)) == "shortcut"
    assert counting_route(gset("(1,2,3)", "(2,3,4)", degree=5)) == "shortcut"
    assert counting_route(builtin("symmetric", 9)) == "shortcut"
    with pytest.raises(GroupTooLargeError, match="no exact route"):
        counting_route(wreath_s2(12))


def test_orbit_profile_follows_route(monkeypatch):
    def fail(G):
        raise AssertionError("route not chosen")

    with monkeypatch.context() as m:
        m.setattr(orbitcount, "_enumeration_profile", fail)
        assert orbit_profile(C8XC8) == _burnside_profile(C8XC8)
    with monkeypatch.context() as m:
        m.setattr(orbitcount, "_burnside_profile", fail)
        assert orbit_profile(M12).total == 14


@pytest.mark.parametrize(
    "e", [pytest.param(e, id=label) for label, e in ENTRIES if e.degree <= 12])
def test_half_walk_profile_matches_full_walk(e):
    # the kernel walks the masks of at most n // 2 points and mirrors the
    # rest; the oracle walks all 2^n
    G = e.group()
    assert _enumeration_profile(G) == profile_from_enumeration(G)


def test_enumeration_kernel_degree_cap():
    with pytest.raises(GroupTooLargeError):
        _enumeration_profile(builtin("cyclic", 23))


# ---------------------------------------------------------------------------
# enumeration

def test_trivial_enumeration():
    orbs = enumerate_set_orbits(build_group([], degree=2))
    assert orbs == [[0b00], [0b01], [0b10], [0b11]]


def test_c4_two_element_orbits():
    orbs = enumerate_set_orbits(C4)
    two = [o for o in orbs if bin(o[0]).count("1") == 2]
    assert two == [[0b0011, 0b0110, 0b1001, 0b1100], [0b0101, 0b1010]]


def test_psl25_orbit_count():
    psl = gset("(1,2,3,4,5)", "(1,6)(2,5)", degree=6)
    assert len(enumerate_set_orbits(psl)) == 8
    assert count_set_orbits(psl) == 8


def test_orbit_members_share_popcount():
    G = gset("(1,2)(3,4)", "(1,3,5)", degree=6)
    for orb in enumerate_set_orbits(G):
        assert len({bin(m).count("1") for m in orb}) == 1


def test_enumeration_degree_cap():
    with pytest.raises(GroupTooLargeError):
        enumerate_set_orbits(builtin("cyclic", 23))
    with pytest.raises(GroupTooLargeError):
        profile_from_enumeration(builtin("cyclic", 23))


def test_oracle_shares_no_table_walk(monkeypatch):
    # the bit-by-bit oracle stays independent of the walk it checks
    def fail(*args):
        raise AssertionError("table walk used")

    monkeypatch.setattr(orbitcount, "_orbits", fail)
    monkeypatch.setattr(orbitcount, "_image_table", fail)
    assert profile_from_enumeration(M12).total == 14


def test_dump_format():
    lines = dump_orbits(C4)
    assert lines[0] == "{}"
    # within an orbit, subsets appear in ascending mask order
    assert "{1,2} {2,3} {1,4} {3,4}" in lines
    assert "{1,3} {2,4}" in lines


def test_dump_matches_per_point_format():
    # one point name per set bit, as testing every point of every mask gives
    G = builtin("dihedral", 10)
    want = [" ".join("{" + ",".join(str(i + 1) for i in range(10) if mask >> i & 1)
                     + "}" for mask in orb)
            for orb in enumerate_set_orbits(G)]
    assert dump_orbits(G) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_matches_oracle(n):
    for c in all_subgroups(n):
        assert enumerate_set_orbits(c.representative) == brute_orbits(
            c.representative), c.index


def _block_gens(n):
    """1 to 3 permutations of degree n that each preserve one random
    partition of the points into blocks of at most 4, so that they
    generate a group of order at most 24^2: small enough for
    ``brute_orbits``."""
    def blocks(order):
        return [order[i:i + 4] for i in range(0, n, 4)]

    def gen(parts, images):
        out = list(range(n))
        for part, img in zip(parts, images):
            for p, q in zip(part, img):
                out[p] = q
        return Permutation(out)

    def gens(parts):
        one = st.tuples(*(st.permutations(part) for part in parts)).map(
            lambda images: gen(parts, images))
        return st.lists(one, min_size=1, max_size=3)

    return st.permutations(range(n)).map(blocks).flatmap(gens)


#: degree 7-9 groups: one random permutation (cyclic, often transitive), or
#: generators that preserve a partition into blocks of at most 4 points
small_groups_7_9 = st.integers(7, 9).flatmap(lambda n: st.one_of(
    st.permutations(range(n)).map(lambda g: [Permutation(g)]),
    _block_gens(n)).map(lambda gens: build_group(gens, degree=n)))


@given(small_groups_7_9)
@settings(max_examples=30, deadline=None)
def test_partition_by_complements_matches_oracle(G):
    n, full = G.degree, (1 << G.degree) - 1
    orbits = enumerate_set_orbits(G)
    assert orbits == brute_orbits(G)
    by_set = {frozenset(orbit): bin(orbit[0]).count("1") for orbit in orbits}
    for orbit, size in by_set.items():
        if 2 * size > n:
            assert frozenset(full ^ m for m in orbit) in by_set


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body after ``seconds``: a walk that never
    returns to its start fails the test instead of running on."""
    def expire(signum, frame):
        raise TimeoutError(f"walk still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _dihedral_gens(n):
    """The rotation i -> i + 1, the reflection i -> n - 1 - i and the
    inverse rotation on n >= 2 points: none is the identity, and the
    rotations carry a point across every split of the masks."""
    rot = Permutation([(i + 1) % n for i in range(n)])
    flip = Permutation([n - 1 - i for i in range(n)])
    return [rot, flip, Permutation([(i - 1) % n for i in range(n)])]


#: one group per walk of ``_orbits`` (no generator, one, two, three or
#: more) at degree 10; the trivial group's partition is its 1024 masks as
#: singletons, in (size, mask) order.  Then every degree 1..14, so every
#: split width of the image tables below 15 points, with the first 0 to 3
#: of ``_dihedral_gens``; degree 1 has no permutation but the identity, so
#: only the trivial group.  Each group is its own lone factor, so
#: ``enumerate_set_orbits`` walks it whole: the generators of each link
#: all its points, or it is trivial
WALKS = {
    "trivial": (build_group([], degree=10), 0),
    "cycles-3-5-2": (gset("(1,2,3)(4,5,6,7,8)(9,10)", degree=10), 1),
    "pair": (gset("(1,2,3,4,5,6,7,8,9,10)", "(1,10)(2,9)(3,8)(4,7)(5,6)",
                  degree=10), 2),
    "three": (gset("(1,2,3)(9,10)", "(4,5)(6,7)", "(1,9)(2,10)(3,8)(6,7)",
                   degree=10), 3),
}
WALKS.update({
    f"n{n}-gens{k}": (build_group(_dihedral_gens(n)[:k], degree=n), k)
    for n in range(1, 15) for k in range(4 if n > 1 else 1)})


@pytest.mark.parametrize("name", WALKS)
def test_each_walk_matches_oracles(name):
    G, gens = WALKS[name]
    assert len(G.generators) == gens
    assert _direct_factors(G) == ((G,), 0)
    with _deadline(5):
        orbits = enumerate_set_orbits(G)
        profile = _enumeration_profile(G)
    assert orbits == brute_orbits(G)
    assert profile == profile_from_enumeration(G)


#: sha1 of "\n".join(dump_orbits(G)).  C8XC8 pins the product assembly of
#: a direct product's partition, D13 the two-generator walk and C13 the
#: one-generator walk.  D13 and C8XC8 were recorded when one walk still
#: covered all 2^n masks, C13 while every walk still looped over the
#: generators per mask
DUMP_SHA1 = {
    "D13": (builtin("dihedral", 13),
            "8088508c89d41d227b114a682584bcc3762ad702"),
    "C8XC8": (C8XC8, "708ff288f57d55a2a0c8bf9c71e8e13538268e47"),
    "C13": (builtin("cyclic", 13), "2d734a3d276b30510b6a5c062007f846f10981a4"),
}


@pytest.mark.parametrize("name", DUMP_SHA1)
def test_dump_digest_is_frozen(name):
    G, want = DUMP_SHA1[name]
    text = "\n".join(dump_orbits(G)).encode()
    assert hashlib.sha1(text).hexdigest() == want


@pytest.mark.parametrize(
    "e", [pytest.param(e, id=label) for label, e in ENTRIES if e.degree <= 12])
def test_image_tables_match_per_bit_images(e):
    # the walk's two lookups, split at its width w, give for every mask the
    # image point by point
    n = e.degree
    w = min(8, (n + 1) // 2)
    for g in e.group().generator_tuples():
        low, high = _image_table(g, 0, w), _image_table(g, w, n - w)
        for m in range(1 << n):
            want = sum(1 << g[i] for i in range(n) if m >> i & 1)
            assert low[m & (1 << w) - 1] | high[m >> w] == want, (g, m)


# ---------------------------------------------------------------------------
# predicates

def test_zero_set_transitive_always():
    assert is_t_set_transitive(C4, 0)
    assert is_t_set_transitive(build_group([], degree=3), 0)


def test_c4_not_2_set_transitive():
    assert not is_t_set_transitive(C4, 2)


def test_s6_is_3_set_transitive():
    assert is_t_set_transitive(builtin("symmetric", 6), 3)
    assert is_set_transitive(builtin("symmetric", 6))


def test_t_out_of_range():
    with pytest.raises(ValueError):
        is_t_set_transitive(C4, 5)


# ---------------------------------------------------------------------------
# invariants (property tests)

small_groups = st.lists(
    st.permutations(range(6)).map(Permutation), min_size=1, max_size=2).map(
        lambda gens: build_group(gens, degree=6))


@given(small_groups)
@settings(max_examples=40, deadline=None)
def test_profile_invariants(G):
    prof = orbit_profile(G)
    assert prof.by_size[0] == prof.by_size[-1] == 1
    assert all(v >= 1 for v in prof.by_size)
    p = prof.by_size
    assert p == p[::-1]
    assert all(p[t - 1] <= p[t] for t in range(1, G.degree // 2 + 1))
    assert prof.total == sum(prof.by_size)
    assert prof.total >= G.degree + 1
    assert prof.total * G.order >= 2 ** G.degree


@given(small_groups)
@settings(max_examples=25, deadline=None)
def test_burnside_equals_enumeration(G):
    prof = orbit_profile(G)
    assert prof == profile_from_enumeration(G)
    assert prof.by_size == brute_profile(G)
    assert enumerate_set_orbits(G) == brute_orbits(G)


@given(st.lists(st.permutations(range(6)).map(Permutation), min_size=2,
                max_size=2))
@settings(max_examples=25, deadline=None)
def test_subgroup_refinement(gens):
    G = build_group(gens, degree=6)
    H = build_group(gens[:1], degree=6)
    pg, ph = orbit_profile(G), orbit_profile(H)
    assert all(h >= g for h, g in zip(ph.by_size, pg.by_size))


@given(small_groups)
@settings(max_examples=25, deadline=None)
def test_transitivity_bridge(G):
    k = transitivity_degree(G)
    prof = orbit_profile(G)
    for u in range(min(k, G.degree) + 1):
        assert prof.by_size[u] == 1


def test_inexact_burnside_numerator_raises():
    # one element with two fixed points, divided by an order of 2: the
    # size-0 numerator is 1
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        _profile_from_histogram(2, 2, Counter({(1, 1): 1}))


def test_profile_degree_and_total_read_off_by_size():
    prof = OrbitProfile((1, 1, 2, 1, 1))
    assert (prof.degree, prof.total) == (4, 6)
    assert prof == orbit_profile(C4)
