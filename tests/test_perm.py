import ast
import functools
import importlib.util
import itertools
import math
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setorbits.perm import (
    GroupTooLargeError,
    PermError,
    Permutation,
    build_group,
    compose,
    contains_alternating,
    elements,
    is_primitive,
    is_transitive,
    parse_permutation,
    transitivity_degree,
    _Chain,
    _compose_t,
    _cycle_lengths,
    _direct_factors,
    _factor_supports,
    _inverse_t,
    _order_from_generators,
)
from setorbits.subgroups import _conjugate_set

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation))


def same_degree_pairs(n):
    return st.tuples(st.permutations(range(n)).map(Permutation),
                     st.permutations(range(n)).map(Permutation))


# ---------------------------------------------------------------------------
# parsing

def test_parse_four_cycle():
    p = parse_permutation("(1,2,3,4)", 4)
    assert p.images == (1, 2, 3, 0)


def test_parse_identity():
    p = parse_permutation("()", 3)
    assert p.is_identity() and p.degree == 3


def test_parse_disjoint_transpositions():
    assert parse_permutation("(1,3)(2,4)", 4).images == (2, 3, 0, 1)


def test_parse_whitespace_and_fixed_points():
    p = parse_permutation(" (1, 3) ", 5)
    assert p(1) == 3 and p(3) == 1 and p(5) == 5


@pytest.mark.parametrize("bad", ["(1,2,5)", "(0,1)", "(1,1)", "(1,2)(2,3)",
                                 "1,2", "(1,2", "(a,b)", ""])
def test_parse_rejects_bad_input(bad):
    with pytest.raises(PermError):
        parse_permutation(bad, 4)


def test_cycle_notation_round_trip():
    for text in ["()", "(1,2)", "(1,2,3)(4,5)", "(2,4)(3,7,5)"]:
        p = parse_permutation(text, 7)
        assert parse_permutation(str(p), 7) == p


# ---------------------------------------------------------------------------
# arithmetic

def test_compose_applies_right_factor_first():
    a = parse_permutation("(1,2)", 3)
    b = parse_permutation("(2,3)", 3)
    ab = compose(a, b)
    # b sends 2 -> 3, then a fixes 3
    assert ab(2) == 3 and ab(1) == 2 and ab(3) == 1


def test_compose_involution_gives_identity():
    t = parse_permutation("(1,2)", 2)
    assert compose(t, t).is_identity()


def test_inverse_reverses_cycle():
    c = parse_permutation("(1,2,3)", 3)
    assert _inverse_t(c.images) == parse_permutation("(1,3,2)", 3).images


def test_compose_with_identity():
    c = parse_permutation("(1,2,3)", 3)
    assert compose(c, Permutation.identity(3)) == c


def test_degree_mismatch_rejected():
    with pytest.raises(PermError):
        compose(parse_permutation("(1,2)", 2), parse_permutation("(1,2)", 3))


@given(st.integers(2, 8).flatmap(same_degree_pairs))
def test_compose_inverse_round_trip(pair):
    a, b = pair
    ai, bi = Permutation(_inverse_t(a.images)), Permutation(_inverse_t(b.images))
    assert compose(a, ai).is_identity()
    assert compose(ai, a).is_identity()
    assert compose(bi, compose(ai, compose(a, b))).is_identity()


@given(st.integers(2, 8).flatmap(same_degree_pairs))
def test_cycle_type_sums_to_degree(pair):
    a, b = pair
    assert sum(_cycle_lengths(compose(a, b).images)) == a.degree


def test_cycle_type_examples():
    assert _cycle_lengths(Permutation.identity(4).images) == (1, 1, 1, 1)
    assert _cycle_lengths(parse_permutation("(1,2,3,4)", 4).images) == (4,)
    assert _cycle_lengths(parse_permutation("(1,3)(2,4)", 4).images) == (2, 2)


# ---------------------------------------------------------------------------
# groups

def test_s4_from_standard_generators():
    G = build_group([parse_permutation("(1,2)", 4),
                     parse_permutation("(1,2,3,4)", 4)])
    assert G.order == 24


def test_trivial_group_needs_degree():
    assert build_group([], degree=2).order == 1
    with pytest.raises(PermError):
        build_group([])
    for degree in (0, -1):
        with pytest.raises(PermError, match="^degree must be at least 1$"):
            build_group([], degree=degree)


def test_generator_degree_mismatch():
    with pytest.raises(PermError):
        build_group([parse_permutation("(1,2)", 2),
                     parse_permutation("(1,2)", 3)])


def test_m12_and_psl25_orders():
    m12 = build_group([parse_permutation("(1,2,3,4,5,6,7,8,9,10,11)", 12),
                       parse_permutation("(3,7,11,8)(4,10,5,6)", 12),
                       parse_permutation("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)])
    assert m12.order == 95040
    psl = build_group([parse_permutation("(1,2,3,4,5)", 6),
                       parse_permutation("(1,6)(2,5)", 6)])
    assert psl.order == 60


def test_membership_and_element_iteration():
    C4 = build_group([parse_permutation("(1,2,3,4)", 4)])
    elems = list(elements(C4))
    assert len(elems) == len(set(elems)) == 4
    types = sorted(_cycle_lengths(p.images) for p in elems)
    assert types == [(1, 1, 1, 1), (2, 2), (4,), (4,)]
    assert parse_permutation("(1,3)(2,4)", 4) in C4
    assert parse_permutation("(1,2)", 4) not in C4


def test_membership_of_another_degree_is_false():
    C4 = build_group([parse_permutation("(1,2,3,4)", 4)])
    assert Permutation.identity(5) not in C4
    assert parse_permutation("(1,2,3,4)", 5) not in C4


def test_element_iteration_counts_s4():
    G = build_group([parse_permutation("(1,2)", 4),
                     parse_permutation("(1,2,3,4)", 4)])
    elems = list(elements(G))
    assert len(elems) == len(set(elems)) == 24
    assert all(p in G for p in elems)


def test_trivial_group_elements():
    G = build_group([], degree=2)
    assert [p.is_identity() for p in elements(G)] == [True]


def test_element_cap_enforced():
    # |S_11| = 39916800 is above the element-iteration limit of 10^7
    G = build_group([parse_permutation("(1,2)", 11),
                     parse_permutation("(1,2,3,4,5,6,7,8,9,10,11)", 11)])
    with pytest.raises(GroupTooLargeError):
        next(elements(G))
    with pytest.raises(GroupTooLargeError):
        G.iter_element_tuples()


def test_given_order_needs_no_chain(chain_builds):
    gens = [parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)]
    G = build_group(gens, order=24)
    assert G.order == G.known_order == 24 and not chain_builds
    assert contains_alternating(G.degree, G.order) and not chain_builds
    assert len(list(elements(G))) == 24 and len(chain_builds) == 1
    assert parse_permutation("(1,3)", 4) in G and len(chain_builds) == 1


def test_chain_builds_counts_chains_of_every_binding(chain_builds):
    """The fixture counts chains built through ``perm``'s own name and the
    one the subgroup walk imported."""
    from setorbits import perm, subgroups

    gens = [(1, 2, 0)]
    assert perm._Chain(gens, 3).order == subgroups._Chain(gens, 3).order == 3
    assert len(chain_builds) == 2

def test_order_without_hint_builds_one_chain(chain_builds):
    # two generators and no transposition or 3-cycle: no order rule answers
    G = build_group([parse_permutation("(1,2)(3,4)", 4),
                     parse_permutation("(1,3)(2,4)", 4)])
    assert G.known_order is None and not chain_builds
    assert G.order == G.known_order == 4 and len(chain_builds) == 1
    assert len(list(elements(G))) == 4 and len(chain_builds) == 1


def test_wrong_order_hint_is_cross_checked():
    gens = [parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)]
    G = build_group(gens, order=12)
    assert G.order == 12  # trusted until a chain is built
    with pytest.raises(PermError, match="order 24"):
        list(elements(G))
    with pytest.raises(PermError):
        parse_permutation("(1,2)", 4) in build_group(gens, order=48)
    with pytest.raises(PermError):
        build_group(gens, order=0)


def test_threads_racing_on_first_build_agree():
    m11 = [parse_permutation("(1,2,3,4,5,6,7,8,9,10,11)", 11),
           parse_permutation("(3,7,11,8)(4,10,5,6)", 11)]
    want = sorted(build_group(m11).iter_element_tuples())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for hint in (None, 7920):
            G = build_group(m11, order=hint)
            seen = []

            def work():
                seen.append((G.order, sorted(G.iter_element_tuples())))

            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [(7920, want)] * len(threads)
    finally:
        sys.setswitchinterval(interval)


@given(st.lists(st.permutations(range(6)).map(Permutation), min_size=1,
                max_size=3))
@settings(max_examples=30, deadline=None)
def test_order_divides_factorial(gens):
    G = build_group(gens, degree=6)
    assert math.factorial(6) % G.order == 0
    assert len(list(elements(G))) == G.order


def _oracle_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "subgroup_oracle.py"
    spec = importlib.util.spec_from_file_location("subgroup_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the group a generator list spans, by plain breadth-first closure
closure = _oracle_script().bfs_closure


def test_oracle_imports_nothing_from_the_package():
    """The oracle is independent: no product or conjugate of the package
    under test stands behind the counts it checks."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "subgroup_oracle.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "itertools" in modules
    assert not {m for m in modules if m.split(".")[0] == "setorbits"}


def moving_some(n):
    """Permutations of degree n that move all points or only a few, so that
    lists of them generate small and intransitive groups too."""
    def place(points, images):
        out = list(range(n))
        for p, q in zip(points, images):
            out[p] = q
        return tuple(out)

    some = st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                    unique=True).flatmap(
        lambda pts: st.permutations(pts).map(lambda img: place(pts, img)))
    return st.one_of(st.permutations(range(n)).map(tuple), some)


#: up to five generators of degree at most 7, with and without a forced
#: base: enough generators that residues turn up several levels down
chain_cases = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(moving_some(n), max_size=5), st.booleans()))


@given(chain_cases)
@settings(max_examples=60, deadline=None)
def test_chain_matches_closure(case):
    n, gens, forced = case
    chain = _Chain(gens, n, forced_base=range(n) if forced else ())
    want = closure(gens, n)
    assert chain.order == len(want)
    elems = list(chain.iter_elements())
    assert len(elems) == len(want) and set(elems) == want
    for x in itertools.permutations(range(n)):
        assert chain.contains(x) == (x in want)


#: elements compared when a chain is iterated, enough for S_6 whole
ITERATED_PREFIX = 1000

product_cases = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)).map(tuple),
    st.permutations(range(n)).map(tuple),
    st.lists(moving_some(n), max_size=3), st.booleans()))


@given(product_cases)
@settings(max_examples=60, deadline=None)
@example((1, (0,), (0,), [], True))
@example((1, (0,), (0,), [(0,)], False))
@example((2, (1, 0), (0, 1), [(1, 0)], True))
@example((2, (0, 1), (1, 0), [(1, 0)], False))
def test_products_match_per_point_definitions(case):
    """Products, conjugates and a chain's element list against their
    point-by-point definitions at degrees 1 to 12: (a o b)(i) = a(b(i)),
    s x s^-1 sends s(i) to s(x(i)), and a chain lists u_0 o u_1 o ... o u_k
    over its sorted transversals, level 0 outermost."""
    n, a, b, gens, forced = case

    def product(a, b):
        return tuple(a[b[i]] for i in range(n))

    def conjugate(s, x):
        return tuple(s[x[s.index(j)]] for j in range(n))

    assert _compose_t(a, b) == product(a, b)
    elems = frozenset([a, b, *gens])
    assert _conjugate_set(elems, a) == {conjugate(a, x) for x in elems}
    chain = _Chain(gens, n, forced_base=range(n) if forced else ())
    levels = [[u for _, u in sorted(t.items())] for t in chain.trans]
    want = (functools.reduce(product, us, tuple(range(n)))
            for us in itertools.product(*levels))
    assert (list(itertools.islice(chain.iter_elements(), ITERATED_PREFIX))
            == list(itertools.islice(want, ITERATED_PREFIX)))


@given(chain_cases)
@settings(max_examples=60, deadline=None)
@example((6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], True))
def test_residue_of_level_i_adds_nothing_to_levels_0_to_i(case):
    """A residue found while sifting level i fixes base[0..i], lies in the
    group of level i's strong generators, and maps every orbit of levels
    0..i into itself: the lemma that lets ``_Chain`` add it to levels from
    i+1 on only."""
    n, gens, forced = case

    class Recording(_Chain):
        def _add_generator(self, g, first=0):
            if first:
                i = first - 1
                assert all(g[b] == b for b in self.base[:first])
                assert g in closure(tuple(s for s, _ in self._gens[i]), n)
                assert all(g[p] in self.trans[k]
                           for k in range(first) for p in self.trans[k])
            return super()._add_generator(g, first)

    Recording(gens, n, forced_base=range(n) if forced else ())


S8_WR_S2 = ["(1,2)", "(1,2,3,4,5,6,7,8)",
            "(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)"]


@pytest.mark.parametrize("n, texts, order", [
    (12, ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)",
          "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"], 95040),
    (12, ["(1,2)", "(1,2,3,4,5,6,7,8,9,10,11,12)"], math.factorial(12)),
    (11, ["(1,2,3)", "(1,2,3,4,5,6,7,8,9,10,11)"], math.factorial(11) // 2),
    (16, S8_WR_S2, 3251404800),
], ids=["M12", "S12", "A11", "S8wrS2"])
def test_chain_order_of_large_groups(n, texts, order):
    gens = [parse_permutation(t, n).images for t in texts]
    assert _Chain(gens, n).order == order


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(moving_some(n), max_size=2),
    st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True))))
@settings(max_examples=80, deadline=None)
def test_order_rule_matches_chain(case):
    """Where the generators give the order, it is the chain's.  A
    transposition or 3-cycle on ``cycle`` leads the generators, so Jordan's
    rule is tried often; squaring the others makes every generator even
    when the cycle has length 3, for the n!/2 case."""
    n, gens, cycle = case
    c = list(range(n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        c[a] = b
    c = tuple(c)
    squares = [tuple(g[q] for q in g) for g in gens]
    for gs in ([], [c], [c] + gens, [c] + squares):
        G = build_group([Permutation(g) for g in gs], degree=n)
        rule = _order_from_generators(G)
        if rule is not None:
            assert rule == _Chain(G.generator_tuples(), n).order


@pytest.mark.parametrize("n, texts, order", [
    (12, ["(1,2)", "(1,2,3,4,5,6,7,8,9,10,11,12)"], math.factorial(12)),
    (11, ["(1,2,3)", "(1,2,3,4,5,6,7,8,9,10,11)"], math.factorial(11) // 2),
    (10, ["(1,2,3,4)(5,6,7,8,9,10)"], 12),
    (4, [], 1),
    # A_4 and two fixed points: intransitive, so no rule answers G itself,
    # but it splits, and Jordan gives the order of its factor A_4
    (6, ["(1,2,3)", "(2,3,4)"], 12),
    # S_3 x C_4: the factors' orders multiply
    (7, ["(1,2)", "(1,2,3)", "(4,5,6,7)"], 24),
], ids=["S12", "A11", "C12", "trivial", "A4+2", "S3xC4"])
def test_order_rule_needs_no_chain(chain_builds, n, texts, order):
    G = build_group([parse_permutation(t, n) for t in texts], degree=n)
    assert G.order == G.known_order == order and not chain_builds


@pytest.mark.parametrize("n, texts, order, chain_degree", [
    # S2 wr S3: a transposition, but blocks {1,2}, {3,4}, {5,6}
    (6, ["(1,2)", "(1,3,5)(2,4,6)", "(1,3)(2,4)"], 48, 6),
    # the Klein four-group and two fixed points: no rule answers its
    # factor either, whose chain is on its 4 points, not on all 6
    (6, ["(1,2)(3,4)", "(1,3)(2,4)"], 4, 4),
], ids=["S2wrS3", "V4+2"])
def test_order_rule_falls_through_to_chain(chain_builds, n, texts, order,
                                           chain_degree):
    G = build_group([parse_permutation(t, n) for t in texts], degree=n)
    assert _order_from_generators(G) is None
    assert G.order == order and len(chain_builds) == 1
    (F,), _ = _direct_factors(G)
    assert F.degree == chain_degree and F.known_order == order
    assert F._built_chain().n == chain_degree and len(chain_builds) == 1


def test_split_is_kept_on_the_group(chain_builds):
    """The factors are found once per group: every later split returns the
    same factor groups, with the chains and orders already built."""
    G = build_group([parse_permutation(t, 7) for t in
                     ("(1,2)(3,4)", "(1,3)(2,4)", "(5,6,7)")], degree=7)
    factors, fixed = _direct_factors(G)
    assert fixed == 0 and [F.degree for F in factors] == [4, 3]
    # each factor's points in G, kept with the split; a lone factor has all
    assert _factor_supports(G) == ((0, 1, 2, 3), (4, 5, 6))
    assert _factor_supports(factors[1]) == ((0, 1, 2),)
    assert G.order == 12 and len(chain_builds) == 1
    again, _ = _direct_factors(G)
    assert all(a is b for a, b in zip(again, factors))
    assert G.order == math.prod(F.order for F in again) and len(chain_builds) == 1


# ---------------------------------------------------------------------------
# predicates

def test_transitivity_examples():
    C4 = build_group([parse_permutation("(1,2,3,4)", 4)])
    assert is_transitive(C4)
    assert not is_transitive(build_group([], degree=2))
    assert not is_transitive(build_group([parse_permutation("(1,2,3)", 4)]))


def brute_force_primitive(G):
    """Independent oracle: scan every partition of the points for a
    nontrivial invariant block system."""
    n = G.degree
    if not is_transitive(G):
        return False
    if n == 1:
        return True

    def partitions(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    gens = G.generator_tuples()
    for part in partitions(list(range(n))):
        if len(part) in (1, n):
            continue
        blocks = {frozenset(b) for b in part}
        if len({len(b) for b in blocks}) != 1:
            continue
        if all(frozenset(g[x] for x in b) in blocks
               for g in gens for b in blocks):
            return False
    return True


def test_primitivity_examples_against_oracle():
    C4 = build_group([parse_permutation("(1,2,3,4)", 4)])
    assert not is_primitive(C4)
    assert not brute_force_primitive(C4)
    S5 = build_group([parse_permutation("(1,2)", 5),
                      parse_permutation("(1,2,3,4,5)", 5)])
    assert is_primitive(S5)
    psl25 = build_group([parse_permutation("(1,2,3,4,5)", 6),
                         parse_permutation("(1,6)(2,5)", 6)])
    assert is_primitive(psl25)
    assert brute_force_primitive(psl25)


@given(st.lists(st.permutations(range(6)).map(Permutation), min_size=1,
                max_size=2))
@settings(max_examples=25, deadline=None)
def test_primitivity_matches_oracle(gens):
    G = build_group(gens, degree=6)
    assert is_primitive(G) == brute_force_primitive(G)


def test_primitive_implies_transitive():
    H = build_group([parse_permutation("(1,2,3)", 5)])
    assert not is_primitive(H)


def test_transitivity_degree_examples():
    assert transitivity_degree(build_group([], degree=2)) == 0
    S4 = build_group([parse_permutation("(1,2)", 4),
                      parse_permutation("(1,2,3,4)", 4)])
    assert transitivity_degree(S4) == 4
    m11 = build_group([parse_permutation("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                       parse_permutation("(3,7,11,8)(4,10,5,6)", 11)])
    assert transitivity_degree(m11) == 4
    m12 = build_group([parse_permutation("(1,2,3,4,5,6,7,8,9,10,11)", 12),
                       parse_permutation("(3,7,11,8)(4,10,5,6)", 12),
                       parse_permutation("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)])
    assert transitivity_degree(m12) == 5


@pytest.mark.parametrize("n", range(3, 9))
def test_transitivity_degree_of_symmetric_and_alternating(n):
    from setorbits.catalog import builtin
    assert transitivity_degree(builtin("symmetric", n)) == n
    assert transitivity_degree(builtin("alternating", n)) == n - 2
