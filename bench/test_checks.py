"""Each benchmark check accepts a right answer and rejects a wrong one;
the percentile estimator and the host-speed normalisation give known values.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import quantile  # noqa: E402
import workloads  # noqa: E402
from setorbits import orbitcount, perm  # noqa: E402


def _group(gens, n):
    return perm.build_group([perm.Permutation(g) for g in gens], degree=n)


# ---------------------------------------------------------------------------
# closed forms, against the published sequences (OEIS A000031, A000029)

def test_closed_forms():
    assert [checks.necklaces(n) for n in range(1, 11)] == \
        [2, 3, 4, 6, 8, 14, 20, 36, 60, 108]
    assert [checks.bracelets(n) for n in range(3, 11)] == \
        [4, 6, 8, 13, 18, 30, 46, 78]
    assert checks.wreath_orbits(8, 2) == 45
    assert checks.young_orbits((2, 3)) == 12


@pytest.mark.parametrize("kind,params", [
    ("wreath", (3, 4)), ("wreath", (2, 3)), ("young", (2, 3)),
    ("young", (2, 2, 3)), ("cyclic", (6,)), ("cyclic", (9,)),
    ("dihedral", (7,)), ("dihedral", (8,))])
def test_family_closed_form_matches_enumeration(kind, params):
    gens, expected = workloads.family_gens(kind, params)
    n = len(gens[0])
    assert len(orbitcount.enumerate_set_orbits(_group(gens, n))) == expected


# ---------------------------------------------------------------------------
# orbit partitions

@pytest.fixture
def partition():
    gens, expected = workloads.family_gens("wreath", (2, 3))
    orbits = orbitcount.enumerate_set_orbits(_group(gens, 6))
    assert checks.partition_problems(orbits, 6, gens, expected) == []
    return orbits, gens, expected


def _mutations(orbits):
    merged = [sorted(orbits[1] + orbits[2])] + orbits[3:]
    yield "merged pair", [orbits[0]] + merged
    big = next(k for k, o in enumerate(orbits) if len(o) > 1)
    yield "split orbit", orbits[:big] + [orbits[big][:1], orbits[big][1:]] + orbits[big + 1:]
    yield "dropped mask", [orbits[0]] + [orbits[big][1:]] + \
        [o for k, o in enumerate(orbits) if k not in (0, big)]
    yield "mask twice", [orbits[0] + orbits[1][:1]] + orbits[1:]
    yield "orbits reordered", orbits[::-1]
    yield "masks descending", [orbits[big][::-1] if k == big else o
                               for k, o in enumerate(orbits)]


@pytest.mark.parametrize("which", range(6))
def test_partition_check_rejects(partition, which):
    orbits, gens, expected = partition
    name, wrong = list(_mutations(orbits))[which]
    assert checks.partition_problems(wrong, 6, gens, expected), name


def test_partition_check_rejects_wrong_count(partition):
    orbits, gens, expected = partition
    assert checks.partition_problems(orbits, 6, gens, expected + 1)


# ---------------------------------------------------------------------------
# profiles

D8_GENS = [[1, 2, 3, 0], [0, 3, 2, 1]]  # dihedral group of the square


def _d8():
    prof = orbitcount.orbit_profile(_group(D8_GENS, 4)).by_size
    return prof, sum(prof)


def test_profile_check_accepts():
    prof, s = _d8()
    assert checks.profile_problems(prof, s, 8, 4, D8_GENS, 8, 6, prof) == []


@pytest.mark.parametrize("change", [
    "s off by one", "expected s off by one", "order", "not palindromic",
    "s_1", "independent profile"])
def test_profile_check_rejects(change):
    prof, s = _d8()
    args = dict(profile=prof, s=s, order=8, n=4, gens=D8_GENS,
                expected_order=8, expected_s=6, expected_profile=prof)
    if change == "s off by one":
        args["s"] = s + 1
    elif change == "expected s off by one":
        args["expected_s"] = 7
    elif change == "order":
        args["order"] = 16
    elif change == "not palindromic":
        args["profile"] = (1, 1, 3, 2, 1)
        args["expected_profile"] = None
        args["s"] = args["expected_s"] = 8
    elif change == "s_1":
        args["profile"] = (1, 2, 2, 2, 1)  # palindromic, but D8 is transitive
        args["expected_profile"] = None
        args["s"] = args["expected_s"] = 8
    else:
        args["expected_profile"] = (1, 1, 3, 1, 1)
    assert checks.profile_problems(**args)


def test_direct_product_is_a_convolution():
    gens = [workloads._shift(g, 0, 8) for g in D8_GENS] + \
           [workloads._shift(g, 4, 8) for g in D8_GENS]
    prof = orbitcount.orbit_profile(_group(gens, 8)).by_size
    d8, _ = _d8()
    assert prof == checks.convolve(d8, d8)
    assert prof != checks.convolve(d8, (1, 1, 1, 1, 1))


# ---------------------------------------------------------------------------
# classification rows

def _golden_rows(r):
    golden = checks.read_golden(os.path.join(workloads.TABLES, f"r{r}.tsv"))
    rows = [(d, f"row{k}", o, s) for k, (d, o, s) in enumerate(golden)]
    return golden, rows, {label: d + r for d, label, _, _ in rows}


def test_classify_check_accepts_the_table():
    golden, rows, rederived = _golden_rows(3)
    assert checks.classify_problems(3, rows, golden, rederived) == []


@pytest.mark.parametrize("change", [
    "dropped golden row", "extra row", "s off by one", "rederived s"])
def test_classify_check_rejects(change):
    golden, rows, rederived = _golden_rows(3)
    if change == "dropped golden row":
        rows = rows[1:]
    elif change == "extra row":
        rows = rows + [rows[0]]
    elif change == "s off by one":
        d, label, o, s = rows[0]
        rows = [(d, label, o, s + 1)] + rows[1:]
    else:
        rederived[rows[0][1]] += 1
    assert checks.classify_problems(3, rows, golden, rederived)


# ---------------------------------------------------------------------------
# the checks as the workloads bind them

def _first(ops, label_part):
    return next(op for op in ops if label_part in op.label)


def test_count_profiles_op_check():
    ops = workloads.count_profiles_ops(0)
    op = _first(ops, "12P2")
    order, prof, s = op.run()
    assert op.check((order, prof, s)) == []
    assert op.check((order, prof, s + 1))
    product = next(op for op in ops if "x" in op.label)
    order, prof, s = product.run()
    assert product.check((order, prof, s)) == []
    bent = (prof[0], prof[1] + 1) + prof[2:-2] + (prof[-2] + 1, prof[-1])
    assert product.check((order, bent, s + 2))


def test_orbit_partition_op_check():
    op = _first(workloads.orbit_partition_ops(0), "wreath(3, 4)")
    orbits = op.run()
    assert op.check(orbits) == []
    assert op.check([orbits[0]] + [sorted(orbits[1] + orbits[2])] + orbits[3:])


def test_classify_op_check():
    op = workloads.classify_warm_ops(0)[0]
    sweep = op.run()
    assert sorted(r for r, _ in sweep) == sorted(workloads.WARM_R)
    assert op.check(sweep) == []
    (r, rows), rest = sweep[0], sweep[1:]
    assert op.check(((r, rows[1:]),) + rest)  # a dropped row


# ---------------------------------------------------------------------------
# measurement helpers

def test_betainc_closed_form():
    # I_x(2, 2) = 3x^2 - 2x^3
    for x in (0.1, 0.3, 0.5, 0.8):
        assert quantile.betainc(2, 2, x) == pytest.approx(3 * x**2 - 2 * x**3, abs=1e-14)
    # symmetry, on both branches and with large parameters (where the
    # log-gamma terms of order 10^4 leave about 12 correct digits)
    for a, b, x in ((5.4, 0.6, 0.99), (5400, 600, 0.9), (0.5, 0.5, 0.1)):
        assert quantile.betainc(a, b, x) + quantile.betainc(b, a, 1 - x) == \
            pytest.approx(1.0, abs=1e-10)


def test_harrell_davis_weights():
    # n = 3, q = 1/2: the weights are I(1/3), I(2/3) - I(1/3), 1 - I(2/3)
    # of Beta(2, 2), i.e. 7/27, 13/27, 7/27
    assert quantile.harrell_davis([27.0, 0.0, 0.0], 0.5) == pytest.approx(7.0)
    assert quantile.harrell_davis([5.0], 0.9) == 5.0
    assert quantile.harrell_davis([3.0] * 200, 0.9) == pytest.approx(3.0)
    values = [float(i) for i in range(1000)]
    assert quantile.harrell_davis(values, 0.5) == pytest.approx(499.5)
    assert 890 < quantile.harrell_davis(values, 0.9) < 910


def test_normalise():
    nominal = calibrate.NOMINAL_S
    assert calibrate.normalise(2.0, [nominal, nominal]) == pytest.approx(2.0)
    # a host at half speed halves the normalised time of the same op
    assert calibrate.normalise(2.0, [2 * nominal] * 3) == pytest.approx(1.0)
    # the samples are averaged, not their inverses
    assert calibrate.normalise(3.0, [nominal, 2 * nominal]) == pytest.approx(2.0)
    assert calibrate.reference(2) > 0
