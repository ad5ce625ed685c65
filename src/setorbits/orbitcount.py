"""Exact set-orbit counts: Burnside averaging plus a direct subset enumerator.

A subset of {1..n} is fixed by g exactly when it is a union of cycles of g,
so g fixes 2^(#cycles) subsets and, refined by size, the coefficients of
prod_i (1 + x^(l_i)) over the cycle lengths l_i.  Averaging over the group
gives s(G) and the profile (s_0, ..., s_n); every division is asserted exact.

A group is first split into its direct factors on disjoint supports
(``_direct_factors``).  The set-orbits of a direct product are the products
of its factors' set-orbits, so the profile is the convolution of the
factors' profiles, and of (1, 1) once per fixed point, and the partition
``enumerate_set_orbits`` lists is assembled from its factors' partitions,
with {0}, {p} for each fixed point p.  A product of two degree-8 groups
thus costs two walks over 2^8 masks, not one over 2^16, whether it is
counted or listed.

Each factor is counted by one of two independent routes, kept deliberately
separate: the Burnside average over a stabilizer chain (scales with |G|,
runs for |G| <= 10^7) and a walk over the subset bitmasks (scales with
2^n, runs for n <= 22).  ``counting_route`` names "product" for a group of
two or more nontrivial factors; for a lone factor it picks the shortcut for
natural symmetric and alternating actions or else the cheaper route that
fits, by the cost model |G|*n against ENUMERATION_COST_RATIO*2^n*|gens|.
One table-driven walk over the masks of a group that does not split,
``_orbits``, serves both the enumeration route of ``orbit_profile``, which
only counts its orbits, and ``enumerate_set_orbits``, which keeps them as
the explicit partition (for dumps) of the group or of each of its
factors.  Taking complements commutes with every permutation of the
points, so it maps the orbits on t-subsets one to one onto the orbits on
(n-t)-subsets and s_t = s_{n-t}: the walk visits only the masks of at most
n // 2 points (2510 of M12's 4096), and both callers mirror the rest.  With
one or two generators no mask loops over them: the orbits of a group on one
generator are its cycles, followed back to their start with no visited
test, and a pair has both image lookups written out; only other generator
counts loop over the tables.  Each image is two lookups, in tables for the
low min(8, (n + 1) // 2) bits of a mask and for the rest, so a small degree
builds small tables (8 + 8 entries per generator at n = 6).
A walked partition files each orbit under its size; the walk finds the
orbits of each size up to n // 2 by ascending smallest mask, so only the
mirrored sizes are sorted.
``profile_from_enumeration`` is the oracle: a separate walk over all 2^n
masks that computes every image bit by bit, shares no table or code with
``_orbits`` and does not use the complement lemma.  Tests hold the routes
and the oracle equal wherever they run.

Subsets are encoded as bitmasks with point i on bit i-1, so orbit dumps are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .perm import (
    ITERATION_MAX_ORDER,
    GroupTooLargeError,
    PermGroup,
    _cycle_lengths,
    _direct_factors,
    _factor_supports,
    contains_alternating,
)

ENUMERATION_MAX_DEGREE = 22
#: Burnside costs about |G|*n element-points, the enumeration kernel about
#: 2^n*|gens| mask images.  Timed per unit on the 52 single-factor
#: pair-generated catalog groups of degree 9-12 and order <= 10^5 (best of
#: 7 per group, medians over groups, a shared 2-core host), one
#: element-point takes 182-190 ns and one mask image 64-66 ns, about 0.35
#: times as long.  The ratio stays at 0.4 because a route is judged on
#: whole count operations (build, order, profile), and there moving it
#: does not pay.  Timed by both routes (raw, best of 5, three runs) over the
#: 192 factor counts of a count-profiles round (seed 3601) whose
#: |G|*n / (2^n*|gens|) lies in 0.2-0.8, the chosen routes take
#: 28.8-33.0 ms, the faster route of each factor 1.9-2.7% less, and any
#: one ratio in 0.2-0.35 0.7-1.9% less.  Only one-generator groups (C7,
#: C8) gain 20% or more by switching.
ENUMERATION_COST_RATIO = 0.4

#: the translate tables of ``_orbits``: a popcount byte plus one, and for
#: each h <= ENUMERATION_MAX_DEGREE // 2, 1 for a popcount above h, else 0
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
_ABOVE = [bytes(c > h for c in range(256))
          for h in range(ENUMERATION_MAX_DEGREE // 2 + 1)]


@dataclass(frozen=True)
class OrbitProfile:
    """The vector (s_0(G), ..., s_n(G)); its degree n and total s(G) are
    read off it."""

    by_size: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.by_size) - 1

    @property
    def total(self) -> int:
        return sum(self.by_size)


def _profile_from_histogram(n: int, order: int, hist: Counter) -> tuple[int, ...]:
    total_counts = [0] * (n + 1)
    for lengths, mult in hist.items():
        coeff = [0] * (n + 1)
        coeff[0] = 1
        top = 0
        for l in lengths:
            top += l
            for t in range(top, l - 1, -1):
                coeff[t] += coeff[t - l]
        for t in range(n + 1):
            total_counts[t] += mult * coeff[t]
    out = []
    for t, c in enumerate(total_counts):
        q, r = divmod(c, order)
        if r:
            raise ArithmeticError(
                f"Burnside numerator {c} for size {t} not divisible by {order}")
        out.append(q)
    return tuple(out)


def counting_route(G: PermGroup) -> str:
    """The route ``orbit_profile`` counts G by: "product", "shortcut",
    "burnside" or "enumeration".

    G is split into its direct factors first (``_direct_factors``).  With
    two or more nontrivial factors the route is "product": each factor is
    counted by its own route and the profiles are convolved.  Otherwise the
    route is judged on the one factor, G on its support: natural symmetric
    and alternating actions there take the shortcut; otherwise, among the
    routes that fit (Burnside when |G| <= ITERATION_MAX_ORDER, enumeration
    when the support has at most ENUMERATION_MAX_DEGREE points), the one
    with the lower estimated cost.  Raises GroupTooLargeError when neither
    fits.
    """
    factors, _ = _direct_factors(G)
    return "product" if len(factors) > 1 else _route(factors[0])


def _route(F: PermGroup) -> str:
    """The route of ``counting_route`` for a group F that does not split."""
    m = F.degree
    order = F.order
    # F is S_m, or A_m from degree 3 on (A_2 is trivial: no shortcut)
    if order == math.factorial(m) or contains_alternating(m, order):
        return "shortcut"
    burnside = order <= ITERATION_MAX_ORDER
    enumeration = m <= ENUMERATION_MAX_DEGREE
    if burnside and enumeration:
        enumeration_cost = (1 << m) * (len(F.generators) or 1)
        burnside = order * m <= ENUMERATION_COST_RATIO * enumeration_cost
    if burnside:
        return "burnside"
    if enumeration:
        return "enumeration"
    raise GroupTooLargeError(
        f"group of order {order} on {m} points fits no exact route: "
        f"Burnside needs order <= {ITERATION_MAX_ORDER}, subset "
        f"enumeration needs degree <= {ENUMERATION_MAX_DEGREE}")


def orbit_profile(G: PermGroup) -> OrbitProfile:
    """Exact per-size set-orbit counts (s_0, ..., s_n).

    The set-orbits of a direct product on disjoint supports are the
    products of its factors' set-orbits, so G's profile is the convolution
    of its direct factors' profiles (``_direct_factors``), and of (1, 1)
    once per fixed point.  Each factor is counted by the route ``_route``
    picks for it: the all-ones profile for natural symmetric and
    alternating groups, else the cheaper of Burnside and the enumeration
    kernel; a factor beyond both routes raises GroupTooLargeError.
    """
    factors, fixed = _direct_factors(G)
    # (1, 1) convolved once per fixed point
    by_size = [math.comb(fixed, t) for t in range(fixed + 1)]
    for F in factors:
        route = _route(F)
        if route == "burnside":
            inner = _burnside_profile(F).by_size
        elif route == "enumeration":
            inner = _enumeration_profile(F).by_size
        else:
            inner = (1,) * (F.degree + 1)
        out = [0] * (len(by_size) + F.degree)
        for i, a in enumerate(by_size):
            for j, b in enumerate(inner):
                out[i + j] += a * b
        by_size = out
    return OrbitProfile(tuple(by_size))


def _burnside_profile(G: PermGroup) -> OrbitProfile:
    """The Burnside average over every element of G."""
    hist = Counter(map(_cycle_lengths, G.iter_element_tuples()))
    by_size = _profile_from_histogram(G.degree, G.order, hist)
    return OrbitProfile(by_size)


def _image_table(g: tuple[int, ...], first: int, width: int) -> list[int]:
    """t[b] = image under g of the subset whose bits are b << first, by
    doubling: the entries with bit p set are those without it, or g's image
    of that point."""
    t = [0]
    for p in range(first, first + width):
        bit = 1 << g[p]
        t += [x | bit for x in t]
    return t


def _require_enumerable(n: int) -> None:
    if n > ENUMERATION_MAX_DEGREE:
        raise GroupTooLargeError(
            f"degree {n} too large for subset enumeration (max "
            f"{ENUMERATION_MAX_DEGREE})")


def _orbits(G: PermGroup) -> Iterator[list[int]]:
    """Every orbit of G on the subset masks of at most n // 2 points, each
    starting at its smallest mask; the starts ascend.

    Taking complements commutes with every permutation, so the orbits on
    the larger subsets are the complements of these (s_t = s_{n-t}); the
    callers mirror them.  The masks above n // 2 points are marked visited
    before the walk, from a popcount array built by doubling with
    ``bytes.translate``, so no Python loop runs per mask.  Per generator,
    one table maps the low w = min(8, (n + 1) // 2) bits of a mask to their
    image and one maps the remaining n - w <= 14 bits, so an image costs two
    lookups and the tables have 2^w and 2^(n - w) entries: 16 + 16 at
    n = 8, and the full 256 low entries from n = 15 on.

    The walk is chosen by the number of generators, so that with one or
    two no mask loops over them:
    - one generator: the orbit of a start is its cycle, followed until it
      returns to the start, with no visited test per image;
    - two: both lookups written out;
    - none, or three or more: a loop over the tables per mask.
    In the last two, each orbit list is its own work queue.  The caller
    checks the degree first.
    """
    n = G.degree
    w = min(8, (n + 1) // 2)
    low = (1 << w) - 1
    tables = [(_image_table(g, 0, w), _image_table(g, w, n - w))
              for g in G.generator_tuples()]
    popcount = bytearray(1)
    for _ in range(n):
        popcount += popcount.translate(_PLUS_ONE)
    seen = popcount.translate(_ABOVE[n // 2])
    del popcount
    start = 0
    if len(tables) == 1:
        ((a, b),) = tables
        while start >= 0:
            orbit = [start]
            push = orbit.append
            img = a[start & low] | b[start >> w]
            while img != start:
                seen[img] = 1
                push(img)
                img = a[img & low] | b[img >> w]
            yield orbit
            start = seen.find(0, start + 1)
    elif len(tables) == 2:
        (a, b), (c, d) = tables
        while start >= 0:
            seen[start] = 1
            orbit = [start]
            push = orbit.append
            for m in orbit:
                lo, hi = m & low, m >> w
                img = a[lo] | b[hi]
                if not seen[img]:
                    seen[img] = 1
                    push(img)
                img = c[lo] | d[hi]
                if not seen[img]:
                    seen[img] = 1
                    push(img)
            yield orbit
            start = seen.find(0, start + 1)
    else:
        while start >= 0:
            seen[start] = 1
            orbit = [start]
            for m in orbit:
                lo, hi = m & low, m >> w
                for t_low, t_high in tables:
                    img = t_low[lo] | t_high[hi]
                    if not seen[img]:
                        seen[img] = 1
                        orbit.append(img)
            yield orbit
            start = seen.find(0, start + 1)


def _enumeration_profile(G: PermGroup) -> OrbitProfile:
    """The counting kernel: orbits per size by the table-driven walk, each
    counted at its smallest mask, and s_t = s_{n-t} for t > n // 2; no orbit
    is kept."""
    n = G.degree
    _require_enumerable(n)
    by_size = [0] * (n + 1)
    for orbit in _orbits(G):
        by_size[orbit[0].bit_count()] += 1
    for t in range(n // 2 + 1, n + 1):
        by_size[t] = by_size[n - t]
    return OrbitProfile(tuple(by_size))


def count_set_orbits(G: PermGroup) -> int:
    """s(G) = (sum over g of 2^(#cycles of g)) / |G|, computed exactly."""
    return orbit_profile(G).total


def enumerate_set_orbits(G: PermGroup) -> list[list[int]]:
    """Partition of all 2^n subsets into orbits, subsets as bitmasks.

    Orbits are sorted by (subset size, smallest member mask); within an
    orbit, masks are ascending.  Requires degree <= 22.

    A group that does not split (``_direct_factors``), the trivial group
    included, is walked whole (``_partition``).  Otherwise each nontrivial
    factor is walked on its own points, each fixed point p adds the two
    orbits {} and {p}, and the orbits of G are the products of one orbit
    per factor: masks on disjoint supports combine by ``|``.  A factor's
    mask maps back to G's points by the image table of its support
    (``_factor_supports``); no group order is asked for, so no chain is
    built.  Each product orbit is then sorted, and its first mask, the sum
    of its factors' smallest masks, gives its size and its place.
    """
    n = G.degree
    _require_enumerable(n)
    factors, _ = _direct_factors(G)
    if factors[0] is G:
        return _partition(G)
    orbits = [[0]]
    fixed = (1 << n) - 1
    for F, support in zip(factors, _factor_supports(G)):
        lift = _image_table(support, 0, F.degree)
        fixed ^= lift[-1]  # the factor's whole support
        lifted = [[lift[m] for m in orbit] for orbit in _partition(F)]
        orbits = [[a | b for a in X for b in Y] for X in orbits for Y in lifted]
    while fixed:
        bit = fixed & -fixed
        fixed ^= bit
        orbits += [[a | bit for a in X] for X in orbits]
    by_size = [[] for _ in range(n + 1)]
    for orbit in orbits:
        orbit.sort()
        by_size[orbit[0].bit_count()].append(orbit)
    for bucket in by_size:
        bucket.sort()
    return [orbit for bucket in by_size for orbit in bucket]


def _partition(G: PermGroup) -> list[list[int]]:
    """The partition of ``enumerate_set_orbits`` by one walk of G on all
    its points.  Each orbit is filed under its size: the walk finds the
    orbits of at most n / 2 points by ascending smallest mask, so only the
    buckets of more than n / 2 points, the complements of the walked ones,
    are sorted."""
    n = G.degree
    full = (1 << n) - 1
    by_size = [[] for _ in range(n + 1)]
    for orbit in _orbits(G):
        orbit.sort()
        by_size[orbit[0].bit_count()].append(orbit)
    for t in range(n // 2 + 1, n + 1):
        # the complements of an ascending orbit, taken from its end, ascend;
        # the orbits' first masks differ, so a plain sort orders them by it
        bucket = [[full ^ m for m in reversed(orbit)] for orbit in by_size[n - t]]
        bucket.sort()
        by_size[t] = bucket
    return [orbit for bucket in by_size for orbit in bucket]


def profile_from_enumeration(G: PermGroup) -> OrbitProfile:
    """Orbits per size by a walk over all 2^n masks that computes every
    image bit by bit: the oracle for the table-driven walk, sharing no table
    or code with it, and not mirroring any size by the complement lemma."""
    n = G.degree
    _require_enumerable(n)
    gens = G.generator_tuples()
    seen = bytearray(1 << n)
    by_size = [0] * (n + 1)
    for start in range(1 << n):
        if seen[start]:
            continue
        seen[start] = 1
        by_size[bin(start).count("1")] += 1
        stack = [start]
        while stack:
            m = stack.pop()
            for g in gens:
                img = 0
                rest = m
                while rest:
                    low = rest & -rest
                    img |= 1 << g[low.bit_length() - 1]
                    rest ^= low
                if not seen[img]:
                    seen[img] = 1
                    stack.append(img)
    return OrbitProfile(tuple(by_size))


def is_t_set_transitive(G: PermGroup, t: int) -> bool:
    """True iff s_t(G) = 1."""
    if not 0 <= t <= G.degree:
        raise ValueError(f"t = {t} out of range 0..{G.degree}")
    return orbit_profile(G).by_size[t] == 1


def is_set_transitive(G: PermGroup) -> bool:
    """True iff s(G) = n + 1, i.e. one orbit for every subset size."""
    return count_set_orbits(G) == G.degree + 1


def dump_orbits(G: PermGroup) -> list[str]:
    """Orbit dump lines: subsets as sorted {a,b,...} lists, one orbit per line."""
    names = [str(i + 1) for i in range(G.degree)]
    lines = []
    for orb in enumerate_set_orbits(G):
        parts = []
        for mask in orb:
            pts = []
            while mask:
                low = mask & -mask
                pts.append(names[low.bit_length() - 1])
                mask ^= low
            parts.append("{" + ",".join(pts) + "}")
        lines.append(" ".join(parts))
    return lines
