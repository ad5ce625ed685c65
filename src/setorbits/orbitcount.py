"""Exact set-orbit counts: Burnside averaging plus a direct subset enumerator.

A subset of {1..n} is fixed by g exactly when it is a union of cycles of g,
so g fixes 2^(#cycles) subsets and, refined by size, the coefficients of
prod_i (1 + x^(l_i)) over the cycle lengths l_i.  Averaging over the group
gives s(G) and the profile (s_0, ..., s_n); every division is asserted exact.

A group is first split into its direct factors on disjoint supports
(``_direct_factors``).  The set-orbits of a direct product are the products
of its factors' set-orbits, so the profile is the convolution of the
factors' profiles, and of (1, 1) once per fixed point.  A product of two
degree-8 groups thus costs two walks over 2^8 masks, not one over 2^16: one
raw count-profiles benchmark round (seed 31, 495 operations, 42 of them
such products at 5-113 ms each) fell from 2.37 s to 0.49 s.

Each factor is counted by one of two independent routes, kept deliberately
separate: the Burnside average over a stabilizer chain (scales with |G|,
runs for |G| <= 10^7) and a walk over all 2^n subset bitmasks (scales with
2^n, runs for n <= 22).  ``counting_route`` names "product" for a group of
two or more nontrivial factors; for a lone factor it picks the shortcut for
natural symmetric and alternating actions or else the cheaper route that
fits, by the cost model |G|*n against ENUMERATION_COST_RATIO*2^n*|gens|.
One table-driven walk over the masks, ``_orbits``, serves both the
enumeration route of ``orbit_profile``, which only counts its orbits, and
``enumerate_set_orbits``, which keeps them as the explicit partition (for
dumps).  ``profile_from_enumeration`` is the oracle: a separate walk that
computes every image bit by bit and shares no table or code with
``_orbits``.  Tests hold the routes and the oracle equal wherever they run.

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
    Permutation,
    _cycle_lengths,
    build_group,
)

ENUMERATION_MAX_DEGREE = 22
#: Burnside costs about |G|*n element-points, the enumeration kernel about
#: 2^n*|gens| mask images; one mask image takes about this many times as
#: long as one element-point (measured: 240-280 ns against 600-680 ns)
ENUMERATION_COST_RATIO = 0.4


@dataclass(frozen=True)
class OrbitProfile:
    """The vector (s_0(G), ..., s_n(G)) together with the total s(G)."""

    degree: int
    by_size: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.by_size) != self.degree + 1:
            raise ValueError("profile must have degree + 1 entries")
        if self.total != sum(self.by_size):
            raise ValueError("total must equal the sum of the entries")


def _direct_factors(G: PermGroup) -> tuple[list[PermGroup], int]:
    """G as a direct product on disjoint supports: its restrictions to the
    classes of moved points that a common generator links (union-find over
    the generators' supports, in one pass), ordered by smallest point, and
    its number of fixed points.

    Every generator moves the points of one class only, so G is the direct
    product of the restrictions; a generator moving two orbits (a diagonal)
    links them, so a subdirect product is never split.  A lone factor is a
    faithful restriction and carries G's known order, so no chain is built
    for it.  G itself is its lone factor when it fixes no point, or every
    point (the trivial group is counted as a whole).
    """
    n = G.degree
    parent = list(range(n))

    def root(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    gens = G.generator_tuples()
    moved = [False] * n
    firsts = []  # each generator's first moved point
    for g in gens:
        first = -1
        for p in range(n):
            if g[p] != p:
                moved[p] = True
                if first < 0:
                    first, r = p, root(p)
                else:
                    parent[root(p)] = r
        firsts.append(first)
    classes: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for p in range(n):
        if moved[p]:
            classes.setdefault(root(p), ([], []))[0].append(p)
    fixed = moved.count(False)
    if not classes or len(classes) == 1 and not fixed:
        return [G], 0
    for g, first in zip(gens, firsts):
        classes[root(first)][1].append(g)
    order = G.known_order if len(classes) == 1 else None
    factors = []
    for points, own in classes.values():
        index = {p: k for k, p in enumerate(points)}
        factors.append(build_group(
            [Permutation([index[g[p]] for p in points]) for g in own],
            degree=len(points), order=order))
    return factors, fixed


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
    # F is S_m or, by index 2, A_m (A_2 is trivial: no shortcut)
    if order == math.factorial(m) or (m >= 3 and 2 * order == math.factorial(m)):
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
    return OrbitProfile(G.degree, tuple(by_size), sum(by_size))


def _burnside_profile(G: PermGroup) -> OrbitProfile:
    """The Burnside average over every element of G."""
    hist = Counter(map(_cycle_lengths, G.iter_element_tuples()))
    by_size = _profile_from_histogram(G.degree, G.order, hist)
    return OrbitProfile(G.degree, by_size, sum(by_size))


def _image_table(g: tuple[int, ...], first: int, width: int) -> list[int]:
    """t[b] = image under g of the subset whose bits are b << first."""
    t = [0] * (1 << width)
    for b in range(1, 1 << width):
        low = b & -b
        t[b] = t[b ^ low] | 1 << g[first + low.bit_length() - 1]
    return t


def _require_enumerable(n: int) -> None:
    if n > ENUMERATION_MAX_DEGREE:
        raise GroupTooLargeError(
            f"degree {n} too large for subset enumeration (max "
            f"{ENUMERATION_MAX_DEGREE})")


def _orbits(G: PermGroup) -> Iterator[list[int]]:
    """Every orbit of G on the 2^n subset masks, each starting at its
    smallest mask; the starts ascend.

    Per generator, one table maps the low byte of a mask to its image and
    one maps the remaining n - 8 <= 14 bits, so an image costs two lookups.
    Visited masks are marked in a bytearray, and each orbit list is its own
    work queue.  The caller checks the degree first.
    """
    n = G.degree
    tables = [(_image_table(g, 0, min(n, 8)), _image_table(g, 8, max(n - 8, 0)))
              for g in G.generator_tuples()]
    seen = bytearray(1 << n)
    start = 0
    while start >= 0:
        seen[start] = 1
        orbit = [start]
        for m in orbit:
            low, high = m & 255, m >> 8
            for t_low, t_high in tables:
                img = t_low[low] | t_high[high]
                if not seen[img]:
                    seen[img] = 1
                    orbit.append(img)
        yield orbit
        start = seen.find(0, start + 1)


def _enumeration_profile(G: PermGroup) -> OrbitProfile:
    """The counting kernel: orbits per size by the table-driven walk, each
    counted at its smallest mask; no orbit is kept."""
    n = G.degree
    _require_enumerable(n)
    by_size = [0] * (n + 1)
    for orbit in _orbits(G):
        by_size[orbit[0].bit_count()] += 1
    return OrbitProfile(n, tuple(by_size), sum(by_size))


def count_set_orbits(G: PermGroup) -> int:
    """s(G) = (sum over g of 2^(#cycles of g)) / |G|, computed exactly."""
    return orbit_profile(G).total


def enumerate_set_orbits(G: PermGroup) -> list[list[int]]:
    """Partition of all 2^n subsets into orbits, subsets as bitmasks.

    Orbits are sorted by (subset size, smallest member mask); within an
    orbit, masks are ascending.  Requires degree <= 22.
    """
    _require_enumerable(G.degree)
    orbits = []
    for orbit in _orbits(G):
        orbit.sort()
        orbits.append(orbit)
    # the walk yields the orbits by ascending smallest mask: a stable sort by
    # size leaves them in (size, smallest mask) order
    orbits.sort(key=lambda orbit: orbit[0].bit_count())
    return orbits


def profile_from_enumeration(G: PermGroup) -> OrbitProfile:
    """Orbits per size by a walk over all 2^n masks that computes every
    image bit by bit: the oracle for the table-driven walk, sharing no table
    or code with it."""
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
    return OrbitProfile(n, tuple(by_size), sum(by_size))


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
