"""Exact set-orbit counts: Burnside averaging plus a direct subset enumerator.

A subset of {1..n} is fixed by g exactly when it is a union of cycles of g,
so g fixes 2^(#cycles) subsets and, refined by size, the coefficients of
prod_i (1 + x^(l_i)) over the cycle lengths l_i.  Averaging over the group
gives s(G) and the profile (s_0, ..., s_n); every division is asserted exact.

Two independent routes are kept deliberately separate: the Burnside average
over a stabilizer chain (scales with |G|, runs for |G| <= 10^7) and a walk
over all 2^n subset bitmasks (scales with 2^n, runs for n <= 22).
``counting_route`` picks, for the support of each group, the shortcut for
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


def _restriction_to_support(G: PermGroup) -> tuple[PermGroup, int] | None:
    """(G restricted to its moved points, #fixed points), or None if faithful
    restriction does not drop any point.  The restriction is faithful, so it
    carries G's order when that is known, and no chain is built for G."""
    fixed = G.fixed_points()
    if not fixed:
        return None
    moved = [i for i in range(G.degree) if i not in set(fixed)]
    if not moved:
        return None  # trivial group; let the generic path handle it
    index = {p: k for k, p in enumerate(moved)}
    gens = [Permutation([index[g[p]] for p in moved])
            for g in G.generator_tuples()]
    return build_group(gens, degree=len(moved), order=G.known_order), len(fixed)


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
    """The route ``orbit_profile`` counts G by: "shortcut", "burnside" or
    "enumeration".

    Judged on G's support, since fixed points are split off first: natural
    symmetric and alternating actions there take the shortcut; otherwise,
    among the routes that fit (Burnside when |G| <= ITERATION_MAX_ORDER,
    enumeration when the support has at most ENUMERATION_MAX_DEGREE points),
    the one with the lower estimated cost.  Raises GroupTooLargeError when
    neither fits.
    """
    n = G.degree
    m = n - len(G.fixed_points()) or n
    order = G.order
    # on its support G is S_m or, by index 2, A_m (A_2 is trivial: no shortcut)
    if order == math.factorial(m) or (m >= 3 and 2 * order == math.factorial(m)):
        return "shortcut"
    burnside = order <= ITERATION_MAX_ORDER
    enumeration = m <= ENUMERATION_MAX_DEGREE
    if burnside and enumeration:
        enumeration_cost = (1 << m) * (len(G.generators) or 1)
        burnside = order * m <= ENUMERATION_COST_RATIO * enumeration_cost
    if burnside:
        return "burnside"
    if enumeration:
        return "enumeration"
    raise GroupTooLargeError(
        f"group of order {order} on {n} points fits no exact route: "
        f"Burnside needs order <= {ITERATION_MAX_ORDER}, subset "
        f"enumeration needs degree <= {ENUMERATION_MAX_DEGREE}")


def orbit_profile(G: PermGroup) -> OrbitProfile:
    """Exact per-size set-orbit counts (s_0, ..., s_n).

    A group whose fixed points can be split off is reduced to its support
    first (each fixed point doubles every entry's contribution pattern: the
    profile is the convolution with (1, 1)).  The rest is counted by the
    route ``counting_route`` picks: the all-ones profile for natural
    symmetric and alternating groups, else the cheaper of Burnside and the
    enumeration kernel; a group beyond both routes raises GroupTooLargeError.
    """
    n = G.degree
    split = _restriction_to_support(G)
    if split is not None:
        core, k = split
        inner = orbit_profile(core)
        by_size = list(inner.by_size) + [0] * k
        for _ in range(k):  # convolve with (1, 1) per fixed point
            by_size = [by_size[t] + (by_size[t - 1] if t else 0)
                       for t in range(len(by_size))]
        return OrbitProfile(n, tuple(by_size), sum(by_size))
    route = counting_route(G)
    if route == "burnside":
        return _burnside_profile(G)
    if route == "enumeration":
        return _enumeration_profile(G)
    return OrbitProfile(n, (1,) * (n + 1), n + 1)


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
