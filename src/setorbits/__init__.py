"""Exact set-orbit counting for permutation groups.

A set-orbit of a permutation group G <= S_n is an orbit of the induced
action of G on the powerset of {1..n}.  This package computes the total
count s(G) and the per-size profile (s_0, ..., s_n) exactly, prunes the
degrees that can carry groups with s(G) = n + r, and classifies all groups
attaining a given small excess r over the minimum n + 1.
"""

from .perm import (
    GroupTooLargeError,
    PermError,
    Permutation,
    PermGroup,
    build_group,
    compose,
    elements,
    is_primitive,
    is_transitive,
    parse_permutation,
    transitivity_degree,
)
from .orbitcount import (
    OrbitProfile,
    count_set_orbits,
    enumerate_set_orbits,
    is_set_transitive,
    is_t_set_transitive,
    orbit_profile,
)

__all__ = [
    "GroupTooLargeError",
    "OrbitProfile",
    "PermError",
    "Permutation",
    "PermGroup",
    "build_group",
    "compose",
    "count_set_orbits",
    "elements",
    "enumerate_set_orbits",
    "is_primitive",
    "is_set_transitive",
    "is_t_set_transitive",
    "is_transitive",
    "orbit_profile",
    "parse_permutation",
    "transitivity_degree",
]
