"""Per-layer counters for the traced run.

``Tracer.install`` wraps the public functions of each ``setorbits`` module
(and the ``PermGroup`` / ``CatalogEntry`` methods named below) in every
module namespace that binds them, so calls made inside the package are
counted too.  Only the outermost call of a span is timed, so recursion
(``orbit_profile`` on a group's support) is not counted twice.  Times are
inclusive: ``orbitcount.burnside_s`` contains the chain builds it triggers.
Counters move only while ``active`` is set, i.e. inside timed operations.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from setorbits import catalog, orbitcount, perm, pipeline, prune, subgroups

#: per-layer metric names and units, in report order
LAYER_METRICS = {
    "perm.chain_builds": "count",
    "perm.chain_build_s": "s",
    "perm.elements_iterated": "count",
    "orbitcount.burnside_calls": "count",
    "orbitcount.burnside_s": "s",
    "orbitcount.burnside_elements_per_s": "1/s",
    "orbitcount.enum_calls": "count",
    "orbitcount.enum_s": "s",
    "orbitcount.enum_masks_per_s": "1/s",
    "subgroups.enumerate_s": "s",
    "subgroups.classes": "count",
    "prune.calls": "count",
    "prune.s": "s",
    "catalog.load_s": "s",
    "catalog.group_builds": "count",
    "catalog.manifest_checks": "count",
    "catalog.manifest_s": "s",
    "pipeline.candidates": "count",
    "pipeline.rows": "count",
    "pipeline.hit_ratio": "ratio",
    "pipeline.candidate_select_s": "s",
    "pipeline.count_calls": "count",
    "pipeline.cache_hits": "count",
}


def derive(c: Counter) -> dict[str, float]:
    """Layer metrics of one round from its raw counters (``catalog.load_s``
    comes from the set-up and is filled in by the caller)."""
    out = {name: c[name] for name in LAYER_METRICS}
    out["orbitcount.burnside_elements_per_s"] = _rate(
        c["orbitcount.burnside_elements"], c["orbitcount.burnside_s"])
    out["orbitcount.enum_masks_per_s"] = _rate(
        c["orbitcount.enum_masks"], c["orbitcount.enum_s"])
    out["pipeline.hit_ratio"] = _rate(c["pipeline.rows"], c["pipeline.candidates"])
    out["pipeline.cache_hits"] = c["pipeline.candidates"] - c["pipeline.count_calls"]
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.active = False
        self._depth: Counter = Counter()

    def wrap(self, fn, key, calls=None, seconds=None, watch=None, on_exit=None):
        """``fn`` with its outermost calls counted under ``calls`` and timed
        under ``seconds``; ``on_exit(result, args, delta)`` gets the change
        of the ``watch`` counter across the call."""
        c = self.counts

        def traced(*args, **kwargs):
            if not self.active or self._depth[key]:
                return fn(*args, **kwargs)
            self._depth[key] += 1
            before = c[watch] if watch else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth[key] -= 1
            if calls:
                c[calls] += 1
            if seconds:
                c[seconds] += dt
            if on_exit:
                on_exit(result, args, c[watch] - before if watch else 0)
            return result

        return traced

    def install(self):
        c = self.counts
        iter_elements = perm.PermGroup.iter_element_tuples

        def counted_elements(*args, **kwargs):
            it = iter_elements(*args, **kwargs)
            return self._count(it) if self.active else it

        perm.PermGroup.__init__ = self.wrap(
            perm.PermGroup.__init__, "chain", "perm.chain_builds",
            "perm.chain_build_s")
        perm.PermGroup.iter_element_tuples = counted_elements

        def burnside_done(result, args, delta):
            c["orbitcount.burnside_elements"] += delta

        for name in ("count_set_orbits", "orbit_profile"):
            _rebind(orbitcount, name, lambda fn: self.wrap(
                fn, "burnside", "orbitcount.burnside_calls",
                "orbitcount.burnside_s", watch="perm.elements_iterated",
                on_exit=burnside_done))

        def enum_done(result, args, delta):
            c["orbitcount.enum_masks"] += 1 << args[0].degree

        _rebind(orbitcount, "enumerate_set_orbits", lambda fn: self.wrap(
            fn, "enum", "orbitcount.enum_calls", "orbitcount.enum_s",
            on_exit=enum_done))

        def classes_done(result, args, delta):
            c["subgroups.classes"] += len(result)

        _rebind(subgroups, "all_subgroups", lambda fn: self.wrap(
            fn, "subgroups", seconds="subgroups.enumerate_s",
            on_exit=classes_done))
        _rebind(prune, "prune_degree", lambda fn: self.wrap(
            fn, "prune", "prune.calls", "prune.s"))

        def group_done(result, args, delta):
            c["catalog.group_builds"] += delta > 0

        catalog.CatalogEntry.group = self.wrap(
            catalog.CatalogEntry.group, "group", watch="perm.chain_builds",
            on_exit=group_done)
        _rebind(catalog, "check_manifest", lambda fn: self.wrap(
            fn, "manifest", "catalog.manifest_checks", "catalog.manifest_s"))

        def candidates_done(result, args, delta):
            c["pipeline.candidates"] += len(result)

        def rows_done(result, args, delta):
            c["pipeline.rows"] += len(result.rows)

        _rebind(pipeline, "candidate_groups", lambda fn: self.wrap(
            fn, "candidates", seconds="pipeline.candidate_select_s",
            on_exit=candidates_done))
        # pipeline's own binding only: counts the Burnside calls its cache let through
        pipeline.count_set_orbits = self.wrap(
            pipeline.count_set_orbits, "pipeline-count", "pipeline.count_calls")
        _rebind(pipeline, "classify", lambda fn: self.wrap(
            fn, "classify", on_exit=rows_done))

    def _count(self, it):
        n = 0
        try:
            for t in it:
                n += 1
                yield t
        finally:
            self.counts["perm.elements_iterated"] += n


def _rebind(module, name, make):
    """Replace ``module.name`` by ``make(original)`` in every setorbits
    module that binds the same object."""
    orig = getattr(module, name)
    new = make(orig)
    for mod in list(sys.modules.values()):
        modname = getattr(mod, "__name__", "")
        if (modname == "setorbits" or modname.startswith("setorbits.")) \
                and mod.__dict__.get(name) is orig:
            setattr(mod, name, new)
