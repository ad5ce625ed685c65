from collections import Counter

import pytest

from setorbits import perm, pipeline
from setorbits.catalog import load_default, padded
from setorbits.orbitcount import count_set_orbits
from setorbits.pipeline import compare_to_golden


@pytest.fixture
def chain_builds(monkeypatch):
    """A list that grows by one entry per stabilizer chain built while the
    test runs.  The constructor itself is patched, so chains built through
    any module's binding of ``_Chain`` are counted."""
    built = []
    init = perm._Chain.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(perm._Chain, "__init__", counted)
    return built


@pytest.fixture
def clear_memos():
    """A function that empties the pipeline's two memos, the per-r reports
    and the per-entry s-values; it has run once when the test starts, so
    the test's first classify(r) prunes, selects and counts."""
    def clear():
        pipeline.classify.cache_clear()
        pipeline._s_and_route.cache_clear()
    clear()
    return clear


@pytest.fixture
def golden_check_failures():
    """A function giving why a run report does not account for a golden
    table: an extra row, a missing row outside the gap degrees, or missing
    gap-degree rows that outnumber the catalog entries, or their one-point
    paddings, of their degree, order and s."""
    def failures(report, golden):
        diff = compare_to_golden(report, golden)
        out = [f"extra: {row}" for row in diff.extra]
        out += [f"missing outside the gaps: {g}" for g in diff.missing
                if g.degree not in report.gaps]
        want = Counter((g.degree, g.order, g.s_value) for g in diff.missing
                       if g.degree in report.gaps)
        shapes = {(d, o) for d, o, _ in want}
        entries = load_default() + tuple(map(padded, load_default()))
        have = Counter((e.degree, e.expected_order, count_set_orbits(e.group()))
                       for e in entries
                       if (e.degree, e.expected_order) in shapes)
        out += [f"{k} missing rows {key}, {have[key]} catalog entries"
                for key, k in want.items() if k > have[key]]
        return out
    return failures
