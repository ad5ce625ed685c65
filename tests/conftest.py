import pytest

from setorbits import perm


@pytest.fixture
def chain_builds(monkeypatch):
    """A list that grows by one entry per stabilizer chain built while the
    test runs."""
    built = []

    class Counted(perm._Chain):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(perm, "_Chain", Counted)
    return built
