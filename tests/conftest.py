import sys
from pathlib import Path

import pytest

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def scans(monkeypatch):
    """``scans(note)`` wraps the kernel's ``_breaks`` from then on, and
    returns the list that gets note(b, d, done, chain) for each d that any
    sink scans: b is the sink's whole matrix, done its resume point and
    chain the break rows."""
    from apth import coloring

    def watch(note):
        seen, breaks = [], coloring._breaks

        def wrapped(b, d, k, buf, done=0):
            chain = breaks(b, d, k, buf, done)
            seen.append(note(b, d, done, chain))
            return chain

        monkeypatch.setattr(coloring, "_breaks", wrapped)
        return seen

    return watch
