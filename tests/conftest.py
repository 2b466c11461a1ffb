import pytest

import wardtri.compare
from wardtri.triangles import Strategy


@pytest.fixture
def flip_entry(monkeypatch):
    """flip_entry(kind, strategy, n0, k0) makes the streams that
    `compare.compare_routes` reads add 1 to entry (n0, k0) of that one
    route; a later call replaces the earlier flip."""
    real = wardtri.compare.stream

    def flip(kind, strategy, n0, k0):
        def corrupted(k, s=Strategy.RECURRENCE):
            rows = real(k, s)
            if (k, s) != (kind, strategy):
                return rows
            return ((*row[:k0], row[k0] + 1, *row[k0 + 1:]) if n == n0 else row for n, row in enumerate(rows))

        monkeypatch.setattr(wardtri.compare, "stream", corrupted)

    return flip
