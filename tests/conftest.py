import pytest

import wardtri.compare
import wardtri.identities
from wardtri.triangles import Strategy


@pytest.fixture
def flip_entry(monkeypatch):
    """flip_entry(kind, strategy, n0, k0) adds 1 to entry (n0, k0) of that
    one route wherever the checks read it: in the streams that
    `compare.compare_routes` reads and in the `value` lookups of the
    identity suite.  A later call replaces the earlier flip."""
    real_stream = wardtri.compare.stream
    real_value = wardtri.identities.value

    def flip(kind, strategy, n0, k0):
        def corrupted(k, s=Strategy.RECURRENCE):
            rows = real_stream(k, s)
            if (k, s) != (kind, strategy):
                return rows
            return ((*row[:k0], row[k0] + 1, *row[k0 + 1:]) if n == n0 else row for n, row in enumerate(rows))

        def value(k, n, kk, s=Strategy.RECURRENCE):
            return real_value(k, n, kk, s) + (1 if (k, s, n, kk) == (kind, strategy, n0, k0) else 0)

        monkeypatch.setattr(wardtri.compare, "stream", corrupted)
        monkeypatch.setattr(wardtri.identities, "value", value)

    return flip
