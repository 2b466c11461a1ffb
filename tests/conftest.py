import pytest

from wardtri import triangles


@pytest.fixture
def flip_entry(monkeypatch):
    """flip_entry(kind, strategy, n0, k0) adds 1 to entry (n0, k0) of that
    one route in `triangles._rows`, the one source of rows for the streams
    that `compare.compare_routes` reads, for the memo behind the identity
    suite's `value` lookups and for the classical stream that
    `identities.rowsum_pairs` reads.  A later call replaces the earlier
    flip; the memo is cleared at each flip and at teardown."""
    real_rows = triangles._rows

    def flip(kind, strategy, n0, k0):
        def corrupted(k, s, *one):
            rows = real_rows(k, s, *one)
            if (k, s) != (kind, strategy):
                return rows
            return ((*row[:k0], row[k0] + 1, *row[k0 + 1:]) if n == n0 else row for n, row in enumerate(rows))

        monkeypatch.setattr(triangles, "_rows", corrupted)
        triangles.clear_caches()

    yield flip
    triangles.clear_caches()
