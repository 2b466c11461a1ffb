import pytest

from wardtri import streams, triangles


@pytest.fixture
def flip_entry(monkeypatch):
    """flip_entry(kind, strategy, n0, k0) adds 1 to entry (n0, k0) of that
    one route in `streams._rows`, the one source of rows for the streams
    that `compare.compare_routes` reads, for the memo in `triangles` behind
    the identity suite's `value` lookups and for the streams that suite
    reads besides: the Lah numbers, the alternating sums and the central
    numbers of `identities.rowsum_pairs`.  A later call replaces the earlier
    flip; the memo is cleared at each flip and at teardown."""
    real_rows = streams._rows

    def flip(kind, strategy, n0, k0):
        def corrupted(k, s, *one):
            rows = real_rows(k, s, *one)
            if (k, s) != (kind, strategy):
                return rows
            return ((*row[:k0], row[k0] + 1, *row[k0 + 1:]) if n == n0 else row for n, row in enumerate(rows))

        monkeypatch.setattr(streams, "_rows", corrupted)
        triangles.clear_caches()

    yield flip
    triangles.clear_caches()
