"""The one memo type behind every process-wide table of pure results."""

import time
import weakref

import pytest

import repro  # noqa: F401  (imports every module that owns a table)
from repro.util import memo
from repro.util.memo import Memo

#: The program's tables, by the name ``memo.stats()`` reports.
PROGRAM_TABLES = {
    "crypto.rsa.sign", "crypto.rsa.verify", "crypto.rsa.keygen",
    "crypto.hashes.hmac_pads", "archive.gz.compress",
    "archive.chunks.offsets", "archive.index.parse", "osim.pkgmgr.parse",
    "scripts.interpreter.ast", "core.delta.base_chunks",
    "core.delta.package_apply",
}


def test_a_full_table_clears_wholesale():
    table = Memo("test.full", limit=3)
    for key in "abc":
        assert table.lookup(key, lambda key=key: key.upper()) == key.upper()
    assert len(table) == 3
    assert table.lookup("d", lambda: "D") == "D"
    assert len(table) == 1
    assert "d" in table and "a" not in table
    assert table.lookup("a", lambda: "fresh") == "fresh"
    assert (table.hits, table.misses) == (0, 5)


def test_a_hit_returns_the_stored_object_without_computing():
    table = Memo("test.hit", limit=4)
    stored = table.lookup("k", lambda: ["value"])
    assert table.lookup("k", pytest.fail) is stored
    assert (table.hits, table.misses) == (1, 1)


def test_a_raising_compute_stores_nothing_but_counts_a_miss():
    table = Memo("test.raise", limit=2)
    table.lookup("kept", lambda: 1)
    table.lookup("other", lambda: 2)

    def broken():
        raise ValueError("malformed input")

    for _ in range(2):
        with pytest.raises(ValueError):
            table.lookup("bad", broken)
        with pytest.raises(ValueError):
            table.timed("bad", broken)
    assert "bad" not in table
    # A failure does not evict either, although the table is full.
    assert len(table) == 2 and "kept" in table
    assert (table.hits, table.misses) == (0, 6)


def test_a_timed_hit_returns_the_first_miss_seconds(monkeypatch):
    reads = []

    def clock():
        reads.append(None)
        return 0.25 * len(reads) ** 2

    monkeypatch.setattr(time, "perf_counter", clock)
    table = Memo("test.timed", limit=4)
    first = table.timed("k", lambda: "value")
    assert first == ("value", 1.0 - 0.25)
    assert len(reads) == 2
    assert table.timed("k", pytest.fail) is first
    assert len(reads) == 2
    assert (table.hits, table.misses) == (1, 1)


def test_clear_all_empties_every_registered_table(monkeypatch):
    monkeypatch.setattr(memo, "_TABLES", weakref.WeakSet())
    tables = [Memo(f"test.clear.{i}", limit=8) for i in range(3)]
    for table in tables:
        table.lookup("k", lambda: "v")
    memo.clear_all()
    assert [len(table) for table in tables] == [0, 0, 0]
    # Counters keep counting across a clear.
    assert memo.stats() == {f"test.clear.{i}": {"hits": 0, "misses": 1,
                                                "entries": 0}
                            for i in range(3)}


def test_every_program_table_is_registered():
    assert PROGRAM_TABLES <= set(memo.stats())
