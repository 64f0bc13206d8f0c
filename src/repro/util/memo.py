"""One policy for every process-wide table of pure results: a key (a
digest, where the input is large) maps to what a pure computation
returned, a full table clears wholesale, and a ``compute`` that raises
stores nothing.  Caches held by one object die with it and are not memos.
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")
_MISSING = object()
_TABLES: "weakref.WeakSet[Memo]" = weakref.WeakSet()


class Memo:
    """A bounded table; ``hits`` and ``misses`` count every lookup."""

    def __init__(self, name: str, limit: int):
        self.name = name
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self._entries: dict = {}
        _TABLES.add(self)

    def lookup(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value stored under ``key``, or ``compute()`` stored there."""
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            return value
        self.misses += 1
        return self._store(key, compute())

    def timed(self, key: Hashable,
              compute: Callable[[], T]) -> tuple[T, float]:
        """``(value, seconds the original miss took)``; a miss reads
        ``time.perf_counter`` twice, a hit reads no clock."""
        entry = self._entries.get(key, _MISSING)
        if entry is not _MISSING:
            self.hits += 1
            return entry
        self.misses += 1
        started = time.perf_counter()
        value = compute()
        return self._store(key, (value, time.perf_counter() - started))

    def _store(self, key: Hashable, value: T) -> T:
        if len(self._entries) >= self.limit:
            self._entries.clear()
        self._entries[key] = value
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


def clear_all() -> None:
    """Empty every live table, seeded keypairs included; the counters
    keep counting."""
    for table in list(_TABLES):
        table.clear()


def stats() -> dict[str, dict[str, int]]:
    """Each live table's hits, misses and entries, sorted by name."""
    return {table.name: {"hits": table.hits, "misses": table.misses,
                         "entries": len(table)}
            for table in sorted(_TABLES, key=lambda table: table.name)}
