"""The gateway's web cache: byte-bounded LRU over whole objects.

Section 3.4: "the default nginx web cache, with a Least Recently Used
replacement strategy". Keys are CIDs (the gateway URL path); values
are object sizes — the cache stores *that* it has the bytes, the
simulated payloads themselves stay in the content registry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable


class ObjectCache:
    """LRU object cache accounting in bytes.

    ``on_evict`` (an optional callback taking the evicted key) fires
    for every LRU eviction, so side tables keyed by the same CIDs (the
    bridge's cache timestamps) can be pruned in lockstep instead of
    growing without bound over a full-day replay.
    """

    def __init__(
        self,
        capacity_bytes: int,
        on_evict: Callable[[Hashable], None] | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.on_evict = on_evict
        self._entries: OrderedDict[Hashable, int] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        """Bytes currently held by cached objects."""
        return self._used

    def lookup(self, key: Hashable) -> bool:
        """Hit test; refreshes recency and counts hit/miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: Hashable, size: int) -> None:
        """Add an object, evicting LRU entries to make room.

        Objects larger than the entire cache are not stored (nginx
        behaves the same via proxy_max_temp_file_size-style limits).
        """
        if size > self.capacity_bytes:
            return
        if key in self._entries:
            self._used -= self._entries.pop(key)
        self._entries[key] = size
        self._used += size
        while self._used > self.capacity_bytes:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._used -= evicted
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key)
