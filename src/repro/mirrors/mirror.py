"""Mirrors: honest replicas and the Byzantine behaviours of Figure 5."""

from __future__ import annotations

import enum

from repro.mirrors.repository import OriginalRepository, Snapshot
from repro.simnet.latency import DEFAULT_BANDWIDTH_BYTES_PER_S
from repro.util.errors import NetworkError, PackagingError


class MirrorBehavior(enum.Enum):
    """How a mirror treats its clients."""

    HONEST = "honest"
    #: Freeze attack: stop syncing; keep serving a stale (validly signed)
    #: snapshot so clients never learn updates exist.
    FREEZE = "freeze"
    #: Replay attack: deliberately serve an old snapshot containing
    #: packages with known vulnerabilities.
    REPLAY = "replay"
    #: Corrupt packages in flight (detected by index hash checks).
    CORRUPT = "corrupt"


class Mirror:
    """A repository replica reachable over the simulated network."""

    def __init__(self, name: str, origin: OriginalRepository,
                 behavior: MirrorBehavior = MirrorBehavior.HONEST,
                 pinned_serial: int | None = None,
                 bandwidth: float = DEFAULT_BANDWIDTH_BYTES_PER_S):
        if bandwidth <= 0:
            raise ValueError(f"mirror bandwidth must be positive: {bandwidth}")
        self.name = name
        self._origin = origin
        self.behavior = behavior
        #: Sustained serving bandwidth (bytes/s) this replica offers one
        #: stream; the simnet Host is wired with the same value, so parallel
        #: refresh spreads load across fast and slow mirrors differently.
        self.bandwidth = bandwidth
        self._snapshot: Snapshot = origin.snapshot()
        if pinned_serial is not None:
            self._snapshot = origin.snapshot_at(pinned_serial)
        self.requests_served = 0
        self.bytes_served = 0

    # -- sync -------------------------------------------------------------------

    def sync(self):
        """Pull the latest snapshot from the origin.

        Freeze/replay mirrors ignore sync — that is the attack: they keep
        presenting an old, validly signed state.
        """
        if self.behavior in (MirrorBehavior.FREEZE, MirrorBehavior.REPLAY):
            return
        self._snapshot = self._origin.snapshot()

    @property
    def serial(self) -> int:
        return self._snapshot.serial

    # -- request handling (simnet Host handler) --------------------------------------

    def handle(self, operation: str, payload: object) -> tuple[object, int]:
        self.requests_served += 1
        if operation == "get_index":
            blob = self._snapshot.index_bytes
            self.bytes_served += len(blob)
            return blob, len(blob)
        if operation == "get_package":
            name = str(payload)
            if name not in self._snapshot.blobs:
                raise NetworkError(f"mirror {self.name}: no such package {name!r}")
            blob = self._snapshot.blobs[name]
            if self.behavior is MirrorBehavior.CORRUPT:
                blob = self._corrupt(blob)
            self.bytes_served += len(blob)
            return blob, len(blob)
        raise NetworkError(f"mirror {self.name}: unknown operation {operation!r}")

    @staticmethod
    def _corrupt(blob: bytes) -> bytes:
        if not blob:
            raise PackagingError("cannot corrupt an empty blob")
        tampered = bytearray(blob)
        tampered[len(tampered) // 2] ^= 0xFF
        return bytes(tampered)
