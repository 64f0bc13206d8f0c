"""The dense reference transfer solver: the oracle the solver tests use.

:class:`ReferenceSchedule` takes the same constructor arguments and the
same ``add_link`` / ``limit_channel`` / ``enqueue`` calls as
:class:`~repro.simnet.schedule.ParallelTransferSchedule`, records them,
and solves the recorded queues by dense per-event recomputation: every
active stream's max-min rate is rebuilt (with a sort) at every event.
That is O(events × channels log channels) — the original solver, kept
only so differential tests and the solver bench can check the
incremental core against it to float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.schedule import TransferTiming


def max_min_rates(caps: dict, capacity: float | None) -> dict:
    """Max-min fair allocation of a shared capacity among capped streams.

    Each stream receives at most its own cap (the peer's serving
    bandwidth); slack left by streams capped below the fair share is
    redistributed to the rest (progressive filling).  ``capacity=None``
    means the shared link is not the bottleneck.

    Ties between equal caps are broken by insertion order of ``caps``
    (enqueue order): the sort is stable and keys are never compared, so
    the allocation — including the order of the returned dict — is
    reproducible run to run even for keys whose ``repr`` contains a
    memory address.
    """
    if capacity is None or capacity >= sum(caps.values()):
        return dict(caps)
    rates: dict = {}
    remaining = capacity
    pending = sorted(caps.items(), key=lambda item: item[1])
    while pending:
        share = remaining / len(pending)
        key, cap = pending[0]
        if cap <= share:
            rates[key] = cap
            remaining -= cap
            pending.pop(0)
            continue
        for key, cap in pending:
            rates[key] = share
        break
    return rates


@dataclass
class _Item:
    key: object
    setup: float
    size_bytes: int
    bandwidth: float
    group: int


class ReferenceSchedule:
    """Records schedule calls and solves them densely (see module doc)."""

    def __init__(self, downlink_bandwidth: float | None = None,
                 channel_capacities: dict | None = None,
                 start_time: float = 0.0):
        self.start_time = start_time
        self._link_caps: list[float | None] = [downlink_bandwidth]
        self._links: dict[object, int] = {}
        self._channel_caps: dict[object, float] = dict(
            channel_capacities or {})
        self._queues: dict[object, list[_Item]] = {}

    def add_link(self, link: object, capacity: float | None):
        if link not in self._links:
            self._links[link] = len(self._link_caps)
            self._link_caps.append(capacity)

    def limit_channel(self, channel: object, bandwidth: float):
        self._channel_caps[channel] = bandwidth

    def enqueue(self, channel: object, key: object, setup: float,
                size_bytes: int, bandwidth: float, link: object = None):
        group = 0 if link is None else self._links[link]
        self._queues.setdefault(channel, []).append(
            _Item(key, setup, size_bytes, bandwidth, group))

    def _effective_cap(self, channel: object, bandwidth: float) -> float:
        limit = self._channel_caps.get(channel)
        return bandwidth if limit is None else min(bandwidth, limit)

    def solve(self) -> dict[object, TransferTiming]:
        timings: dict[object, TransferTiming] = {}
        # Per-channel cursor state: (queue index, phase, phase datum).
        # phase "setup" -> datum is the absolute end of the setup phase;
        # phase "transfer" -> datum is the remaining payload bytes.
        state: dict[object, list] = {}
        started: dict[object, float] = {}
        start_time = self.start_time
        for channel, queue in self._queues.items():
            state[channel] = [0, "setup", start_time + queue[0].setup]
            started[(channel, 0)] = start_time
        now = start_time
        while state:
            # One max-min pool per link group: a stream only contends
            # with streams on its own link.
            active_by_group: list[dict] = [{} for _ in self._link_caps]
            for channel, cursor in state.items():
                if cursor[1] == "transfer":
                    item = self._queues[channel][cursor[0]]
                    active_by_group[item.group][channel] = \
                        self._effective_cap(channel, item.bandwidth)
            rates: dict = {}
            for g, active in enumerate(active_by_group):
                if active:
                    rates.update(max_min_rates(active, self._link_caps[g]))
            horizons: dict[object, float] = {}
            for channel, cursor in state.items():
                if cursor[1] == "setup":
                    horizons[channel] = cursor[2]
                else:
                    rate = rates[channel]
                    horizons[channel] = (now + cursor[2] / rate if rate > 0
                                         else float("inf"))
            step_end = min(horizons.values())
            for channel, cursor in list(state.items()):
                if cursor[1] == "transfer":
                    if horizons[channel] <= step_end:
                        # This stream defines the event: complete it by
                        # identity, not subtraction — at large clock
                        # values the per-step drain can round to zero and
                        # leave a sub-epsilon residue that never clears.
                        cursor[2] = 0.0
                    else:
                        cursor[2] -= rates[channel] * (step_end - now)
            now = step_end
            for channel, cursor in list(state.items()):
                index, phase, datum = cursor
                item = self._queues[channel][index]
                if phase == "setup" and datum <= now + 1e-15:
                    state[channel] = [index, "transfer", float(item.size_bytes)]
                elif phase == "transfer" and datum <= 1e-9:
                    timings[item.key] = TransferTiming(
                        start=started[(channel, index)], finish=now
                    )
                    if index + 1 < len(self._queues[channel]):
                        nxt = self._queues[channel][index + 1]
                        state[channel] = [index + 1, "setup", now + nxt.setup]
                        started[(channel, index + 1)] = now
                    else:
                        del state[channel]
        return timings
