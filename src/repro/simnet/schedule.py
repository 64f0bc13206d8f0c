"""The transfer-schedule solver: incremental max-min fluid-flow accounting.

Every concurrent transfer in the system — quorum reads, overlapped
refresh downloads, client fetch sessions, and the fleet fan-out — runs on
:class:`ParallelTransferSchedule`.  Each *channel* (one connection)
processes its queue in order: a per-item setup phase (RTT + upload +
processing, no downlink use) followed by a payload phase whose rate is

    ``min(peer bandwidth, channel capacity, fair share of the shared link)``

where the *channel capacity* is an optional per-channel layer (a fleet
client's NIC downlink, see :meth:`ParallelTransferSchedule.limit_channel`)
and the shared link (``downlink_bandwidth``) is divided max-min fairly
among all payload phases active at the same instant.  A schedule may
carry several *links* — independent shared pipes, each its own max-min
pool (:meth:`ParallelTransferSchedule.add_link`; an edge replica's
serving uplink next to the primary's) — while channels stay global, so
one client's fetches serialize even when they cross links.

The solver is an *incremental* event-driven simulation built for
10k+-channel fleets:

* a heap of next-completion events replaces the scan over every channel
  per event;
* the max-min allocation is tracked as a progressive-filling water level:
  streams whose cap sits below the level are *capped* (rate = cap,
  absolute finish time known), the rest are *level-bound* (rate = level).
  When a stream starts or finishes, only the *dirty set* — streams whose
  cap crosses the new level — moves between the two classes; everyone
  else's state is untouched;
* level-bound streams complete against a *virtual time* that integrates
  the level, so a level change revalues every level-bound deadline at
  once without touching any of them.

Per event the work is O(log channels) plus the dirty-set moves (amortized
small), against a dense solver's O(channels · log channels) full
recomputation.  That dense solver lives in the test tree
(``tests/reference_solver.py``) as the differential oracle; both model
the same fluid system and agree to float tolerance.

The solver core is flat: channels are numbered densely in first-enqueue
order, all per-channel state lives in parallel lists, and heap entries
pack ``(channel id, epoch)`` into one integer, so event processing never
hashes or compares channel objects.  The fleet endgame — every pending
stream level-bound, no setups left, no queued successors — is completed
as one *batched tail drain* in virtual-deadline order instead of one
heap event per stream.

Every schedule holds its work in one :class:`ScheduleStream`, a
persistent core that begins at the schedule's ``start_time``; enqueues
feed it directly.  :meth:`ParallelTransferSchedule.solve` clones the
core and runs the clone to exhaustion, so it advances no clock and
consumes no queue: callers may enqueue more work and re-solve (the
mirror download scheduler reinserts retries into the live schedule this
way), and
re-solving an unchanged schedule returns a cached result.

Long multi-round plans also drive the core as an event loop: the caller
periodically advances it to a time *frontier* (:meth:`ScheduleStream.
advance_to`), and every transfer whose completion lands at or before the
frontier is **settled** — its timing is final, because every enqueue the
streaming contract admits begins its payload at or after the frontier
and the solver is monotone (added load never makes an existing stream
finish earlier).  Settled items and fully drained channels are
*retired*: their queue columns, heap entries, and per-channel slots are
reclaimed (dense channel ids are recycled through a free list), so
live-core memory tracks *active* streams instead of trace length.  A
clone's state at the frontier is exactly what a from-scratch solve of
the full history would have reached there, so advancing never moves a
timing while a solve touches only O(active) state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

#: Heap entries pack ``cid << _EPOCH_BITS | epoch``: ordering equals the
#: old ``(channel order, epoch)`` tuple tie-break, in one int compare.
_EPOCH_BITS = 40
_EPOCH_MASK = (1 << _EPOCH_BITS) - 1


@dataclass
class TransferTiming:
    """When one scheduled transfer started and finished (clock offsets)."""

    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class _EngineState:
    """Flat solver-core state.

    A :class:`ScheduleStream` keeps one alive for its schedule's whole
    life, appends to its queues as work arrives, and advances it frontier
    by frontier.  ``clone()`` copies exactly the state the event loop
    mutates (cursor lists, water-level scalars, heaps) while sharing the
    read-only queue columns, which is how solves run without disturbing
    the live core.

    Capacity is per *link group*: group 0 is the default shared link
    (``downlink_bandwidth``), further groups are the secondary links
    declared with :meth:`ParallelTransferSchedule.add_link` (a replica
    host's uplink), each opened by :meth:`add_group`.  Each group runs
    its own water-fill — its own capsum/ncap/nlvl/level/vnow scalars
    and completion heaps — because the links are physically independent
    pipes; channels stay global, so one channel's queue still
    serializes across links.
    """

    __slots__ = (
        "caps", "ngroups", "start_time", "chans",
        "qkey", "qsetup", "qsize", "qcap", "qgrp", "qlen",
        "idx", "strt", "cls", "ecap", "dat", "epo", "lastfin", "agrp",
        "capsum", "ncap", "nlvl", "level", "vnow", "now",
        "tot_ncap", "tot_nlvl", "blockers", "remaining",
        "setup_heap", "cap_heaps", "lvl_heaps", "capmax_heaps",
        "lvlmin_heaps", "timings",
    )

    def __init__(self, downlink: float | None, start_time: float):
        self.caps: list[float | None] = []  # shared capacity per group
        self.ngroups = 0
        self.start_time = start_time
        self.chans: list = []
        self.qkey: list[list] = []
        self.qsetup: list[list[float]] = []
        self.qsize: list[list[int]] = []
        self.qcap: list[list[float]] = []
        self.qgrp: list[list[int]] = []  # link group per queued item
        self.qlen: list[int] = []
        self.idx: list[int] = []       # current queue position per channel
        self.strt: list[float] = []    # start instant of the current item
        # A channel's active payload phase is either capped (cls 1: runs
        # at its own effective cap; datum = absolute finish time) or
        # level-bound (cls 2: runs at the shared water level; datum =
        # virtual deadline); cls 0 = idle or in setup.  ``epo`` bumps on
        # any class/datum change, invalidating stale heap entries.
        self.cls: list[int] = []
        self.ecap: list[float] = []
        self.dat: list[float] = []
        self.epo: list[int] = []
        #: Finish instant of the channel's most recent completion — the
        #: anchor later enqueues chain their setup phase off once the
        #: channel went idle (streaming revival / channel retirement).
        self.lastfin: list[float] = []
        #: Link group of the channel's *active* payload (valid while
        #: cls != 0; the next begin rewrites it from ``qgrp``).
        self.agrp: list[int] = []
        self.capsum: list[float] = []  # total rate of capped streams
        self.ncap: list[int] = []      # number of capped streams
        self.nlvl: list[int] = []      # number of level-bound streams
        self.level: list[float] = []   # fair share per link group
        self.vnow: list[float] = []    # virtual time: integral of level
        self.now = start_time
        self.tot_ncap = 0        # sum over groups (hot-loop gates)
        self.tot_nlvl = 0
        #: Active payload streams whose channel still has queued items;
        #: the batched tail drain may only run when none remain.
        self.blockers = 0
        #: Enqueued items not yet completed (exact loop-exit counter).
        self.remaining = 0
        self.setup_heap: list = []   # (abs end, cid << _EPOCH_BITS); not stale
        self.cap_heaps: list[list] = []     # (abs finish, pack)
        self.lvl_heaps: list[list] = []     # (virt deadline, pack)
        self.capmax_heaps: list[list] = []  # (-eff cap, pack)
        self.lvlmin_heaps: list[list] = []  # (eff cap, pack)
        self.timings: dict[object, TransferTiming] = {}
        self.add_group(downlink)

    def add_group(self, capacity: float | None) -> int:
        """Open an empty link group with its own pool; returns its index.

        An empty group contributes no event and its virtual clock only
        runs while it holds level-bound streams, so opening one mid-run
        solves exactly as if it had been open from the start.
        """
        self.caps.append(capacity)
        self.capsum.append(0.0)
        self.ncap.append(0)
        self.nlvl.append(0)
        self.level.append(math.inf)
        self.vnow.append(0.0)
        self.cap_heaps.append([])
        self.lvl_heaps.append([])
        self.capmax_heaps.append([])
        self.lvlmin_heaps.append([])
        self.ngroups += 1
        return self.ngroups - 1

    def clone(self) -> "_EngineState":
        other = _EngineState.__new__(_EngineState)
        other.caps = self.caps
        other.ngroups = self.ngroups
        other.start_time = self.start_time
        # Queue columns are read-only during a run: share them.
        other.chans = self.chans
        other.qkey = self.qkey
        other.qsetup = self.qsetup
        other.qsize = self.qsize
        other.qcap = self.qcap
        other.qgrp = self.qgrp
        other.qlen = self.qlen
        other.idx = self.idx[:]
        other.strt = self.strt[:]
        other.cls = self.cls[:]
        other.ecap = self.ecap[:]
        other.dat = self.dat[:]
        other.epo = self.epo[:]
        other.lastfin = self.lastfin[:]
        other.agrp = self.agrp[:]
        other.capsum = self.capsum[:]
        other.ncap = self.ncap[:]
        other.nlvl = self.nlvl[:]
        other.level = self.level[:]
        other.vnow = self.vnow[:]
        other.now = self.now
        other.tot_ncap = self.tot_ncap
        other.tot_nlvl = self.tot_nlvl
        other.blockers = self.blockers
        other.remaining = self.remaining
        other.setup_heap = self.setup_heap[:]
        other.cap_heaps = [heap[:] for heap in self.cap_heaps]
        other.lvl_heaps = [heap[:] for heap in self.lvl_heaps]
        other.capmax_heaps = [heap[:] for heap in self.capmax_heaps]
        other.lvlmin_heaps = [heap[:] for heap in self.lvlmin_heaps]
        other.timings = {}
        return other


def _run_engine(st: _EngineState, until: float | None = None,
                ) -> dict[object, TransferTiming]:
    """Run the event loop over ``st``, stopping at time ``until``.

    ``until=None`` runs to exhaustion (a solve's clone); a finite
    ``until`` processes exactly the events whose instant is <= ``until``
    and suspends — the streaming advance.  The batched tail drain jumps
    past arbitrarily many events, so it only engages on unbounded runs;
    the bounded path takes the generic per-event branch, which computes
    the same floats event by event (the drain replays the event loop's
    arithmetic verbatim — see ``drain_tail``).  Completed items land in
    ``st.timings``; all other state is written back for resumption.
    """
    timings = st.timings
    caps_g = st.caps
    ngroups = st.ngroups
    qkey = st.qkey
    qsetup = st.qsetup
    qsize = st.qsize
    qcap = st.qcap
    qgrp = st.qgrp
    qlen = st.qlen
    idx = st.idx
    strt = st.strt
    cls = st.cls
    ecap = st.ecap
    dat = st.dat
    epo = st.epo
    lastfin = st.lastfin
    agrp = st.agrp
    capsum = st.capsum  # per-group lists, mutated in place
    ncap = st.ncap
    nlvl = st.nlvl
    level = st.level
    vnow = st.vnow
    now = st.now
    tot_ncap = st.tot_ncap
    tot_nlvl = st.tot_nlvl
    blockers = st.blockers
    remaining = st.remaining
    setup_heap = st.setup_heap
    cap_heaps = st.cap_heaps
    lvl_heaps = st.lvl_heaps
    capmax_heaps = st.capmax_heaps
    lvlmin_heaps = st.lvlmin_heaps
    push = heapq.heappush

    def peek(heap, code):
        """Top live entry of a lazy heap; stale entries are dropped."""
        while heap:
            value, pack = heap[0]
            cid = pack >> _EPOCH_BITS
            if cls[cid] == code and epo[cid] == pack & _EPOCH_MASK:
                return value, cid
            heapq.heappop(heap)
        return None

    def demote(cid):
        """cap -> lvl: the fair share fell below this stream's cap."""
        nonlocal tot_ncap, tot_nlvl
        g = agrp[cid]
        remain = (dat[cid] - now) * ecap[cid]
        capsum[g] -= ecap[cid]
        ncap[g] -= 1
        nlvl[g] += 1
        tot_ncap -= 1
        tot_nlvl += 1
        cls[cid] = 2
        dat[cid] = vnow[g] + (remain if remain > 0.0 else 0.0)
        epo[cid] += 1
        pack = cid << _EPOCH_BITS | epo[cid]
        push(lvl_heaps[g], (dat[cid], pack))
        push(lvlmin_heaps[g], (ecap[cid], pack))

    def promote(cid):
        """lvl -> cap: this stream's own cap binds again."""
        nonlocal tot_ncap, tot_nlvl
        g = agrp[cid]
        remain = dat[cid] - vnow[g]
        nlvl[g] -= 1
        ncap[g] += 1
        tot_nlvl -= 1
        tot_ncap += 1
        capsum[g] += ecap[cid]
        cls[cid] = 1
        dat[cid] = now + (remain if remain > 0.0 else 0.0) \
            / ecap[cid]
        epo[cid] += 1
        pack = cid << _EPOCH_BITS | epo[cid]
        push(cap_heaps[g], (dat[cid], pack))
        push(capmax_heaps[g], (-ecap[cid], pack))

    def rebalance(g):
        """Restore one group's water-fill invariants after its active
        set changed.

        Only the dirty set — streams whose cap crosses the moving
        level — changes class; every other stream's datum stays valid
        verbatim (capped finishes are absolute, level-bound deadlines
        are virtual).  Within one call the recomputed level only
        rises, so each stream moves at most twice and the loop always
        terminates at the unique water-fill solution.  Groups never
        interact: a begin/complete on link g dirties only link g.
        """
        capacity = caps_g[g]
        if capacity is None:
            return
        capmax_heap = capmax_heaps[g]
        lvlmin_heap = lvlmin_heaps[g]
        while True:
            if nlvl[g] == 0:
                if capsum[g] <= capacity:
                    level[g] = math.inf
                    return
                demote(peek(capmax_heap, 1)[1])
                continue
            level[g] = (capacity - capsum[g]) / nlvl[g]
            top = peek(lvlmin_heap, 2)
            if top is not None and top[0] <= level[g]:
                promote(top[1])
                continue
            top = peek(capmax_heap, 1)
            if top is not None and -top[0] > level[g]:
                demote(top[1])
                continue
            return

    def advance(cid):
        """Start the next queued item's setup phase, if any."""
        nxt = idx[cid] + 1
        idx[cid] = nxt
        if nxt < qlen[cid]:
            strt[cid] = now
            push(setup_heap, (now + qsetup[cid][nxt],
                              cid << _EPOCH_BITS))

    def begin_transfer(cid):
        """Enter the payload phase; an empty payload completes now."""
        nonlocal blockers, remaining, tot_ncap, tot_nlvl
        i = idx[cid]
        if qsize[cid][i] == 0:
            timings[qkey[cid][i]] = TransferTiming(strt[cid], now)
            lastfin[cid] = now
            remaining -= 1
            advance(cid)
            return
        cap = qcap[cid][i]
        g = qgrp[cid][i]
        agrp[cid] = g
        ecap[cid] = cap
        finish = now + qsize[cid][i] / cap
        capacity = caps_g[g]
        if capacity is not None and ncap[g] == 0 and nlvl[g]:
            # Saturated fast path: with no capped streams, a new
            # stream whose cap exceeds the post-entry fair share is
            # demoted by the very next ``rebalance`` (and nothing
            # else changes first, since no level-bound stream's cap
            # reaches that share either).  Replay that enter-as-cap +
            # demote sequence arithmetically — same floats, same heap
            # order — without ever touching the cap heaps.
            entered = capsum[g] + cap
            share = (capacity - entered) / nlvl[g]
            top = peek(lvlmin_heaps[g], 2)
            if cap > share and (top is None or top[0] > share):
                remain = (finish - now) * cap
                capsum[g] = entered - cap
                nlvl[g] += 1
                tot_nlvl += 1
                cls[cid] = 2
                dat[cid] = vnow[g] + (remain if remain > 0.0 else 0.0)
                epo[cid] += 1
                pack = cid << _EPOCH_BITS | epo[cid]
                push(lvl_heaps[g], (dat[cid], pack))
                push(lvlmin_heaps[g], (cap, pack))
                if i + 1 < qlen[cid]:
                    blockers += 1
                rebalance(g)
                return
        cls[cid] = 1
        ncap[g] += 1
        tot_ncap += 1
        capsum[g] += cap
        dat[cid] = finish
        epo[cid] += 1
        pack = cid << _EPOCH_BITS | epo[cid]
        push(cap_heaps[g], (dat[cid], pack))
        push(capmax_heaps[g], (-cap, pack))
        if i + 1 < qlen[cid]:
            blockers += 1
        rebalance(g)

    def complete_stream(cid):
        nonlocal blockers, remaining, tot_ncap, tot_nlvl
        g = agrp[cid]
        if cls[cid] == 1:
            capsum[g] -= ecap[cid]
            ncap[g] -= 1
            tot_ncap -= 1
        else:
            nlvl[g] -= 1
            tot_nlvl -= 1
        cls[cid] = 0
        epo[cid] += 1
        i = idx[cid]
        timings[qkey[cid][i]] = TransferTiming(strt[cid], now)
        lastfin[cid] = now
        remaining -= 1
        if i + 1 < qlen[cid]:
            blockers -= 1
        advance(cid)
        rebalance(g)

    def drain_tail(g):
        """Batch-complete the all-level-bound endgame of one group.

        Preconditions (checked by the caller): no setups pending, no
        capped streams anywhere, no active channel has queued
        successors, and group ``g`` holds *every* live stream (other
        groups' virtual clocks are frozen at nlvl == 0, so jumping
        real time is safe).  The remaining events are exactly the
        level-bound completions in (virtual deadline, pack) order —
        the heap's order — with the level rising to ``(capacity -
        capsum) / remaining`` after each.  The drain follows the
        sorted deadlines until a remaining stream's own cap would
        bind (``rebalance`` then promotes it and the event loop
        resumes).  It replays the event loop's arithmetic verbatim.
        """
        nonlocal now, remaining, tot_nlvl
        capacity = caps_g[g]
        lvl_heap = lvl_heaps[g]
        lvlmin_heap = lvlmin_heaps[g]
        live: dict[int, tuple] = {}
        for entry in lvl_heap:
            pack = entry[1]
            cid = pack >> _EPOCH_BITS
            if cls[cid] == 2 and epo[cid] == pack & _EPOCH_MASK:
                live[cid] = entry
        entries = sorted(live.values())
        m = len(entries)
        # Suffix minimum of the streams' own caps in deadline order:
        # the live top of ``lvlmin_heap`` after j completions.
        sufmin = [math.inf] * (m + 1)
        for j in range(m - 1, -1, -1):
            cap = ecap[entries[j][1] >> _EPOCH_BITS]
            below = sufmin[j + 1]
            sufmin[j] = cap if cap < below else below
        for j in range(m):
            deadline, pack = entries[j]
            cid = pack >> _EPOCH_BITS
            delta = deadline - vnow[g]
            if delta > 0.0:
                when = now + delta / level[g]
                vnow[g] += level[g] * (when - now)
                now = when
            nlvl[g] -= 1
            tot_nlvl -= 1
            cls[cid] = 0
            epo[cid] += 1
            i = idx[cid]
            timings[qkey[cid][i]] = TransferTiming(strt[cid], now)
            lastfin[cid] = now
            remaining -= 1
            idx[cid] = i + 1
            if nlvl[g] == 0:
                level[g] = math.inf
                return
            level[g] = (capacity - capsum[g]) / nlvl[g]
            if sufmin[j + 1] <= level[g]:
                # The survivors are exactly the live level-bound set;
                # rebuild the lazy heaps outright rather than letting
                # ``peek`` drain the completed entries one heappop at
                # a time.  Sorted lists are valid heaps, and the live
                # tops — all ``rebalance`` reads — are unchanged.
                survivors = entries[j + 1:]
                lvl_heap[:] = survivors
                lvlmin_heap[:] = sorted(
                    (ecap[e[1] >> _EPOCH_BITS], e[1])
                    for e in survivors)
                rebalance(g)
                return

    while True:
        # ``remaining`` counts enqueued-not-completed items exactly;
        # once all are done, skip draining the (now all-stale) lazy
        # heaps.
        if remaining == 0:
            break
        if until is None and tot_ncap == 0 and tot_nlvl > 1 \
                and blockers == 0 and not setup_heap:
            # Batched tail drain: only when a single group holds every
            # live stream (otherwise jumping real time would need the
            # other groups' virtual clocks advanced in lockstep).
            g = -1
            for gg in range(ngroups):
                if nlvl[gg]:
                    if g >= 0:
                        g = -1
                        break
                    g = gg
            if g >= 0 and caps_g[g] is not None:
                drain_tail(g)
                continue
        # Next event: a setup ending, a capped stream draining, or the
        # earliest virtual deadline among level-bound streams (checked
        # per link group; group order breaks exact ties).
        best_when = best_kind = best_cid = None
        if setup_heap:
            when, pack = setup_heap[0]
            best_when, best_kind, best_cid = \
                when, 0, pack >> _EPOCH_BITS
        for g in range(ngroups):
            top = peek(cap_heaps[g], 1)
            if top is not None and (best_when is None
                                    or top[0] < best_when):
                best_when, best_kind, best_cid = top[0], 1, top[1]
            top = peek(lvl_heaps[g], 2)
            if top is not None:
                delta = top[0] - vnow[g]
                when = now + (delta if delta > 0.0 else 0.0) / level[g]
                if best_when is None or when < best_when:
                    best_when, best_kind, best_cid = when, 2, top[1]
        if best_when is None:
            break
        if until is not None and best_when > until:
            break  # suspend: the caller resumes past this frontier
        if best_when < now:
            best_when = now
        if best_when > now:
            for g in range(ngroups):
                if nlvl[g]:
                    vnow[g] += level[g] * (best_when - now)
        now = best_when
        if best_kind == 0:
            heapq.heappop(setup_heap)
            begin_transfer(best_cid)
        else:
            complete_stream(best_cid)

    st.now = now
    st.tot_ncap = tot_ncap
    st.tot_nlvl = tot_nlvl
    st.blockers = blockers
    st.remaining = remaining
    return timings


class ParallelTransferSchedule:
    """Fluid-flow accounting for concurrent downloads over serial channels.

    Each channel (one mirror connection / one fleet client) processes its
    queue in order; all payload phases active at the same instant share
    ``downlink_bandwidth`` max-min fairly, and each stream is additionally
    capped by its peer's bandwidth and by its channel's capacity layer
    (:meth:`limit_channel`), if set.

    The work lives in :attr:`stream`, the :class:`ScheduleStream` core
    that begins at ``start_time``.  :meth:`solve` runs the incremental
    event simulation (see the module docstring) and returns per-item
    :class:`TransferTiming` offsets; it does not advance any clock, so
    the caller decides how the makespan maps onto simulated time.
    """

    def __init__(self, downlink_bandwidth: float | None = None,
                 start_time: float = 0.0):
        if downlink_bandwidth is not None and downlink_bandwidth <= 0:
            raise ValueError("downlink bandwidth must be positive")
        #: Secondary link name -> link group index (see :meth:`add_link`).
        self._links: dict[object, int] = {}
        self._channel_caps: dict[object, float] = {}
        #: Bumped on any mutation; lets an unchanged re-solve return the
        #: cached timings (the refresh engine re-solves between waves).
        self._version = 0
        self._solved: tuple[int, dict] | None = None
        self._stream = ScheduleStream(self, downlink_bandwidth, start_time)

    @property
    def stream(self) -> "ScheduleStream":
        """The persistent solver core holding this schedule's work."""
        return self._stream

    def add_link(self, link: object, capacity: float | None):
        """Declare a secondary shared link with its own capacity pool.

        The default link (group 0) is ``downlink_bandwidth`` — the
        client-side pipe every enqueue shares unless it names a link.
        A secondary link models an independent physical pipe — an edge
        replica's serving uplink — whose payload phases water-fill
        *that* capacity instead, while the channel queues stay global
        (one client's fetches still serialize across links).
        Idempotent at the same capacity; a declared link cannot be
        re-declared at a different capacity.  A link may be declared at
        any time: its pool starts empty.
        """
        if capacity is not None and capacity <= 0:
            raise ValueError("link capacity must be positive")
        core = self._stream._st
        group = self._links.get(link)
        if group is None:
            self._links[link] = core.add_group(capacity)
            self._version += 1
        elif core.caps[group] != capacity:
            raise ValueError(
                f"link {link!r} already declared at capacity "
                f"{core.caps[group]}, not {capacity}"
            )

    def has_link(self, link: object) -> bool:
        """Whether ``link`` was declared with :meth:`add_link`."""
        return link in self._links

    def limit_channel(self, channel: object, bandwidth: float):
        """Cap every payload phase on ``channel`` at ``bandwidth``.

        The layered-capacity hook: a fleet client's NIC downlink bounds
        its stream no matter how much of the shared link is free.  The
        cap is frozen into each item as it is enqueued, so a channel's
        cap is set once, and only while none of its items is in the core:
        a changed cap, or a first cap on a channel with queued items,
        raises instead of missing those items.  Repeating the same cap is
        a no-op (both fetch sessions re-assert a client's NIC before
        every fetch).
        """
        if bandwidth <= 0:
            raise ValueError("channel capacity must be positive")
        current = self._channel_caps.get(channel)
        if current == bandwidth:
            return
        if current is not None or channel in self._stream._cid_of:
            raise ValueError(
                f"cannot cap channel {channel!r} at {bandwidth}: a cap is "
                f"set once (now {current}), before any of its items queue"
            )
        self._channel_caps[channel] = bandwidth
        self._version += 1

    def enqueue(self, channel: object, key: object, setup: float,
                size_bytes: int, bandwidth: float, link: object = None):
        if setup < 0 or size_bytes < 0:
            raise ValueError("negative transfer parameters")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if link is None:
            group = 0
        else:
            group = self._links.get(link)
            if group is None:
                raise ValueError(f"unknown link {link!r}; add_link it first")
        self._stream._enqueue(channel, key, setup, size_bytes,
                              float(bandwidth), group)
        self._version += 1

    def solve(self) -> dict[object, TransferTiming]:
        """Timings of every item not yet drained from :attr:`stream`.

        The core's :meth:`~ScheduleStream.solve_pending`, cached until
        the next mutation; nothing is consumed, so callers may enqueue
        more work and re-solve.
        """
        if self._solved is None or self._solved[0] != self._version:
            self._solved = (self._version, self._stream.solve_pending())
        return dict(self._solved[1])


class ScheduleStream:
    """The persistent solver core behind a :class:`ParallelTransferSchedule`.

    Enqueues append to the core's per-channel queues, and
    :meth:`solve_pending` (what ``solve()`` returns) runs a clone of it
    to exhaustion.  A schedule that is only ever solved needs nothing
    more.  Long plans also advance the core, under the streaming
    contract (everything else follows from the solver's monotonicity):

    * the driver advances the frontier only *between* trace events, to
      the current event's instant — :meth:`advance_to`;
    * every enqueue issued while processing an event at time T begins
      its payload at or after T (wave pins, ``not_before`` gaps, and
      fresh channels' setup offsets all guarantee this — a violation
      raises at enqueue time);

    so a completion at or before the frontier can never be perturbed by
    later load: its timing is **final**.  ``advance_to`` settles those
    completions (collect them with :meth:`drain`), reclaims consumed
    queue prefixes, and retires fully drained channels — their dense
    slot returns to a free list and only one float (the channel's last
    finish, the anchor a later revival chains its setup off) survives in
    :attr:`finished`.  Because a clone's state at the frontier equals a
    from-scratch solve's state there, advancing never moves a timing,
    and a solve costs O(active streams).
    """

    #: Settle-before-frontier slack for float round-off in wave-gap
    #: arithmetic (``free + (at - free)`` may undershoot ``at`` by ulps).
    _SLACK = 1e-9

    def __init__(self, schedule: ParallelTransferSchedule,
                 downlink: float | None, start_time: float):
        self._schedule = schedule
        self._st = _EngineState(downlink, start_time)
        self._cid_of: dict[object, int] = {}
        self._free_cids: list[int] = []
        #: Retired channels' last completion instant (revival anchor and
        #: the post-retirement answer of :meth:`channel_free`).
        self.finished: dict[object, float] = {}
        self._settled: dict[object, TransferTiming] = {}
        self._frontier = start_time
        #: Largest settled finish so far (the plan-wall running max).
        self.max_finish = start_time
        #: Lifetime counters (bench/test introspection).
        self.total_enqueued = 0
        self.total_settled = 0

    @property
    def start_time(self) -> float:
        return self._st.start_time

    @property
    def frontier(self) -> float:
        return self._frontier

    @property
    def pending_items(self) -> int:
        """Enqueued-not-yet-completed items in the live core."""
        return self._st.remaining

    @property
    def live_channels(self) -> int:
        return len(self._cid_of)

    def _register(self, channel: object) -> int:
        st = self._st
        resume_at = self.finished.pop(channel, st.start_time)
        if self._free_cids:
            cid = self._free_cids.pop()
            st.chans[cid] = channel
            st.idx[cid] = 0
            st.qlen[cid] = 0
            # ``epo`` is deliberately NOT reset: stale heap entries from
            # the slot's previous tenant must never match a fresh epoch.
        else:
            cid = len(st.chans)
            st.chans.append(channel)
            st.qkey.append([])
            st.qsetup.append([])
            st.qsize.append([])
            st.qcap.append([])
            st.qgrp.append([])
            st.qlen.append(0)
            st.idx.append(0)
            st.strt.append(0.0)
            st.cls.append(0)
            st.ecap.append(0.0)
            st.dat.append(0.0)
            st.epo.append(0)
            st.lastfin.append(0.0)
            st.agrp.append(0)
        st.strt[cid] = resume_at
        st.lastfin[cid] = resume_at
        st.cls[cid] = 0
        st.ecap[cid] = 0.0
        st.dat[cid] = 0.0
        self._cid_of[channel] = cid
        return cid

    def _enqueue(self, channel: object, key: object, setup: float,
                 size_bytes: int, bandwidth: float, group: int = 0):
        st = self._st
        cid = self._cid_of.get(channel)
        if cid is None:
            cid = self._register(channel)
        limit = self._schedule._channel_caps.get(channel)
        cap = bandwidth if limit is None or bandwidth <= limit \
            else float(limit)
        i = st.idx[cid]
        n = st.qlen[cid]
        if st.cls[cid] == 0 and i == n:
            # Idle (or brand-new) channel: chain the setup phase off the
            # last completion, exactly where a from-scratch solve of the
            # full history would have started it.
            base = st.lastfin[cid]
            end = base + setup
            if end < self._frontier - self._SLACK:
                raise ValueError(
                    "streaming contract violation: enqueue on "
                    f"{channel!r} would begin its payload at {end} — "
                    f"before the settled frontier {self._frontier}"
                )
            st.strt[cid] = base
            heapq.heappush(st.setup_heap, (end, cid << _EPOCH_BITS))
        elif st.cls[cid] != 0 and n == i + 1:
            # The channel's active payload had no queued successor when
            # it began, so its begin never counted a blocker; this append
            # retro-counts it (the completion will decrement it).
            st.blockers += 1
        st.qkey[cid].append(key)
        st.qsetup[cid].append(setup)
        st.qsize[cid].append(size_bytes)
        st.qcap[cid].append(cap)
        st.qgrp[cid].append(group)
        st.qlen[cid] += 1
        st.remaining += 1
        self.total_enqueued += 1

    def advance_to(self, at: float) -> dict[object, TransferTiming]:
        """Process every event at or before ``at``; settle and retire.

        Returns the completions settled by this advance (also merged
        into the undrained buffer until :meth:`drain` collects them).
        """
        if at < self._frontier:
            raise ValueError(
                f"streaming frontier must not move backwards: {at} < "
                f"{self._frontier}"
            )
        self._frontier = at
        st = self._st
        _run_engine(st, at)
        self._schedule._version += 1
        fresh = st.timings
        if fresh:
            st.timings = {}
            max_finish = self.max_finish
            for timing in fresh.values():
                if timing.finish > max_finish:
                    max_finish = timing.finish
            self.max_finish = max_finish
            self.total_settled += len(fresh)
            self._settled.update(fresh)
        # Reclaim consumed queue prefixes; retire fully drained channels.
        for channel, cid in list(self._cid_of.items()):
            i = st.idx[cid]
            if st.cls[cid] == 0 and i == st.qlen[cid]:
                self.finished[channel] = st.lastfin[cid]
                del self._cid_of[channel]
                st.chans[cid] = None
                st.qkey[cid].clear()
                st.qsetup[cid].clear()
                st.qsize[cid].clear()
                st.qcap[cid].clear()
                st.qgrp[cid].clear()
                st.qlen[cid] = 0
                st.idx[cid] = 0
                self._free_cids.append(cid)
            elif i:
                del st.qkey[cid][:i]
                del st.qsetup[cid][:i]
                del st.qsize[cid][:i]
                del st.qcap[cid][:i]
                del st.qgrp[cid][:i]
                st.qlen[cid] -= i
                st.idx[cid] = 0
        self._compact_heaps()
        return fresh

    def _compact_heaps(self):
        """Drop stale lazy-heap entries once they dominate the heap.

        Pop order over distinct (value, pack) tuples is their sorted
        order whatever the internal arrangement, so filtering + heapify
        preserves behaviour exactly.
        """
        st = self._st
        live = st.tot_ncap + st.tot_nlvl + len(st.setup_heap)
        bound = 4 * live + 64
        cls = st.cls
        epo = st.epo
        for heaps, code in ((st.cap_heaps, 1), (st.lvl_heaps, 2),
                            (st.capmax_heaps, 1), (st.lvlmin_heaps, 2)):
            for heap in heaps:
                if len(heap) > bound:
                    heap[:] = [
                        entry for entry in heap
                        if cls[entry[1] >> _EPOCH_BITS] == code
                        and epo[entry[1] >> _EPOCH_BITS]
                        == entry[1] & _EPOCH_MASK
                    ]
                    heapq.heapify(heap)

    def drain(self) -> dict[object, TransferTiming]:
        """Take (and forget) every settled-but-undrained completion.

        After a drain the stream no longer knows these items existed:
        mid-plan ``solve()`` results stop including them, so callers must
        fold whatever they need (metrics, wave records, per-channel
        bookkeeping) before or at drain time.
        """
        out = self._settled
        self._settled = {}
        return out

    def channel_free(self, channel: object) -> float | None:
        """When this channel's enqueued work is done.

        ``inf`` while the channel is live (its in-flight work finishes
        after the frontier — any finite mid-plan estimate would also land
        there, so wave-gap arithmetic ``max(0, at - free)`` is identical);
        the exact last finish once retired; ``None`` if never seen.
        """
        if channel in self._cid_of:
            return math.inf
        return self.finished.get(channel)

    def forget_channel(self, channel: object):
        """Drop a retired channel's last-finish anchor entirely.

        Only for channels that will never be enqueued again (a retired
        fleet client): a later revival would chain off the stream start
        instead of the true last finish.
        """
        if channel in self._cid_of:
            raise ValueError(f"channel {channel!r} is still live")
        self.finished.pop(channel, None)

    def solve_pending(self) -> dict[object, TransferTiming]:
        """Timings of everything not yet drained, as a from-scratch
        solve of the full history would report them.

        Clones the live core (O(active state)) and runs the clone to
        exhaustion; merges the settled-but-undrained buffer.
        """
        clone = self._st.clone()
        _run_engine(clone, None)
        result = dict(self._settled)
        result.update(clone.timings)
        return result

    def stats(self) -> dict:
        """Live-core footprint counters (bench/test introspection)."""
        st = self._st
        return {
            "live_channels": len(self._cid_of),
            "free_slots": len(self._free_cids),
            "pending_items": st.remaining,
            "queued_cells": sum(st.qlen),
            "settled_undrained": len(self._settled),
            "finished_anchors": len(self.finished),
            "heap_cells": (len(st.setup_heap)
                           + sum(len(h) for h in st.cap_heaps)
                           + sum(len(h) for h in st.lvl_heaps)
                           + sum(len(h) for h in st.capmax_heaps)
                           + sum(len(h) for h in st.lvlmin_heaps)),
            "total_enqueued": self.total_enqueued,
            "total_settled": self.total_settled,
        }
