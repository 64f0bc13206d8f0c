"""Synthetic package population generator.

Census targets (full scale, from the paper's Tables 1-2):

* 11,581 packages; 97.6 % without scripts;
* safe-scripted packages: 53 (filesystem-only 15, empty 22, text-only 16);
* user/group creation: 201 packages (30 of which also do filesystem
  changes, 20 also text processing, 5 also unsafe config changes);
* configuration change only: 13; shell activation: 10; empty file: 1;
* 2 packages exhibit the CVE-2019-5021 insecure-account pattern;
* 28 packages (0.24 %) are unsupported by TSR (config change + shell).

Size / file-count distributions are log-normal, calibrated so that the
sanitization size overhead and timing reproduce the shapes of Figs. 8-9
(constants below; discussion in EXPERIMENTS.md).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from repro.archive.apk import ApkPackage, PackageFile
from repro.scripts.classify import OperationType

#: Full-scale census targets.
PAPER_TOTALS = {
    "packages": 11581,
    "no_scripts": 11303,
    "safe_scripts": 53,
    "unsafe_scripts": 225,
    "unsupported": 28,
    "repo_bytes": 3000 * 1024 * 1024,
}

# Unique-package counts per primary category at full scale.
_CATEGORY_COUNTS = {
    "fs_only": 15,
    "empty": 22,
    "text_only": 16,
    "user_group": 196,        # user/group creation only (+fs/text mixins)
    "user_group_config": 5,   # user/group AND config change -> unsupported
    "config_only": 13,
    "shell": 10,
    "empty_file": 1,
}

#: Of the 196 sanitizable user/group packages: how many also run
#: filesystem / text-processing commands (keeps Table 2's row counts).
_USER_GROUP_FS_MIXIN = 30
_USER_GROUP_TEXT_MIXIN = 20

#: How many packages exhibit the insecure-account (CVE-2019-5021) pattern.
_INSECURE_COUNT = 2

# Log-normal parameters, calibrated so sanitization size overhead lands on
# the paper's Fig. 9 percentiles (12/27/76 % at p50/p75/p95, +3.6 % total):
# each package has one main payload file and many small supporting files;
# signature bytes (256/file) against that mix reproduce the shape.
_FILES_MEDIAN = 8
_FILES_SIGMA = 1.6
_FILES_MAX = 600
_PAYLOAD_MEDIAN = 10_000
_PAYLOAD_SIGMA = 2.4
_PAYLOAD_MIN = 1_024
_PAYLOAD_MAX = 10_000_000
_SUPPORT_MEDIAN = 600
_SUPPORT_SIGMA = 1.2
_SUPPORT_MIN = 200
_SUPPORT_MAX = 2_000_000

#: EPC size to use with workloads generated here: the top ~5 % of packages
#: exceed it, mirroring the paper's Fig. 8/12 annotation.  (The real EPC is
#: 128 MB against 3 GB of packages; both are scaled together.)
SUGGESTED_EPC_BYTES = 1_500_000


@dataclass
class WorkloadExpectation:
    """What the generated population should contain (scaled census)."""

    packages: int
    no_scripts: int
    safe_scripts: int
    unsafe_scripts: int
    unsupported: int
    insecure: int


@dataclass
class GeneratedWorkload:
    """A generated package population plus its ground truth."""

    packages: list[ApkPackage]
    #: package name -> primary category key from _CATEGORY_COUNTS, or None.
    category: dict[str, str | None]
    expectation: WorkloadExpectation
    seed: int
    scale: float
    suggested_epc_bytes: int = SUGGESTED_EPC_BYTES

    def names(self) -> list[str]:
        return [package.name for package in self.packages]

    def total_content_bytes(self) -> int:
        return sum(
            sum(len(f.content) for f in package.files)
            for package in self.packages
        )


def _scaled(count: int, scale: float, minimum: int = 1) -> int:
    if count == 0:
        return 0
    return max(minimum, round(count * scale))


def _lognormal(rng: random.Random, median: float, sigma: float,
               low: float, high: float) -> float:
    value = median * math.exp(rng.gauss(0.0, sigma))
    return min(high, max(low, value))


def generate_workload(scale: float = 0.04, seed: int = 2020,
                      with_content: bool = True) -> GeneratedWorkload:
    """Sample a package population.

    ``scale`` shrinks every census count proportionally (minimum one
    package per category so small test workloads still exercise every code
    path).  ``with_content=False`` produces metadata-only packages (tiny
    placeholder contents) for censuses that do not need realistic sizes.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale out of range: {scale}")
    rng = random.Random(f"workload:{seed}:{scale}")
    counts = {key: _scaled(value, scale)
              for key, value in _CATEGORY_COUNTS.items()}
    total = _scaled(PAPER_TOTALS["packages"], scale, minimum=10)
    scripted = sum(counts.values())
    plain = max(0, total - scripted)
    insecure_target = _scaled(_INSECURE_COUNT, scale)

    packages: list[ApkPackage] = []
    category: dict[str, str | None] = {}
    fs_mixins = _scaled(_USER_GROUP_FS_MIXIN, scale, minimum=0)
    text_mixins = _scaled(_USER_GROUP_TEXT_MIXIN, scale, minimum=0)

    assignments: list[str | None] = []
    assignments.extend([None] * plain)
    for key, count in counts.items():
        assignments.extend([key] * count)
    rng.shuffle(assignments)

    user_group_seen = 0
    insecure_made = 0
    for index, kind in enumerate(assignments):
        name = f"pkg-{index:05d}"
        version = f"{rng.randint(0, 5)}.{rng.randint(0, 20)}.{rng.randint(0, 9)}-r{rng.randint(0, 5)}"
        scripts: dict[str, str] = {}
        if kind == "fs_only":
            scripts = {".post-install": _fs_script(name)}
        elif kind == "empty":
            scripts = {".post-install": _empty_script(name)}
        elif kind == "text_only":
            scripts = {".post-install": _text_script()}
        elif kind == "user_group":
            user_group_seen += 1
            mix_fs = user_group_seen <= fs_mixins
            mix_text = fs_mixins < user_group_seen <= fs_mixins + text_mixins
            insecure = insecure_made < insecure_target
            if insecure:
                insecure_made += 1
            scripts = {".pre-install": _user_group_script(
                name, index, rng, mix_fs=mix_fs, mix_text=mix_text,
                insecure=insecure,
            )}
        elif kind == "user_group_config":
            scripts = {".pre-install": _user_group_script(name, index, rng),
                       ".post-install": _config_change_script(name)}
        elif kind == "config_only":
            scripts = {".post-install": _config_change_script(name)}
        elif kind == "shell":
            scripts = {".post-install": f"add-shell /bin/{name}-sh\n"}
        elif kind == "empty_file":
            scripts = {".post-install": f"touch /var/run/{name}.lock\n"}
        files = _generate_files(name, rng, with_content)
        depends = _pick_depends(rng, packages)
        packages.append(ApkPackage(
            name=name,
            version=version,
            description=f"synthetic package {name}",
            depends=depends,
            scripts=scripts,
            files=files,
        ))
        category[name] = kind

    expectation = WorkloadExpectation(
        packages=len(packages),
        no_scripts=plain,
        safe_scripts=counts["fs_only"] + counts["empty"] + counts["text_only"],
        unsafe_scripts=(counts["user_group"] + counts["user_group_config"]
                        + counts["config_only"] + counts["shell"]
                        + counts["empty_file"]),
        unsupported=(counts["user_group_config"] + counts["config_only"]
                     + counts["shell"]),
        insecure=insecure_made,
    )
    return GeneratedWorkload(
        packages=packages, category=category, expectation=expectation,
        seed=seed, scale=scale,
    )


def generate_update_batch(workload: GeneratedWorkload, fraction: float = 0.05,
                          seed: int = 7) -> list[ApkPackage]:
    """New releases for a random subset: bumped version, changed payload.

    One :func:`evolve_packages` release over the workload's original
    packages (``generate_workload`` emits them sorted by name, the order
    ``evolve_packages`` samples in), on an RNG seeded by ``seed``.
    """
    return evolve_packages({p.name: p for p in workload.packages}, fraction,
                           random.Random(f"updates:{seed}"))


def evolve_packages(population: dict[str, ApkPackage], fraction: float,
                    rng: random.Random) -> list[ApkPackage]:
    """One upstream release over an *evolving* population.

    Unlike :func:`generate_update_batch` — which always derives release
    ``r+1`` from the workload's original packages, so a twice-updated
    package keeps the same version string — this samples from the
    *current* population (name -> latest :class:`ApkPackage`) and bumps
    each chosen package's release once more, mutating its payload.  The
    multi-round trace replay threads its own :class:`random.Random`
    through here, so a whole trace's upstream evolution is reproducible
    independently of any other trace replayed in the same process.

    Returns the new releases; the caller is expected to fold them back
    into ``population`` and publish them.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction out of range: {fraction}")
    if not population:
        raise ValueError("cannot evolve an empty population")
    names = sorted(population)
    chosen = rng.sample(names, max(1, int(len(names) * fraction)))
    updated = []
    for name in chosen:
        package = population[name]
        files = [PackageFile(
            path=f.path,
            content=_mutate(f.content, rng),
            mode=f.mode,
        ) for f in package.files]
        core, _, release = package.version.rpartition("-r")
        updated.append(ApkPackage(
            name=package.name,
            version=f"{core}-r{int(release) + 1}",
            description=package.description,
            depends=list(package.depends),
            scripts=dict(package.scripts),
            files=files,
        ))
    return updated


def _mutate(content: bytes, rng: random.Random) -> bytes:
    if not content:
        return b"\x01"
    position = rng.randrange(len(content))
    patch = bytes([content[position] ^ 0xA5])
    return content[:position] + patch + content[position + 1:]


# -- multi-round traces --------------------------------------------------------

#: Stable processing order for events sharing a timestamp: upstream state
#: changes first, then mirror propagation, then TSR refreshes, then pulls.
TRACE_KINDS = ("publish", "mirror_sync", "refresh", "fleet_pull")


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped step of a multi-round update workload.

    ``at`` is plan time (seconds from the trace start).  Field use by
    kind:

    * ``publish`` — upstream releases a batch: ``fraction`` of the
      evolving population, sampled by an event-local RNG derived from
      ``seed`` (so the published bytes are identical no matter which
      replay mode consumes the trace);
    * ``mirror_sync`` — the named ``mirrors`` pull the origin's latest
      snapshot (``None`` = every mirror); lagging or frozen replicas are
      modelled by *when* (or whether) their sync events appear;
    * ``refresh`` — the TSR refreshes ``tenants`` (``None`` = all) as one
      orchestrated round;
    * ``fleet_pull`` — the client fleet (indices ``clients``, ``None`` =
      all) refreshes indexes and installs ``installs_per_client``
      packages each; install choices are drawn from an event-local RNG
      derived from the trace seed and this event's ``seed``.
    """

    at: float
    kind: str
    fraction: float = 0.05
    seed: int = 0
    mirrors: tuple[str, ...] | None = None
    tenants: tuple[str, ...] | None = None
    clients: tuple[int, ...] | None = None
    installs_per_client: int = 1

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace event kind: {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"trace events cannot predate the trace: {self}")


@dataclass
class Trace:
    """A timestamped event stream driving one multi-round scenario."""

    events: list[TraceEvent]
    #: Observation horizon (seconds); staleness integrates over
    #: ``[0, max(horizon, last activity)]``.
    horizon: float
    seed: int = 0
    #: Sort-once cache for :meth:`ordered` — replay walks the processing
    #: order once per pass (and tests re-request it), so re-sorting the
    #: full list per access was pure waste.  Invalidated by length (the
    #: only supported mutation is appending events).
    _ordered_cache: list[TraceEvent] | None = field(
        default=None, repr=False, compare=False)

    def ordered(self) -> list[TraceEvent]:
        """Events in processing order: by time, ties by kind causality.

        Sorted once and cached; repeated calls return the *same* list
        object (treat it as read-only).  Appending to ``events`` after a
        call invalidates the cache.
        """
        cache = self._ordered_cache
        if cache is not None and len(cache) == len(self.events):
            return cache
        rank = {kind: i for i, kind in enumerate(TRACE_KINDS)}
        cache = sorted(self.events, key=lambda e: (e.at, rank[e.kind]))
        self._ordered_cache = cache
        return cache

    def iter_events(self):
        """Iterate events in processing order (materialized traces just
        walk the cached sort; :class:`StreamingTrace` generates)."""
        return iter(self.ordered())

    def rounds(self) -> int:
        return sum(1 for e in self.events if e.kind == "refresh")


@dataclass
class StreamingTrace:
    """A :func:`generate_trace` plan that is never materialized.

    Duck-types the :class:`Trace` surface the replay consumes
    (``iter_events`` / ``horizon`` / ``seed`` / ``rounds()``) but holds
    only the generation parameters: :meth:`iter_events` re-derives the
    event stream on every call, emitting events in exactly the order
    ``Trace.ordered()`` would (a k-way merge over the per-round
    generators, buffering only the rounds whose time windows overlap),
    so a 10^3-round / 10^5-client plan costs O(overlapping rounds)
    memory instead of O(rounds × clients-per-wave).
    """

    n_rounds: int
    interval: float
    publish_fraction: float = 0.1
    sync_lag: float = 0.2
    refresh_lag: float = 0.4
    pull_lag: float = 0.8
    installs_per_client: int = 1
    mirror_names: list[str] | None = None
    lagging_mirrors: dict[str, float] | None = None
    frozen_mirrors: tuple[str, ...] = ()
    fleet_size: int | None = None
    clients_per_wave: int | None = None
    seed: int = 0

    @property
    def horizon(self) -> float:
        return self.n_rounds * self.interval + self.pull_lag

    def rounds(self) -> int:
        return self.n_rounds

    def iter_events(self):
        """Generate the trace in processing order, lazily.

        Later rounds can start before an earlier round's laggy events
        fire (``pull_lag > interval``), so per-round streams are merged
        through a small heap: round ``r`` is loaded only once the heap
        top's instant reaches ``r * interval`` (a publish — every
        round's earliest event — sorts first among ties, so nothing
        unloaded can precede an emitted event).  Tie order inside the
        heap falls back to a generation counter, reproducing the stable
        sort's append-order tie-break exactly.
        """
        rank = {kind: i for i, kind in enumerate(TRACE_KINDS)}
        lagging = dict(self.lagging_mirrors or {})
        frozen = set(self.frozen_mirrors)
        heap: list[tuple[float, int, int, TraceEvent]] = []
        counter = 0
        next_round = 0

        def load(r: int):
            nonlocal counter
            for event in _round_events(
                    r, self.interval, self.publish_fraction, self.sync_lag,
                    self.refresh_lag, self.pull_lag,
                    self.installs_per_client, self.mirror_names, lagging,
                    frozen, self.seed, self.fleet_size,
                    self.clients_per_wave):
                heapq.heappush(
                    heap, (event.at, rank[event.kind], counter, event))
                counter += 1

        while next_round < self.n_rounds or heap:
            while next_round < self.n_rounds and (
                    not heap
                    or next_round * self.interval <= heap[0][0]):
                load(next_round)
                next_round += 1
            yield heapq.heappop(heap)[3]

    def ordered(self) -> list[TraceEvent]:
        """Materialize the processing order (small traces / debugging)."""
        return list(self.iter_events())


def _wave_clients(r: int, fleet_size: int | None,
                  clients_per_wave: int | None) -> tuple[int, ...] | None:
    """Round-robin pull rotation: wave ``r`` covers ``clients_per_wave``
    consecutive client indices starting at ``r * clients_per_wave`` (mod
    fleet size), so every client pulls once per ``ceil(N/k)`` rounds and
    a wave's active set — hence solver and fleet state — is O(k), not
    O(N).  ``None`` (no rotation) keeps the whole-fleet wave."""
    if fleet_size is None or clients_per_wave is None:
        return None
    k = min(clients_per_wave, fleet_size)
    base = (r * k) % fleet_size
    return tuple((base + j) % fleet_size for j in range(k))


def _round_events(r: int, interval: float, publish_fraction: float,
                  sync_lag: float, refresh_lag: float, pull_lag: float,
                  installs_per_client: int,
                  mirror_names: list[str] | None, lagging: dict[str, float],
                  frozen: set[str], seed: int, fleet_size: int | None,
                  clients_per_wave: int | None):
    """One round's events, in the materialized builder's append order."""
    t0 = r * interval
    yield TraceEvent(at=t0, kind="publish",
                     fraction=publish_fraction, seed=seed + r)
    if mirror_names is None:
        yield TraceEvent(at=t0 + sync_lag, kind="mirror_sync")
    else:
        for mirror in mirror_names:
            if mirror in frozen:
                continue
            lag = lagging.get(mirror, 0.0)
            yield TraceEvent(at=t0 + sync_lag + lag, kind="mirror_sync",
                             mirrors=(mirror,))
    yield TraceEvent(at=t0 + refresh_lag, kind="refresh")
    yield TraceEvent(at=t0 + pull_lag, kind="fleet_pull",
                     installs_per_client=installs_per_client,
                     clients=_wave_clients(r, fleet_size, clients_per_wave),
                     seed=seed + r)


def generate_trace(rounds: int, interval: float, *,
                   publish_fraction: float = 0.1,
                   sync_lag: float = 0.2,
                   refresh_lag: float = 0.4,
                   pull_lag: float = 0.8,
                   installs_per_client: int = 1,
                   mirror_names: list[str] | None = None,
                   lagging_mirrors: dict[str, float] | None = None,
                   frozen_mirrors: tuple[str, ...] = (),
                   fleet_size: int | None = None,
                   clients_per_wave: int | None = None,
                   streaming: bool = False,
                   seed: int = 0) -> Trace | StreamingTrace:
    """A publish → sync → refresh → pull cycle repeated ``rounds`` times.

    Every round ``r`` starts at ``r * interval``: upstream publishes a
    batch, honest mirrors sync after ``sync_lag`` (per-mirror extra lag
    via ``lagging_mirrors``; ``frozen_mirrors`` never sync — the freeze
    attack as a trace property), the TSR runs a publish-triggered refresh
    at ``refresh_lag``, and the fleet pulls at ``pull_lag``.  Pass
    ``mirror_names`` to emit per-mirror sync events (required when lag or
    freeze is used); with ``None`` one sync event covers every mirror.

    ``fleet_size``/``clients_per_wave`` turn whole-fleet pull waves into
    a round-robin rotation (see :func:`_wave_clients`) — the shape that
    keeps a 10^5-client plan's *active* set small.  ``streaming=True``
    returns a :class:`StreamingTrace` that generates the identical event
    sequence lazily instead of materializing the list.
    """
    if rounds < 1:
        raise ValueError("a trace needs at least one round")
    if interval <= 0:
        raise ValueError(f"round interval must be positive: {interval}")
    lagging = dict(lagging_mirrors or {})
    frozen = set(frozen_mirrors)
    if (lagging or frozen) and mirror_names is None:
        raise ValueError("per-mirror lag/freeze needs explicit mirror_names")
    if (fleet_size is None) != (clients_per_wave is None):
        raise ValueError(
            "pull rotation needs both fleet_size and clients_per_wave")
    if streaming:
        return StreamingTrace(
            n_rounds=rounds, interval=interval,
            publish_fraction=publish_fraction, sync_lag=sync_lag,
            refresh_lag=refresh_lag, pull_lag=pull_lag,
            installs_per_client=installs_per_client,
            mirror_names=mirror_names, lagging_mirrors=lagging_mirrors,
            frozen_mirrors=frozen_mirrors, fleet_size=fleet_size,
            clients_per_wave=clients_per_wave, seed=seed)
    events: list[TraceEvent] = []
    for r in range(rounds):
        events.extend(_round_events(
            r, interval, publish_fraction, sync_lag, refresh_lag, pull_lag,
            installs_per_client, mirror_names, lagging, frozen, seed,
            fleet_size, clients_per_wave))
    return Trace(events=events, horizon=rounds * interval + pull_lag,
                 seed=seed)


# -- pieces -------------------------------------------------------------------

def _generate_files(name: str, rng: random.Random,
                    with_content: bool) -> list[PackageFile]:
    file_count = int(_lognormal(rng, _FILES_MEDIAN, _FILES_SIGMA, 1, _FILES_MAX))
    if not with_content:
        return [
            PackageFile(path=f"/usr/lib/{name}/file{i}", content=b"x")
            for i in range(min(file_count, 3))
        ]
    # One main payload (binary/library) plus small supporting files
    # (headers, docs, locale data) — the mix real packages ship.
    sizes = [int(_lognormal(rng, _PAYLOAD_MEDIAN, _PAYLOAD_SIGMA,
                            _PAYLOAD_MIN, _PAYLOAD_MAX))]
    sizes.extend(
        int(_lognormal(rng, _SUPPORT_MEDIAN, _SUPPORT_SIGMA,
                       _SUPPORT_MIN, _SUPPORT_MAX))
        for _ in range(file_count - 1)
    )
    files = []
    for i, size in enumerate(sizes):
        directory = "/usr/bin" if i == 0 else f"/usr/lib/{name}"
        files.append(PackageFile(
            path=f"{directory}/{name}-f{i}",
            content=rng.randbytes(size),
            mode=0o755 if i == 0 else 0o644,
        ))
    return files


def _pick_depends(rng: random.Random, existing: list[ApkPackage]) -> list[str]:
    if not existing or rng.random() < 0.55:
        return []
    count = min(len(existing), rng.choice((1, 1, 1, 2, 2, 3)))
    return sorted({pkg.name for pkg in rng.sample(existing, count)})


def _fs_script(name: str) -> str:
    return (
        "#!/bin/sh\n"
        f"mkdir -p /var/lib/{name}\n"
        f"chmod 755 /var/lib/{name}\n"
        f"ln -sf /usr/bin/{name}-f0 /usr/bin/{name}\n"
        f"rm -f /tmp/{name}.stage\n"
    )


def _empty_script(name: str) -> str:
    return (
        "#!/bin/sh\n"
        f"if [ -f /etc/{name}.conf ]; then\n"
        "  echo configuration present\n"
        "fi\n"
        "exit 0\n"
    )


def _text_script() -> str:
    return (
        "#!/bin/sh\n"
        "grep -q root /etc/passwd\n"
        "cat /etc/hostname | head -n 1\n"
    )


def _user_group_script(name: str, index: int, rng: random.Random,
                       mix_fs: bool = False, mix_text: bool = False,
                       insecure: bool = False) -> str:
    user = f"svc{index:05d}"
    group = f"grp{index:05d}"
    lines = ["#!/bin/sh", f"addgroup -S {group}"]
    if insecure:
        # The CVE-2019-5021 pattern: usable shell + deleted password.
        lines.append(f"adduser -S -D -H -s /bin/ash -G {group} {user}")
        lines.append(f"passwd -d {user}")
    else:
        lines.append(f"adduser -S -D -H -s /sbin/nologin -G {group} {user}")
    if mix_fs:
        lines.append(f"mkdir -p /var/lib/{name}")
        lines.append(f"chmod 750 /var/lib/{name}")
    if mix_text:
        lines.append("grep -q root /etc/passwd")
    return "\n".join(lines) + "\n"


def _config_change_script(name: str) -> str:
    # Appending to an existing config file is exactly the unpredictable
    # modification TSR cannot sanitize (the roundcubemail case).
    return f"echo session_key={name} >> /etc/{name}.conf\n"
