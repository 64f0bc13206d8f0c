"""Deterministic network simulation.

The paper's latency experiments (Figs. 10, 11, 13, Table 3) depend on
geography (mirrors across Asia / Europe / North America), bandwidth, and
host failures.  This package provides a simulated clock, a continent-level
latency model calibrated to the paper's reported numbers, and a synchronous
request/response transport with failure injection.

Simulated time never mixes with wall-clock time: everything here advances a
:class:`SimClock`, and the bench harness labels such results "simulated".
"""

from repro.simnet.clock import SimClock
from repro.simnet.latency import Continent, LatencyModel, DEFAULT_LATENCY_MODEL
from repro.simnet.network import (
    Host,
    Network,
    Request,
    Response,
    ScheduledFetchSession,
    TransferProbe,
)
from repro.simnet.schedule import (
    ParallelTransferSchedule,
    TransferTiming,
)

__all__ = [
    "SimClock",
    "Continent",
    "LatencyModel",
    "DEFAULT_LATENCY_MODEL",
    "Host",
    "Network",
    "ParallelTransferSchedule",
    "Request",
    "Response",
    "ScheduledFetchSession",
    "TransferProbe",
    "TransferTiming",
]
