"""Schedulers: the paper's contribution plus baselines.

- :class:`ClassicScheduler` — contention-free ideal model (the "traditional"
  list scheduling the paper argues against),
- :class:`BAScheduler` — Sinnen & Sousa's Basic Algorithm (BFS routing,
  basic insertion), the paper's comparison baseline,
- :class:`OIHSAScheduler` — Optimal Insertion Hybrid Scheduling Algorithm,
- :class:`BBSAScheduler` — Bandwidth Based Scheduling Algorithm.

All consume a :class:`repro.taskgraph.TaskGraph` and a
:class:`repro.network.NetworkTopology` and produce a validated
:class:`repro.core.schedule.Schedule`.
"""

from repro.core.schedule import Schedule
from repro.core.base import ContentionScheduler
from repro.core.classic import ClassicScheduler
from repro.core.ba import BAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.core.bbsa import BBSAScheduler
from repro.core.analysis import (
    processor_breakdown,
    schedule_critical_chain,
    contention_hotspots,
)
from repro.core.explain import (
    ChainSegment,
    ResourceTimeline,
    ScheduleExplanation,
    explain,
    utilization_timelines,
)
from repro.core.annealing import AnnealingScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.eventsim import resimulate, SimReport
from repro.core.genetic import GeneticScheduler
from repro.core.cpop import CPOPScheduler
from repro.core.heft import HEFTScheduler
from repro.core.mapping import simulate_mapping
from repro.core.packetba import PacketBAScheduler
from repro.core.io import schedule_to_json, schedule_from_json
from repro.core.replay import replay_under_contention, contention_penalty
from repro.core.validate import validate_schedule
from repro.core.metrics import (
    makespan,
    speedup,
    efficiency,
    schedule_length_ratio,
    link_utilization,
    improvement_ratio,
)

#: Registry of scheduler classes by short name (used by experiment configs).
SCHEDULERS = {
    "classic": ClassicScheduler,
    "ba": BAScheduler,
    "oihsa": OIHSAScheduler,
    "bbsa": BBSAScheduler,
    "heft": HEFTScheduler,
    "cpop": CPOPScheduler,
    "annealing": AnnealingScheduler,
    "genetic": GeneticScheduler,
    "packet-ba": PacketBAScheduler,
}

__all__ = [
    "Schedule",
    "ContentionScheduler",
    "ClassicScheduler",
    "BAScheduler",
    "OIHSAScheduler",
    "BBSAScheduler",
    "HEFTScheduler",
    "CPOPScheduler",
    "AnnealingScheduler",
    "GeneticScheduler",
    "PacketBAScheduler",
    "BatchMappingEvaluator",
    "simulate_mapping",
    "resimulate",
    "SimReport",
    "processor_breakdown",
    "schedule_critical_chain",
    "contention_hotspots",
    "ChainSegment",
    "ResourceTimeline",
    "ScheduleExplanation",
    "explain",
    "utilization_timelines",
    "schedule_to_json",
    "schedule_from_json",
    "replay_under_contention",
    "contention_penalty",
    "validate_schedule",
    "makespan",
    "speedup",
    "efficiency",
    "schedule_length_ratio",
    "link_utilization",
    "improvement_ratio",
    "SCHEDULERS",
]
