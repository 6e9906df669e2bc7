"""Paper-scale CCR sweep: |V| up to 1000 on a 128-processor fabric.

The figure benches run the scaled-down ``ExperimentConfig.default()`` grid
(tasks U(40, 120)); this module runs the published Section 6 problem *size*
— task counts U(40, 1000), 128 processors, the full CCR grid 0.1–10 — on a
leaf-spine fabric, through the deterministic parallel runner
(:mod:`repro.experiments.parallel`).  It exists to demonstrate that the
paper-scale points are tractable end to end and to pin their results:

- ``makespan_checksum`` digests **every unit's per-algorithm makespan**
  (repr-exact, order-fixed), so any engine drift at paper scale fails the
  comparison even where the aggregated improvement means would hide it.
- Wall time is reported, never gated.

Repetitions default to 2 (the full 5 takes hours single-core) — override
with ``REPRO_PAPER_SWEEP_REPS``; worker count with ``REPRO_PAPER_SWEEP_JOBS``.
The session writes ``BENCH_paper_sweep.json`` to the working directory; the
committed copy is the baseline CI uploads as an artifact and compares
checksums against.
"""

import hashlib
import json
import os
from pathlib import Path
from time import perf_counter

from repro.experiments.config import PAPER_CCRS, ExperimentConfig
from repro.experiments.parallel import (
    collect_telemetry,
    execute_units,
    merge_unit_results,
    plan_sweep,
)

REPS = int(os.environ.get("REPRO_PAPER_SWEEP_REPS", 2))
JOBS = int(os.environ.get("REPRO_PAPER_SWEEP_JOBS", min(4, os.cpu_count() or 1)))


def _config() -> ExperimentConfig:
    """The published problem size on a datacenter fabric."""
    return ExperimentConfig(
        ccrs=PAPER_CCRS,
        proc_counts=(128,),
        task_range=(40, 1000),
        repetitions=REPS,
        topology="leaf_spine",
    )


def unit_makespan_checksum(results) -> str:
    """Digest of every unit's per-algorithm makespan, repr-exact.

    Finer-grained than the figure benches' per-series checksum: a drift in
    any single instance fails, even if the point means happen to agree.
    """
    lines = [
        f"{res.index}:{algo}={res.makespans[algo]!r}"
        for res in sorted(results, key=lambda r: r.index)
        for algo in sorted(res.makespans)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_paper_scale_sweep():
    config = _config()
    x_values, units = plan_sweep(config, "ccr")
    assert len(units) == len(PAPER_CCRS) * REPS

    t0 = perf_counter()
    results = execute_units(config, units, jobs=JOBS)
    wall = perf_counter() - t0
    assert len(results) == len(units)

    series = merge_unit_results(config, x_values, results)
    telemetry = collect_telemetry(results)
    # The paper's qualitative claim must hold at published scale: the
    # contention-aware schedulers beat BA somewhere on the CCR grid.
    assert any(v > 0 for v in series["oihsa"]) and any(v > 0 for v in series["bbsa"])

    doc = {
        "sweep": {
            "ccrs": list(PAPER_CCRS),
            "n_procs": 128,
            "task_range": [40, 1000],
            "topology": config.topology,
            "repetitions": REPS,
            "algorithms": list(config.algorithms),
            "seed": config.seed,
        },
        "units": len(results),
        "jobs": JOBS,
        "wall_s": wall,
        "unit_wall_s": {
            "mean": wall / len(results),
            "max": max(r.wall_s or 0.0 for r in results),
        },
        "makespan_checksum": unit_makespan_checksum(results),
        "improvement_series": series,
        "telemetry": telemetry.summary_dict(),
    }
    out = Path("BENCH_paper_sweep.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(
        f"\n{len(results)} paper-scale units in {wall:.1f}s "
        f"(jobs={JOBS}); wrote {out.resolve()}"
    )
