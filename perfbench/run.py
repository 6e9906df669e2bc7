"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wan-large --seed 1 --seconds 30 --trace 0

Times are reference seconds (see ``tracing.RefClock``): wall time rescaled
by a calibration kernel timed in the same process, so the host's slow phases
cancel; each pass's plain wall-clock time is printed beside it.

Set-up (imports, instance generation, kernel resolution) is timed here and
in two fresh interpreters (``--setup-probe``); ``setup_s`` is the median of
the three.  The timed phase then runs whole passes of the workload for
about ``--seconds``: it starts another pass only while the last one still
fits.  With ``--trace 1`` each pass is run twice, untraced and then with
every layer entry point wrapped (see ``tracing.py``), and the per-layer
metrics and the tracing overhead are reported instead of the end-to-end
ones.

Every schedule is validated and every makespan is compared, repr-exact,
with ``reference.json``; a raise, a violation or a mismatch is a failed
operation.  The workload instances are fixed (see ``workloads.py``), so
``--seed`` is recorded with the results but selects the same inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans of a
traced run are written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LIST_ALGOS, RefClock, layer_metrics

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = CHECKOUT / ".perfbench-out"
SETUP_PROBES = 2


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def setup(workload_name: str):
    """Import the program, build the workload's inputs and resolve lazy state.

    Returns ``(workload, instances, kernel provenance, reference seconds
    taken)``.
    """
    clock = RefClock()
    clock.calibrate()
    start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    from repro import obs
    from repro.core.kernelreg import kernel_provenance

    import workloads

    try:
        workload = workloads.WORKLOADS[workload_name]
    except KeyError:
        raise BenchError(
            f"unknown workload {workload_name!r}; known: {sorted(workloads.WORKLOADS)}"
        ) from None
    instances = workload.build()
    provenance = kernel_provenance("auto")
    if obs.is_enabled():
        raise BenchError("repro.obs is on before the timed phase")
    end = time.perf_counter()
    clock.calibrate()
    return workload, instances, provenance, clock.seconds(start, end)


def probe_setup(workload_name: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload_name],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def failed_ops(res, reference: dict[str, float]) -> list[str]:
    """Operations that raised, failed validation or missed their reference."""
    return [
        key for key in res.keys
        if key not in res.makespans
        or key not in reference
        or res.makespans[key] != reference[key]
    ]


def lifts(makespans: dict[str, float]) -> dict[str, float]:
    """The paper's metric: mean % makespan improvement over BA per algorithm."""
    from repro.core.metrics import improvement_ratio

    out = {}
    for algo in ("oihsa", "bbsa"):
        values = [
            improvement_ratio(makespans[key], makespans[key[: -len("/ba")] + "/" + algo])
            for key in makespans
            if key.endswith("/ba") and key[: -len("/ba")] + "/" + algo in makespans
        ]
        out[algo] = sum(values) / len(values) if values else 0.0
    return out


def end_to_end(setup_s: float, passes: list) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over the untraced passes: ``{name: (value, unit)}``.

    Rates are taken per pass and the median is reported, so one pass slowed
    by the machine does not move the run's figure.
    """

    def per_pass(work: str, seconds: str, algos) -> float:
        rates = []
        for p in passes:
            spent = sum(getattr(p, seconds).get(a, 0.0) for a in algos)
            if spent:
                rates.append(sum(getattr(p, work).get(a, 0) for a in algos) / spent)
        return statistics.median(rates) if rates else 0.0

    unit_walls = [w for p in passes for w in p.unit_walls]
    lift = lifts(passes[-1].makespans)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "edges_per_s": (per_pass("edges", "sched_s", LIST_ALGOS), "1/s"),
        "oihsa_edges_per_s": (per_pass("edges", "sched_s", ("oihsa",)), "1/s"),
        "bbsa_edges_per_s": (per_pass("edges", "sched_s", ("bbsa",)), "1/s"),
        "units_per_s": (statistics.median(len(p.unit_walls) / p.wall_s for p in passes), "1/s"),
        "unit_p50_ms": (1e3 * quantile(unit_walls, 0.5), "ms"),
        "unit_p90_ms": (1e3 * quantile(unit_walls, 0.9), "ms"),
        "anneal_evals_per_s": (per_pass("candidates", "search_s", ("annealing",)), "1/s"),
        "genetic_evals_per_s": (per_pass("candidates", "search_s", ("genetic",)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "oihsa_lift_pct": (lift["oihsa"], "%"),
        "bbsa_lift_pct": (lift["bbsa"], "%"),
    }


def write_spans(path: Path, tracers: list) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for n, tr in enumerate(tracers):
            json.dump({"pass": n, "name": tr.names, "start": tr.starts, "end": tr.ends,
                       "parent": tr.parents, "algo": tr.algos, "count": tr.counts}, fh)
            fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workload, instances, provenance, setup_here = setup(args.workload)
        if args.setup_probe:
            print(repr(setup_here))
            return 0
        setup_times = [setup_here] + [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name, {})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    untraced, traced, tracers = [], [], []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        gc.collect()
        untraced.append(workload.run_pass(instances, "coarse")[0])
        if args.trace:
            instances = workload.build()
            gc.collect()
            res, tracer = workload.run_pass(instances, "full")
            traced.append(res)
            tracers.append(tracer)
        last = time.perf_counter() - pass_began
        if time.perf_counter() - began + last > args.seconds:
            break
        instances = workload.build()

    problems = []
    failed = 0
    for res in untraced + traced:
        bad = failed_ops(res, reference)
        failed += len(bad)
        problems += [f"{key}: {res.errors.get(key, 'makespan differs from reference')}"
                     for key in bad[:5]]
        if (res.obs_on_calls > 0) != workload.obs_on:
            problems.append(f"repro.obs on in {res.obs_on_calls} of "
                            f"{res.schedule_calls} schedule() calls")
    for res in traced:
        if res.makespans != untraced[0].makespans:
            problems.append("traced makespans differ from untraced ones")
    attempted = sum(len(r.keys) for r in untraced + traced)

    metrics = end_to_end(statistics.median(setup_times), untraced)
    print(f"workload {workload.name}: seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} operations, {failed} failed")
    print("pass wall times, reference s: "
          + " ".join(f"{r.wall_s:.3f}" for r in untraced + traced)
          + "; wall-clock s: " + " ".join(f"{r.wall_raw_s:.3f}" for r in untraced + traced))
    print("provenance " + json.dumps({
        "seed": args.seed, "nproc": os.cpu_count(), "python": platform.python_version(),
        "kernel": provenance,
        "obs_on_schedule_calls": [r.obs_on_calls for r in untraced + traced],
        "schedule_calls": [r.schedule_calls for r in untraced + traced],
        "units_per_pass": [len(r.unit_walls) for r in untraced],
    }, sort_keys=True))
    for problem in problems:
        print(f"FAILED {problem}")
    if args.trace:
        layers: dict[str, tuple[float, str]] = {}
        per_pass = [layer_metrics(tr, 1) for tr in tracers]
        for name, (_, unit) in per_pass[0].items():
            layers[name] = (statistics.mean(m[name][0] for m in per_pass), unit)
        plain = statistics.median(r.wall_s for r in untraced)
        layers["trace.overhead_frac"] = (
            (statistics.median(r.wall_s for r in traced) - plain) / plain, "frac")
        write_spans(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl.gz", tracers)
        reported = layers
        for name, (value, unit) in metrics.items():
            print(f"  e2e {name} = {value:.6g} {unit}")
    else:
        reported = metrics
    print(f"  fail_frac = {failed / attempted if attempted else 1.0:.6g} (failed/attempted)")
    for name, (value, unit) in reported.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
