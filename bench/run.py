"""Benchmark for sagnacsim: one workload per process, end to end or traced.

    python3 bench/run.py --workload campaign-exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are made from ``--seed`` in a temporary directory
``.bench_work-*`` in the checkout, removed at exit.  Rounds of identical operations are
repeated for ``--seconds``.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` spans are recorded around the package's public
functions for the first three quarters of the time, the wrappers are then
removed for the last quarter, and the per-layer metrics (per round, or per
set-up for ``schedule.load_s``) plus the tracing overhead are reported; the
spans go to ``.bench_out/trace-<workload>.jsonl``.  The last line of standard
output is one JSON object.  Exit code 1 means a correctness check failed,
2 a usage error or a missing package.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread: load comes from this process alone

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import KNOWN_FAULTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 41
TRACED_SHARE = 0.75
BLOCK_S = 0.5  # consecutive rounds are pooled into blocks of at least this much scaled time

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "op_p25_ms": "ms", "work_per_s": "1/s"}
# Per-layer metric -> (unit, span name, field).  Fields: "total" inclusive
# span time, "self" span time minus child spans, "calls", "counter" (work
# counted at the span), "setup" inclusive time per set-up.
PER_LAYER = {
    "schedule.call_s": ("s", "schedule.PhaseSchedule.__call__", "total"),
    "schedule.calls": ("count", "schedule.PhaseSchedule.__call__", "calls"),
    "schedule.load_s": ("s", "schedule.load_schedule", "setup"),
    "qudit.apply_signal_phases_s": ("s", "qudit.apply_signal_phases", "total"),
    "qudit.apply_signal_phases_calls": ("count", "qudit.apply_signal_phases", "calls"),
    "qudit.inner_product_s": ("s", "qudit.inner_product", "total"),
    "jones.phase_shifter_s": ("s", "jones.phase_shifter", "total"),
    "jones.phase_shifter_calls": ("count", "jones.phase_shifter", "calls"),
    "sagnac.coincidence_full_s": ("s", "sagnac.coincidence_full", "total"),
    "sagnac.coincidence_full_calls": ("count", "sagnac.coincidence_full", "calls"),
    "sagnac.circuit_oracle_s": ("s", "sagnac.circuit_oracle", "total"),
    "sagnac.circuit_oracle_calls": ("count", "sagnac.circuit_oracle", "calls"),
    "sagnac.generate_scan_self_s": ("s", "sagnac.generate_scan", "self"),
    "sagnac.write_scan_s": ("s", "sagnac.write_scan", "total"),
    "sagnac.bytes_written": ("B", "sagnac.bytes_written", "counter"),
    "sagnac.read_scan_s": ("s", "sagnac.read_scan", "total"),
    "sagnac.bytes_read": ("B", "sagnac.bytes_read", "counter"),
    "analysis.fit_fringe_s": ("s", "analysis.fit_fringe", "total"),
    "analysis.fit_fringe_calls": ("count", "analysis.fit_fringe", "calls"),
    "analysis.kinematic_phase_self_s": ("s", "analysis.kinematic_phase", "self"),
    "analysis.kinematic_steps": ("count", "analysis.kinematic_steps", "counter"),
    "plotting.render_campaign_svg_s": ("s", "plotting.render_campaign_svg", "total"),
    "plotting.svg_bytes": ("B", "plotting.svg_bytes", "counter"),
    "campaign.run_campaign_self_s": ("s", "campaign.run_campaign", "self"),
    "campaign.files_written": ("count", "campaign.files_written", "counter"),
    "verify.check_oracle_equivalence_self_s": ("s", "verify.check_oracle_equivalence", "self"),
    "verify.check_kinematic_agreement_self_s": ("s", "verify.check_kinematic_agreement", "self"),
    "cli.main_self_s": ("s", "cli.main", "self"),
}
FIELD_INDEX = {"calls": 0, "total": 1, "self": 2}


def import_package(tracer):
    """Import sagnacsim afresh from src/, wrapping it when tracing."""
    if tracer is not None:
        tracer.uninstall()
    for key in [k for k in sys.modules if k == "sagnacsim" or k.startswith("sagnacsim.")]:
        del sys.modules[key]
    pkg = importlib.import_module("sagnacsim")
    cli = importlib.import_module("sagnacsim.cli")
    if tracer is not None:
        tracer.install()
    return pkg, cli


def measure(wl, seconds: float, first_round: int) -> range:
    """Run whole rounds until ``seconds`` have passed; returns the rounds run."""
    start = perf_counter()
    k = first_round
    while True:
        wl.round = k
        wl.run_round(k)
        k += 1
        if perf_counter() - start >= seconds:
            wl.clock.sample()  # closes the last interval
            return range(first_round, k)


def quartiles(values: list[float]) -> list[float]:
    """statistics.quantiles(n=4), also for a single value."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def scaled_timings(wl) -> list[tuple[int, str, float]]:
    """(round, kind, seconds at the clock's nominal speed) per timed operation."""
    return [(k, kind, s * wl.clock.scale(i)) for k, kind, s, i in wl.timings]


def busy_per_round(timings, rounds: range) -> list[float]:
    busy = dict.fromkeys(rounds, 0.0)
    for k, _, s in timings:
        if k in busy:
            busy[k] += s
    return list(busy.values())


def block_rates(timings, rounds: range, work_per_round: float) -> list[float]:
    """Work per scaled second in blocks of consecutive rounds of at least BLOCK_S."""
    rates, busy, n = [], 0.0, 0
    for b in busy_per_round(timings, rounds):
        busy, n = busy + b, n + 1
        if busy >= BLOCK_S:
            rates.append(n * work_per_round / busy)
            busy, n = 0.0, 0
    if n and not rates:
        rates.append(n * work_per_round / busy)
    return rates


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    # Inputs go to a temporary directory inside the checkout, removed at exit.
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work_root:
        setup_s = []
        for i in range(SETUP_REPEATS):
            sample = wl.clock.sample()
            start = perf_counter()
            pkg, cli = import_package(tracer)
            wl.bind(pkg, cli)
            work_dir = Path(work_root, f"setup{i}")
            work_dir.mkdir()
            wl.setup(work_dir)
            setup_s.append((perf_counter() - start, sample))
        wl.clock.sample()
        setup_s = [s * wl.clock.scale(i) for s, i in setup_s]
        if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"error: sagnacsim imported from {pkg.__file__}, not from {ROOT / 'src'}",
                  file=sys.stderr)
            return 2

        if trace:
            setup_stats = tracer.stats
            tracer.reset()
            wl.tracer = tracer
            traced_rounds = measure(wl, seconds * TRACED_SHARE, 0)
            traced_stats, traced_counters = tracer.stats, tracer.counters
            tracer.uninstall()
            wl.tracer = None
            plain_rounds = measure(wl, seconds * (1.0 - TRACED_SHARE), traced_rounds.stop)
        else:
            rounds = measure(wl, seconds, 0)
        wl.finish()

    timings = scaled_timings(wl)
    if trace:
        n_rounds = len(traced_rounds)
        metrics = {}
        for metric, (unit, span, field) in PER_LAYER.items():
            if field == "counter":
                value = traced_counters.get(span, 0) / n_rounds
            elif field == "setup":
                value = setup_stats.get(span, [0, 0.0, 0.0])[1] / SETUP_REPEATS
            else:
                value = traced_stats.get(span, [0, 0.0, 0.0])[FIELD_INDEX[field]] / n_rounds
            metrics[metric] = {"value": value, "unit": unit}
        overhead = (statistics.median(busy_per_round(timings, traced_rounds))
                    / statistics.median(busy_per_round(timings, plain_rounds)) - 1.0)
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{name}.jsonl")
    else:
        lat_ms = [1e3 * s for _, kind, s in timings if kind == "main"]
        rates = block_rates(timings, rounds, wl.work / len(rounds))
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p25_ms": quartiles(lat_ms)[0],
            "work_per_s": quartiles(rates)[2],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    failed = sum(wl.failed.values())
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}: "
          f"{wl.attempted} operations attempted, {failed} failed, "
          f"{len(timings)} timed, work unit: {wl.work_unit}")
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    for label, n in sorted(wl.failed.items()):
        print(f"  failed {label}: {n} ({KNOWN_FAULTS.get(label, 'not a known fault')})")
    for text in wl.problems:
        print(f"  CHECK FAILED: {text}")
    correct = not wl.problems
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another; each report ends in its JSON line."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sagnacsim" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'sagnacsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
