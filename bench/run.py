"""Benchmark runner for modbasis.

    python3 bench/run.py --workload cli-large --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

Builds the workload's inputs from the seed in a separate process, sets
up several times and reports the median set-up time, then runs the
workload's closed loop for ``--seconds`` and checks every answer.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.  The line
before it is a report with every metric the workload produced, sample
counts, tail percentiles, layer self times, and the interpreter and
machine.
``--smoke`` runs every workload at a tiny size, traced and untraced,
and fails unless every named metric is printed and nothing failed.

The library is imported from ``src/`` next to this directory and is
never modified; spans come from wrappers installed by ``spans.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# Set up at least SETUPS times, then again while less than SETUP_SECONDS
# of set-up has been measured, at most MAX_SETUPS times: a set-up of a
# few milliseconds needs more samples for a steady median.
SETUPS, SETUP_SECONDS, MAX_SETUPS = 5, 1.0, 25

# What each layer metric should move, and where; every traced report
# prints the entries for the layer metrics it has.
LAYER_MOVES = {
    "io.parse_ms": "read_ms, decompose_ms, dot_ms, check_ms on cli-large; read_ms on small-corpus; setup_s on session",
    "io.read_ms": "same as io.parse_ms",
    "io.read_over_parse": "same as io.parse_ms",
    "core.build_ms": "same as io.parse_ms",
    "core.validate_ms": "same as io.parse_ms",
    "io.bytes": "same as io.parse_ms",
    "io.entries": "same as io.parse_ms",
    "io.dumps_ms": "roundtrip_ms on cli-large and small-corpus",
    "core.support_ms": "roundtrip_ms on cli-large and small-corpus",
    "io.dot_ms": "dot_ms on cli-large",
    "connections.forward_edges_ms": "dot_ms on cli-large",
    "connections.components_ms": "decompose_ms on every workload",
    "decomposition.decompose_ms": "decompose_ms on every workload",
    "connections.find_connection_ms": "connect_ms, connect_tail_ms on session; connect_ms on small-corpus; connect_ms on cli-large behind the read",
    "connections.chain_steps": "same as connections.find_connection_ms",
    "connections.verify_ms": "same as connections.find_connection_ms",
    "connections.first_mu_ms": "same as connections.find_connection_ms",
    "minimality.is_minimal_ms": "check_ms on session",
    "minimality.equivalence_ms": "check_ms on session",
    "minimality.mu_multiplicative_ms": "check_ms on cli-large",
    "decomposition.restrict_ms": "restrict_ms on session",
    "decomposition.verify_submodule_ms": "restrict_ms on session",
    "connections.oracle_ms": "oracle_ms on small-corpus",
    "semidirect.build_ms": "semidirect_ms on small-corpus",
    "semidirect.pairing_ms": "semidirect_ms on small-corpus",
    "cli.import_ms": "setup_s on every workload",
    "cli.dispatch_ms": "nothing: cli-large command latency outside library calls, kept negligible",
}

# Every end-to-end metric some workload reports; the smoke run checks
# that each one is printed.
END_TO_END = (
    "setup_s", "gen_s", "read_ms", "decompose_ms", "dot_ms", "connect_ms", "connect_tail_ms",
    "check_ms", "restrict_ms", "roundtrip_ms", "oracle_ms", "semidirect_ms",
    "ops_per_s", "peak_rss_mb", "fail_ratio",
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_library():
    if not (SRC / "modbasis" / "__init__.py").is_file():
        raise ImportError(f"no modbasis package under {SRC}")
    sys.path.insert(0, str(SRC))
    import modbasis
    import modbasis.cli  # noqa: F401  (not re-exported by the package)
    if Path(modbasis.__file__).resolve().parent != SRC / "modbasis":
        raise ImportError(f"imported modbasis from {modbasis.__file__}, not {SRC}")
    return modbasis


def fresh_import_seconds() -> float:
    """Time ``import modbasis`` alone in a new interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import modbasis.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def summarize(samples, scale: float) -> dict:
    """Median, sample count, and the highest percentile that still has at
    least ten kept samples beyond it."""
    ordered = sorted(samples.values)
    stats = {"value": statistics.median(ordered) * scale, "samples": len(samples)}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1 - p / 100) >= 10:
            rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
            stats["tail"] = {"percentile": p, "value": ordered[rank] * scale}
            break
    return stats


def generate(name, seed, size, workdir: Path) -> float:
    """Write the workload's inputs in a separate process; its run time."""
    start = perf_counter()
    subprocess.run([sys.executable, str(BENCH / "gen.py"), name, str(seed),
                    json.dumps(size), str(workdir)], check=True, timeout=600)
    return perf_counter() - start


def run_workload(mb, spec, name, seed, seconds, trace, size_name="full") -> tuple[dict, dict]:
    cls = workloads.WORKLOADS[name]
    size = workloads.SIZES[size_name][name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = spans.Tracer(mb) if trace else None
    try:
        gen_s = generate(name, seed, size, workdir)
        workload, imports, setups = None, [], []
        while not setups or not trace and (
                len(setups) < SETUPS
                or sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
            imports.append(fresh_import_seconds())
            # The last set-up's state goes before the next one is built.
            workload = None
            workload = cls(mb, workdir)
            gc.collect()
            start = perf_counter()
            if tracer:
                tracer.install()
            try:
                workload.load()
            finally:
                if tracer:
                    tracer.uninstall()
            setups.append(imports[-1] + perf_counter() - start)
        # Collections during timed calls should scan what those calls
        # allocate, not the benchmark's reference answers.
        gc.collect()
        gc.freeze()
        rec = workloads.Recorder(tracer)
        start = perf_counter()
        # Traced, every kind runs at least once traced and once untraced.
        workloads.closed_loop(workload.kinds(rec), seconds, workload.collect,
                              min_calls=2 if trace else 1, shares=workload.shares)
        wall = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
        gc.unfreeze()

    e2e = {metric: dict(summarize(values, 1e3), unit="ms")
           for metric, values in sorted(rec.samples.items()) if len(values)}
    if "connect_ms" in e2e and "tail" in e2e["connect_ms"] and name != "cli-large":
        tail = e2e["connect_ms"]["tail"]
        e2e["connect_tail_ms"] = {"value": tail["value"], "unit": "ms",
                                  "percentile": tail["percentile"],
                                  "samples": e2e["connect_ms"]["samples"]}
    if not trace:
        e2e["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                          "samples": len(setups)}
        e2e["gen_s"] = {"value": gen_s, "unit": "s", "samples": 1}
        e2e["ops_per_s"] = {"value": rec.attempted / rec.busy, "unit": "1/s",
                            "samples": rec.attempted}
    e2e["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          "unit": "MB"}
    e2e["fail_ratio"] = {"value": rec.failed / max(1, rec.attempted), "unit": "ratio"}

    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "wall_s": wall, "trace": int(trace), "size": size,
        "python": sys.version.split()[0], "implementation": platform.python_implementation(),
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "closed_loop": "one process, one caller, no threads",
        "attempted": rec.attempted, "failed": rec.failed, "errors": rec.errors,
    }
    layers = {"cli.import_ms": {"value": statistics.median(imports) * 1e3, "unit": "ms",
                                "samples": len(imports)}}
    if trace:
        summary = spans.layer_summary(tracer.spans, tracer.counts)
        for metric, (value, unit) in summary["metrics"].items():
            layers[metric] = {"value": value, "unit": unit}
        pairs = [(statistics.median(rec.traced[m].values),
                  statistics.median(rec.samples[m].values))
                 for m in rec.samples if len(rec.samples[m]) and len(rec.traced[m])]
        overhead = 100 * (sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1)
        layers["trace.overhead"] = {"value": overhead, "unit": "%",
                                    "ops_compared": len(pairs)}
        report["self_ms"] = {n: round(v["self_ms"], 3) for n, v in summary["layers"].items()}
        report["span_calls"] = {n: v["calls"] for n, v in summary["layers"].items()}
        report["layers"] = layers
        report["layer_moves"] = {m: LAYER_MOVES[m] for m in layers if m in LAYER_MOVES}
        report["end_to_end_untraced_half"] = e2e
    else:
        report["end_to_end"] = e2e
    return report, (layers if trace else e2e)


def result_line(spec: dict, report: dict, measured: dict, trace: bool) -> dict:
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"])
        if value is None:
            raise KeyError(f"workload produced no {entry['name']}")
        metrics[entry["name"]] = {"value": value["value"], "unit": entry["unit"]}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def spec_names(spec):
    return [w["name"] for w in spec["workloads"]]


def smoke(mb, spec) -> int:
    """Every workload at a tiny size, untraced and traced: every named
    metric printed by some workload, and fail_ratio 0 everywhere."""
    problems = []
    printed = set()
    for name in spec_names(spec):
        for trace in (0, 1):
            report, measured = run_workload(mb, spec, name, 1, 1.0, trace, "smoke")
            print(json.dumps({"report": report}))
            printed.update(measured)
            try:
                line = result_line(spec, report, measured, trace)
            except KeyError as exc:
                problems.append(f"{name} trace={trace}: {exc}")
                continue
            print(json.dumps(line))
            if line["failed"]:  # fail_ratio is failed / attempted
                problems.append(f"{name} trace={trace}: {report['errors']}")
    for metric in (*END_TO_END, *LAYER_MOVES, "trace.overhead"):
        if metric not in printed:
            problems.append(f"no workload printed {metric}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        mb = import_library()
    except (OSError, ValueError, ImportError) as exc:
        return fail(str(exc))
    if args.smoke:
        return smoke(mb, spec)
    if args.workload not in spec_names(spec):
        return fail(f"unknown workload {args.workload!r}; expected one of {spec_names(spec)}")
    report, measured = run_workload(mb, spec, args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    line = result_line(spec, report, measured, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
