"""Benchmark for snake_atlas.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its ``src/``.  Each
run first sends the workload's batch once, untimed, to warm up.  With
``--trace 0`` it then sends the batch in timed passes until
``--seconds`` of passes have run, and the last line of output is a JSON
object with the end-to-end metrics.  With ``--trace 1`` it sends the
batch three more times: untraced, with a span at every layer boundary,
and with tracemalloc around the enumerators; the last line then holds
the per-layer metrics and the spans are written under ``.perfbench/``.
Every output of every pass is checked; failures count in ``failed``.
``--workload all`` runs each workload in its own process, one after
another, and prints every metric by name with its unit.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
#: Seconds of requests between two timings of the reference kernel.
CHUNK_S = 0.25
WORKLOAD_NAMES = ("verify-all", "bulk-trees-forests", "point-queries")


def setup_probe(workload: str) -> float:
    """Seconds of import plus first call in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                          capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def _pass(workload, batch):
    gc.collect()
    start = time.perf_counter()
    outputs, latencies = workload.run_pass(batch)
    return outputs, latencies, time.perf_counter() - start


def _referenced_pass(workload, batch):
    """One pass, one request at a time, timing the reference kernel each
    time ``CHUNK_S`` of requests have run since it last ran.  Returns the
    outputs, the latencies in seconds, the same latencies in reference
    units (each over the mean of the kernel times just before and just
    after its chunk), and the wall time of the pass."""
    from reference import time_kernel

    gc.collect()
    start = time.perf_counter()
    outputs, latencies, units = [], [], []
    before, chunk = time_kernel(), []
    for i, request in enumerate(batch):
        out, lat = workload.run_pass([request])
        outputs += out
        latencies += lat
        chunk += lat
        if sum(chunk) >= CHUNK_S or i == len(batch) - 1:
            after = time_kernel()
            units += [x / ((before + after) / 2) for x in chunk]
            before, chunk = after, []
    return outputs, latencies, units, time.perf_counter() - start


def end_to_end(workload, batch, seconds: float, tally) -> dict:
    """Timed passes until ``seconds`` of them have run.  ``run_ref`` is
    the sum over requests of each request's median time across passes,
    in reference units; the set-up probes run between passes, so that
    they sample the same stretch of time."""
    from stats import TAIL_SAMPLES, percentile, sum_of_medians, tail_quantile

    q = tail_quantile(len(batch))
    walls, passes, unit_passes, p50s, tails, setups = [], [], [], [], [], []
    while sum(walls) < seconds:
        outputs, latencies, units, wall = _referenced_pass(workload, batch)
        walls.append(wall)
        passes.append(latencies)
        unit_passes.append(units)
        p50s.append(percentile(latencies, 0.5))
        tails.append(percentile(latencies, q))
        workload.check(batch, outputs, tally)
        del outputs
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(workload.name))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name))
    median = statistics.median
    # Seconds and request latencies are printed, not reported as
    # metrics: they move with the host's speed by more than any usable
    # bound.
    print(f"{workload.name}: {len(walls)} passes of {len(batch)} requests "
          f"({' '.join(f'{w:.3f}' for w in walls)} s); run "
          f"{sum_of_medians(passes):.3f} s; request latency "
          f"p50 {median(p50s) * 1e3:.3f} ms, p{100 * q:.4g} {median(tails) * 1e3:.3f} ms "
          f"({TAIL_SAMPLES} or more of each pass's requests beyond); "
          f"fail_frac {tally.failed}/{tally.attempted}")
    return {"setup_s": median(setups), "run_ref": sum_of_medians(unit_passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(workload, batch, tally) -> dict:
    import workloads
    from layers import instrumented
    from metrics import per_layer_values
    from spans import Tracer

    untraced, _, untraced_s = _pass(workload, batch)
    workload.check(batch, untraced, tally)

    tracer = Tracer()
    gc.collect()
    with instrumented(tracer, [workloads]):
        start = tracer.clock()
        with tracer.span("bench.pass"):
            outputs, _ = workload.run_pass(batch)
        traced_s = tracer.clock() - start
    workload.check(batch, outputs, tally)
    del outputs
    covered = sum(tracer.self_times())
    tally.record(abs(covered - traced_s) <= 0.01 * traced_s,
                 f"span self times cover {covered:.3f} s of {traced_s:.3f} s")

    memory = Tracer(memory=True)
    gc.collect()
    with instrumented(memory, [workloads]):
        outputs, _ = workload.run_pass(batch)
    workload.check(batch, outputs, tally)
    del outputs

    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"{workload.name}.spans")
    print(f"{workload.name}: {len(tracer.starts)} spans; untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s; fail_frac {tally.failed}/{tally.attempted}")
    return per_layer_values(tracer, memory, untraced, untraced_s, traced_s)


def run_one(args) -> dict:
    from metrics import END_TO_END, per_layer_specs
    from probe import FIRST_CALLS
    from stats import Tally
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    batch = workload.batch(args.seed)
    FIRST_CALLS[workload.name]()
    tally = Tally()
    # An untimed warm-up pass: the first pass of a process runs slower.
    workload.check(batch, _pass(workload, batch)[0], tally)
    if args.trace:
        values, specs = per_layer(workload, batch, tally), per_layer_specs()
    else:
        values, specs = end_to_end(workload, batch, args.seconds, tally), END_TO_END
    for what in tally.examples:
        print(f"FAILED: {what}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in specs}}


def run_every_workload(args) -> dict:
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"  {name:<20} {metric:<44} {m['value']:>14.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snake_atlas" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no snake_atlas sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_every_workload(args)
    else:
        result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
