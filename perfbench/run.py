"""Layered benchmark for permtri.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 10 --trace 0

Workloads are listed in ``workloads.NAMES``; README.md says what each
measures and why.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (context, metrics with sample counts, the design's metric names),
which is also written to ``.bench_out/`` with the trace's spans.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import import_module
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)
from tracing import Tracer  # noqa: E402

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 300
SETUP_MIN_SECONDS = 2.0
FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6")

# The design's names for the end-to-end figures of each workload:
# name -> (metric, scale, unit).  A sweep or a search is one operation.
# ``ops_per_s`` is in the run record only: it has no bound, because on a
# one-operation run it is just the inverse of op_p50_us.
DESIGN_NAMES = {
    "verify-sweep": {"verify_sweep_s": ("op_p50_us", 1e-6, "s")},
    "invert-table": {"invert_ops_per_s": ("ops_per_s", 1, "1/s"),
                     "invert_p50_us": ("op_p50_us", 1, "us"),
                     "invert_p99_us": ("op_p99_us", 1, "us")},
    "search-n9": {"search_s": ("op_p50_us", 1e-6, "s")},
}
DESIGN_NAMES["invert-wide"] = DESIGN_NAMES["invert-table"]


def load_permtri():
    """Import permtri from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pt = import_module("permtri")
    if not Path(pt.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"permtri was found at {pt.__file__}, outside {src}")
    for module in ("field", "families", "permcheck", "linalg2", "inverter", "cli"):
        import_module(f"permtri.{module}")
    return pt


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args):
    import numpy
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "benchmark": "perfbench/run.py",
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "note": ("measured by perfbench/run.py on the machine above; not comparable "
                 "with test_output.txt or `permtri bench` figures"),
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    attempted = 0
    failed = 0


def run_pass(work, ops, tally, latencies, obs=None):
    """Run one pass in a closed loop; return the seconds spent in the calls.

    With ``obs`` (traced passes), the workload records per-layer facts."""
    clock = time.perf_counter_ns
    total = 0
    for op in ops:
        t0 = clock()
        try:
            result = work.run(op)
        except work.op_errors:
            result = None
        dt = clock() - t0
        total += dt
        latencies.append(dt)
        tally.attempted += 1
        if result is None or not work.gate(op, result):
            tally.failed += 1
        if obs is not None:
            work.observe(op, result, dt / 1e9, obs)
    return total / 1e9


def new_observations():
    return {"elements": 0, "op_n": [], "family_us": {}, "inverted": 0, "candidates": 0,
            "F1_eps0": 0, "F2_lam7": 0, "F4_alpha0": 0, "first_row_s": 0.0,
            "rows_s": 0.0, "triples": 0, "survivors": 0, "confirmed": 0}


def layer_metrics(tracer, mark, counts_before, obs, untraced_s, traced_s, traced_ops,
                  build_s):
    """Every per-layer metric, 0 where the workload does not reach the layer.

    Span times are per pass; calls are per operation of the traced passes.
    """
    totals = tracer.totals(mark)
    counts = tracer.counts()
    passes = len(traced_s)

    def span(name, part):
        return totals.get(name, (0.0, 0.0, 0))[part]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"field.build_tables_s": (statistics.median(build_s), "s")}
    for name in ("mul", "pow", "frobenius", "inv"):
        calls = counts.get(f"field.{name}", 0) - counts_before.get(f"field.{name}", 0)
        m[f"field.{name}_calls_per_op"] = (ratio(calls, traced_ops), "calls/op")
    for layer, name in (("families", "value_table"), ("permcheck", "check")):
        seconds = span(f"{layer}.{name}", 0)
        m[f"{layer}.{name}_s"] = (seconds / passes, "s")
        m[f"{layer}.{name}_ns_per_elem"] = (ratio(seconds * 1e9, obs["elements"]), "ns")
    n20 = [d for d, n in zip(tracer.durations("permcheck.check", mark), obs["op_n"])
           if n == 20]
    m["permcheck.check_n20_p50_s"] = (statistics.median(n20) if n20 else 0.0, "s")
    m["linalg2.solve_affine_calls_per_op"] = (
        ratio(span("linalg2.solve_affine", 2), traced_ops), "calls/op")
    m["linalg2.solve_affine_self_s"] = (span("linalg2.solve_affine", 1) / passes, "s")
    m["linalg2.matrix_of_self_s"] = (span("linalg2.matrix_of", 1) / passes, "s")
    for family in FAMILIES:
        us = obs["family_us"].get(family)
        m[f"inverter.{family}_us"] = (statistics.median(us) if us else 0.0, "us")
    m["inverter.self_s"] = (span("inverter.invert", 1) / passes, "s")
    m["inverter.candidates_per_op"] = (ratio(obs["candidates"], obs["inverted"]), "count")
    m["inverter.candidate_yield"] = (ratio(obs["inverted"], obs["candidates"]), "frac")
    for branch in ("F1_eps0", "F2_lam7", "F4_alpha0"):
        m[f"inverter.{branch}"] = (obs[branch], "count")
    m["cli.search_first_row_s"] = (obs["first_row_s"] / passes, "s")
    m["cli.search_rows_s"] = (obs["rows_s"] / passes, "s")
    for name in ("triples", "survivors", "confirmed"):
        m[f"cli.search_{name}"] = (obs[name] / passes, "count")
    m["cli.search_screen_pass_frac"] = (ratio(obs["survivors"], obs["triples"]), "frac")
    m["cli.search_confirm_frac"] = (ratio(obs["confirmed"], obs["survivors"]), "frac")
    m["trace.overhead_frac"] = (sum(traced_s) / sum(untraced_s) - 1, "frac")
    m["trace.accounted_frac"] = (tracer.top_level_s(mark) / sum(traced_s), "frac")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        pt = load_permtri()
    except ImportError as exc:
        print(f"error: cannot import permtri from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    context = run_context(args)
    work = workloads.make(args.workload, pt, args.seed, out_dir)
    tracer = Tracer(pt) if args.trace else None

    # At least SETUP_MIN_REPS set-ups; cheap ones are repeated for about
    # SETUP_MIN_SECONDS so their median is not one short, noisy reading.
    scope = tracer if tracer is not None else contextlib.nullcontext()
    setup_s, build_s = [], []
    state = None
    while len(setup_s) < SETUP_MIN_REPS or (
            sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPS):
        state = None
        gc.collect()
        mark = tracer.mark() if tracer is not None else 0
        with scope:
            t0 = time.perf_counter()
            state = work.setup()
            setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            build_s.append(tracer.totals(mark).get("field.build_tables", (0.0,))[0])

    # Whole passes only, and no pass that would end past the deadline, so a
    # run lasts about --seconds unless a single pass takes longer.  A traced
    # run repeats each pass, traced, on the same operations.
    tally = Tally()
    latencies, pass_s, traced_s, traced_lat = [], [], [], []
    obs = new_observations()
    if tracer is not None:
        mark, counts_before = tracer.mark(), tracer.counts()
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        ops = work.pass_ops(state)
        pass_s.append(run_pass(work, ops, tally, latencies))
        if tracer is not None:
            with tracer:
                traced_s.append(run_pass(work, ops, tally, traced_lat, obs))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    if tracer is None:
        lat_us = [ns / 1e3 for ns in latencies]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_p50_us": (percentile(lat_us, 50), "us"),
            "op_p99_us": (percentile(lat_us, 99), "us"),
        }
        record_metrics = dict(metrics, ops_per_s=(len(lat_us) / (sum(lat_us) / 1e6), "1/s"))
        samples = {"setup_s": len(setup_s), "peak_rss_mb": 1, "ops_per_s": len(lat_us),
                   "op_p50_us": len(lat_us), "op_p99_us": len(lat_us)}
    else:
        metrics = layer_metrics(tracer, mark, counts_before, obs, pass_s, traced_s,
                                len(traced_lat), build_s)
        record_metrics = metrics
        samples = {name: len(traced_lat) for name in metrics}
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()))

    record = {
        "context": context,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "metrics": {name: {"value": v, "unit": u, "samples": samples[name]}
                    for name, (v, u) in record_metrics.items()},
    }
    if tracer is None:
        record["design_names"] = {
            alias: {"value": record_metrics[name][0] * scale, "unit": unit,
                    "samples": samples[name], "metric": name}
            for alias, (name, scale, unit) in DESIGN_NAMES[args.workload].items()}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
