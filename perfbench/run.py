"""pmcat benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 5 --trace 0

Run from the root of a pmcat checkout; pmcat is imported from its
``src/`` directory.  Each call into pmcat starts after the previous one
returned.  With ``--trace 0`` the run prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it makes one untraced and one traced
pass and prints the per-layer metrics.  The last line of stdout is one
JSON object.  ``--workload all`` runs every workload in its own process
and prints one table.  End-to-end times are scaled to a reference host
speed, measured by a probe that runs throughout (see ``clock.py``); the
unscaled times are printed too.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from clock import CallTimeout, Clock
from spans import LAYERS, Tracer, layer_value
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set-up repetitions per run; set-up time is their median
SETUP_REPS = {"certify": 25, "homology": 2, "corpus": 3}

# per-call time cap; a call over it counts as failed
CALL_CAP_S = {"certify": 60.0, "homology": 60.0, "corpus": 5.0}

# Passes per run at least, whatever --seconds allows.  Each call of
# certify and homology takes 0.1 to 7 s and is timed once per pass; with
# one pass, the time of the slowest certify call spread by 9.5% over ten
# runs, and a run's latency percentiles take each call's median over its
# passes.  Two passes of each keep all runs within the time the benchmark
# is given.
MIN_PASSES = {"certify": 2, "homology": 2, "corpus": 1}

# Workloads of a few large calls collect garbage at the end of each
# call, inside its timing, so that the cycles a call leaves behind are
# charged to that call and not collected inside the next.  The corpus
# makes thousands of small calls, whose garbage is collected in the
# course of the pass.
COLLECT_AFTER_CALL = {"certify", "homology"}

# the modules a set-up imports; reloading them all is part of set-up time
PMCAT_MODULES = ("pmcat._util", "pmcat.fincat", "pmcat.relcat", "pmcat.pmc",
                 "pmcat.smith", "pmcat.sset", "pmcat.hammock", "pmcat.segal",
                 "pmcat.yoneda", "pmcat.document", "pmcat.fixtures", "pmcat.cli")


def fresh_pmcat():
    """Import pmcat from the checkout, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "pmcat" or m.startswith("pmcat.")]:
        del sys.modules[name]
    pm = importlib.import_module("pmcat")
    for name in PMCAT_MODULES:
        importlib.import_module(name)
    return pm


def scratch_dir(workload):
    """A directory under ``out/`` for a run's input files, removed at the
    end; every set-up of the run writes its files there."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT)


def setup(workload, seed, workdir, clock, tracer=None):
    """(calls, (start, end)) for one set-up, with the clock's marks.

    The input files are written after the clock stops.  Writing the
    corpus's 1,400 small files on a 2-core VM's ext4 disk took from 0.1
    to 0.8 s, mostly waiting on the disk rather than running pmcat, and
    moved the median set-up time of ten runs by 35% from one set of runs
    to the next."""
    start = clock.mark()
    pm = fresh_pmcat()
    if tracer is not None:
        tracer.install(pm)
    counts = tracer.add_count if tracer is not None else None
    calls, files = WORKLOADS[workload](pm, seed, workdir, counts)
    end = clock.mark()
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8")
    return calls, (start, end)


def run_pass(calls, clock, cap_s, collect, tracer=None):
    """Run every call once, in order.  Returns (latencies, unscaled
    latencies, failed calls, problems): each call's seconds at the
    reference speed and as measured, less the clock's probes (see
    ``clock``), and the failures.  A call fails when it raises, runs
    over the cap or gives a wrong answer; each problem is a (label,
    text) pair."""
    marks, failures, failed = [], [], 0
    begin = clock.mark()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i + 1
        start = clock.mark()
        clock.deadline = start[0] + cap_s
        try:
            output = call.run()
            if collect:
                gc.collect()
        except CallTimeout:
            failures.append((call.label, f"over the {cap_s} s cap"))
            failed += 1
            continue
        except Exception as e:
            failures.append((call.label, f"raised {e!r}"))
            failed += 1
            continue
        finally:
            clock.deadline = None
            marks.append((start, clock.mark()))
        if tracer is not None:
            tracer.call_id = 0
        try:
            problems = call.check(output)
        except Exception as e:
            problems = [f"check raised {e!r}"]
        failures.extend((call.label, p) for p in problems)
        failed += bool(problems)
    if tracer is not None:
        tracer.call_id = 0
    end = clock.mark()
    return ([clock.scaled(a, b, begin, end) for a, b in marks],
            [clock.net(a, b) for a, b in marks], failed, failures)


def percentiles(values):
    """p50 and p99, interpolated between values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]


def report_failures(failures):
    for label, problem in failures[:20]:
        sys.stderr.write(f"FAILED {label}: {problem}\n")
    if len(failures) > 20:
        sys.stderr.write(f"... {len(failures) - 20} more failures\n")


def measure(workload, seed, seconds, clock):
    """End-to-end metrics with tracing off, in seconds at the reference
    host speed (see ``clock``)."""
    setup_times = []
    with scratch_dir(workload) as workdir:
        begin = clock.mark()
        for _ in range(SETUP_REPS[workload]):
            calls = None
            gc.collect()
            calls, marks = setup(workload, seed, workdir, clock)
            setup_times.append(marks)
        end = clock.mark()
        raw_setup = statistics.median(clock.net(a, b) for a, b in setup_times)
        setup_times = [clock.scaled(a, b, begin, end) for a, b in setup_times]
        pass_times, raw_times, failures, failed_calls = [], [], [], 0
        per_call = [[] for _ in calls]
        deadline = time.perf_counter() + seconds
        while len(pass_times) < MIN_PASSES[workload] or time.perf_counter() < deadline:
            gc.collect()
            lat, raw, failed, problems = run_pass(calls, clock, CALL_CAP_S[workload],
                                                  workload in COLLECT_AFTER_CALL)
            if not pass_times:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw_times.append(sum(raw))
            pass_times.append(sum(lat))
            for samples, latency in zip(per_call, lat):
                samples.append(latency)
            failed_calls += failed
            failures.extend(problems)
    attempted = len(calls) * len(pass_times)
    report_failures(failures)
    p50, p99 = percentiles([statistics.median(v) for v in per_call])
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(pass_times),
        "peak_rss_mb": peak_mb,
        "ok_ratio": (attempted - failed_calls) / attempted,
        "call_p50_ms": 1e3 * p50,
        "call_p99_ms": 1e3 * p99,
    }
    print(f"{workload}: seed {seed}, {len(pass_times)} passes of {len(calls)} calls "
          f"(latency percentiles over {len(calls)} per-call medians), "
          f"{len(setup_times)} set-ups")
    print(f"{workload}: unscaled setup_s {raw_setup:.6g} s; pass times "
          f"{', '.join(f'{t:.6g}' for t in pass_times)} s, unscaled "
          f"{', '.join(f'{t:.6g}' for t in raw_times)} s")
    print(f"{workload}: failed_ratio {failed_calls / attempted:.6f} "
          f"({failed_calls} of {attempted} calls)")
    return values, attempted, failed_calls


def measure_layers(workload, seed, names, clock):
    """Per-layer metrics ``names``, in wall seconds (``clock`` does not
    probe here): one untraced pass, then a fresh set-up and pass with
    every layer function wrapped.  Spans are written to ``out/``."""
    cap, collect = CALL_CAP_S[workload], workload in COLLECT_AFTER_CALL
    tracer = Tracer()
    with scratch_dir(workload) as workdir:
        calls, _ = setup(workload, seed, workdir, clock)
        gc.collect()
        untraced, _, failed_untraced, problems = run_pass(calls, clock, cap, collect)
        calls = None
        gc.collect()
        calls, (start, end) = setup(workload, seed, workdir, clock, tracer)
        setup_s = clock.net(start, end)
        try:
            gc.collect()
            traced, _, failed_traced, traced_problems = run_pass(calls, clock, cap, collect,
                                                                 tracer)
        finally:
            tracer.uninstall()
    report_failures(problems + traced_problems)
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write(spans_path)

    run_s, untraced_s = sum(traced), sum(untraced)
    values = {
        "trace.setup_s": setup_s,
        "trace.run_s": run_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": run_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }
    totals = tracer.totals()
    for name in names:
        if name not in values:
            values[name] = layer_value(tracer, totals, name)
    print(f"{workload}: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    groups = {module: [n for n in tracer.names if n.startswith(module + ".")]
              for module in LAYERS}
    groups["segal+sset.rezk_nerve"] = groups["segal"] + ["sset.rezk_nerve"]
    for group, members in groups.items():
        share = tracer.outermost_seconds(members, calls_only=True) / run_s
        print(f"{workload}: share of traced pass inside {group}: {share:.3f}")
    return values, 2 * len(calls), failed_untraced + failed_traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pmcat" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no pmcat sources under {SRC}; run from a pmcat checkout\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(names, args)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    sys.path.insert(0, str(SRC))

    clock = Clock(probing=not args.trace)
    try:
        if args.trace:
            values, attempted, failed = measure_layers(
                args.workload, args.seed, [m["name"] for m in spec["per_layer"]], clock)
            metrics = spec["per_layer"]
        else:
            values, attempted, failed = measure(args.workload, args.seed, args.seconds, clock)
            metrics = spec["end_to_end"]
    finally:
        clock.close()
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for name, m in result.items():
        print(f"{args.workload}: {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 1 if failed else 0


def run_all(names, args):
    """Every workload in its own process, so peak memory is its own."""
    ok = True
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
