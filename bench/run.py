"""Benchmark for splicefan, run from the root of a source checkout.

    python3 bench/run.py --workload member|ladder|cli --seed N --seconds S --trace 0|1

One client sends one operation at a time (closed loop). The run sets up its
inputs from the seed, then runs whole rounds of operations until at least S
seconds of operation time and at least 100 operations have passed, then
checks every distinct answer with checks.py. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics. With
--trace 0 these are the end-to-end metrics, their times scaled to a
reference speed of the machine sampled while they run (speed.py); with
--trace 1 splicefan's public functions are wrapped in spans and the
per-layer metrics are reported, for one set-up plus one round (loop totals divided by rounds).
Result and span files go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3   # set-up runs per untraced run; their median goes into setup_s
IMPORT_REPEATS = 7  # child processes timing the import; their median goes into setup_s
MIN_OPS = 100       # so that ten samples lie beyond op_ms_p90
PROFILE_REPEATS = 3

# Layers and the public functions wrapped in the traced run.
LAYERS = {
    "diagram": ("random_diagram", "check_conditions", "semigroup_decompose"),
    "system": ("build_system", "check_hamm", "node_certificate_combination"),
    "exact": ("rref", "nullspace_one", "smith_normal_form"),
    "fan": ("splice_fan", "locate", "certificate_search", "membership", "check_balancing"),
    "endcurve": ("end_curve_system", "binomial_reduce", "solve_binomial_torus",
                 "parameterize", "verify_parameterization"),
    "recover": ("recover", "roundtrip"),
    "cli": ("main",),
}
EXTRA_COUNTS = ("endcurve.parameterize.failed", "endcurve.solve_binomial_torus.numeric",
                "fan.certificate_search.found")
PROFILE_METRICS = ("cli.import_ms", "cli.import_numpy_ms", "cli.interpreter_ms")


def layer_groups():
    groups = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return groups + ["documents"]


def span_group(name):
    return "documents" if name.startswith("documents.") else name


def install_tracer(tracer):
    import inspect

    import splicefan.documents

    def found(counts, result):
        if result is not None:
            counts["fan.certificate_search.found"] += 1

    def numeric(counts, result):
        if not result[1]:
            counts["endcurve.solve_binomial_torus.numeric"] += 1

    hooks = {
        "fan.certificate_search": {"on_result": found},
        "endcurve.solve_binomial_torus": {"on_result": numeric},
        "endcurve.parameterize": {"on_error": "endcurve.parameterize.failed"},
    }
    for mod, fns in LAYERS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            tracer.install(f"splicefan.{mod}", fn, name, **hooks.get(name, {}))
    docs = splicefan.documents
    for fn, value in list(vars(docs).items()):
        if (inspect.isfunction(value) and value.__module__ == docs.__name__
                and not fn.startswith("_")):
            tracer.install(docs.__name__, fn, f"documents.{fn}")


def import_profile():
    """Median import times of splicefan.cli and numpy (python -X importtime)
    and the wall time of an empty interpreter, over child processes."""
    import workloads

    env = workloads.child_env(ROOT)
    imports, numpy, interp = [], [], []
    for _ in range(PROFILE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import splicefan.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        total, numpy_us = 0, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            top = name[1:] if name.startswith(" ") else name
            if not top.startswith(" ") and top.startswith("splicefan"):
                total += int(cumulative)
            if name.strip() == "numpy" and not numpy_us:
                numpy_us = int(cumulative)
        imports.append(total / 1000)
        numpy.append(numpy_us / 1000)
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interp.append(1000 * (perf_counter() - t))
    return dict(zip(PROFILE_METRICS, map(statistics.median, (imports, numpy, interp))))


def import_seconds(pace):
    """Times to import splicefan and splicefan.cli, each timed inside a
    fresh interpreter (after this process's own import compiled them), each
    interpreter run through ``pace``."""
    import workloads

    env = workloads.child_env(ROOT)
    code = ("import time; t = time.perf_counter(); import splicefan, splicefan.cli; "
            "print(time.perf_counter() - t)")
    return [float(pace.call(subprocess.run, [sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, check=True).stdout)
            for _ in range(IMPORT_REPEATS)]


def run_rounds(workload, seconds, pace=None):
    """Whole rounds until enough operation time and operations have passed.

    Only the call is timed, through ``pace`` (a speed.Pace) when given.
    Each answer is reduced to plain data and counted; the distinct answers
    are checked after the loop.
    """
    from workloads import Raised

    call = pace.call if pace else (lambda fn: fn())
    ops = workload.ops
    min_rounds = -(-MIN_OPS // len(ops))
    times, seen = [], Counter()
    rounds, busy = 0, 0.0
    while rounds < min_rounds or busy < seconds:
        for i, op in enumerate(ops):
            start = perf_counter()
            try:
                result = call(op)
            except Exception as exc:  # a raising operation is counted as failed
                result = Raised(exc)
            elapsed = perf_counter() - start
            times.append(elapsed)
            busy += elapsed
            seen[(i, workload.plain(result))] += 1
            del result
        rounds += 1
    return times, busy, rounds, seen


def timing_metrics(setup_s, times):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_ms_p50": {"value": 1000 * statistics.median(times), "unit": "ms"},
        "op_ms_p90": {"value": 1000 * statistics.quantiles(times, n=10)[-1], "unit": "ms"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("member", "ladder", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "splicefan", "__init__.py")):
        print(f"bench: no splicefan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import splicefan
    import splicefan.cli  # noqa: F401  (the cli workload runs it in-process when traced)
    if not os.path.abspath(splicefan.__file__).startswith(SRC + os.sep):
        print(f"bench: splicefan was imported from {splicefan.__file__}", file=sys.stderr)
        return 2

    import spans
    import speed
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tracer = None
    wrap = lambda op: op  # noqa: E731
    if args.trace:
        tracer = spans.Tracer()
        install_tracer(tracer)
        wrap = lambda op: tracer.wrap("op", op)  # noqa: E731

    if args.trace:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(splicefan, args.seed, wrap, OUT, True, workloads.untimed)
        setup_spans, setup_counts = tracer.take()
        times, busy, rounds, seen = run_rounds(workload, args.seconds)
    else:
        children = args.workload == "cli"   # its operations are child processes
        with speed.Pace(children) as setup_pace:
            marks = []   # the calls of each set-up
            for _ in range(SETUP_REPEATS):
                workload = None
                gc.collect()   # drop the previous set-up's inputs before building again
                workload = workloads.WORKLOADS[args.workload]()
                first = len(setup_pace.marks)
                workload.setup(splicefan, args.seed, wrap, OUT, False, setup_pace.call)
                marks.append((first, len(setup_pace.marks)))
        with speed.Pace(children=True) as import_pace:
            imports = import_seconds(import_pace)
        with speed.Pace(children) as loop_pace:
            times, busy, rounds, seen = run_rounds(workload, args.seconds, loop_pace)
        # (wall-clock s, s at the reference speed) of each set-up and import
        wall, ref = [t for t, _ in setup_pace.speeds()], setup_pace.scaled()
        builds = [(sum(wall[a:b]), sum(ref[a:b])) for a, b in marks]
        imports = [(t, t * speed.REF_CHILD_S / u)
                   for t, (_, u) in zip(imports, import_pace.speeds())]
    # peak memory of the program's work, before the checks add their own
    if args.workload == "cli" and not args.trace:   # the largest command process
        peak_rss_mb = max(workload.peaks) / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        loop_spans, loop_counts = tracer.take()
        tracer.uninstall()

    tally, problems = Counter(), Counter()
    for (i, answer), count in seen.items():
        status, detail = workload.check(i, answer)
        tally[status] += count
        if status != "ok":
            problems[f"{status}: {detail}"] += count
    attempted = len(times)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    if tracer:
        setup_tot = spans.totals(setup_spans, span_group)
        loop_tot = spans.totals(loop_spans, span_group)
        metrics = {}
        for group in layer_groups():
            for field, unit in (("calls", "count"), ("ms", "ms"), ("self_ms", "ms")):
                value = (setup_tot.get(group, {}).get(field, 0)
                         + loop_tot.get(group, {}).get(field, 0) / rounds)
                metrics[f"{group}.{field}"] = {"value": value, "unit": unit}
        for name in EXTRA_COUNTS:
            metrics[name] = {"value": setup_counts[name] + loop_counts[name] / rounds,
                             "unit": "count"}
        for name, value in import_profile().items():
            metrics[name] = {"value": value, "unit": "ms"}
        spans.write_jsonl(os.path.join(OUT, f"trace-{tag}.jsonl"),
                          [("setup", setup_spans), ("loop", loop_spans)])
    else:
        def setup_s(k):   # k = 0: wall-clock time, 1: at the reference speed
            return (statistics.median(t[k] for t in imports)
                    + statistics.median(b[k] for b in builds))

        metrics = timing_metrics(setup_s(1), loop_pace.scaled())
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        # the same figures in wall-clock time (less the samples), for reference
        wall = timing_metrics(setup_s(0), [t for t, _ in loop_pace.speeds()])
        wall["unit_ms"] = {"setup": 1000 * setup_pace.mean_unit_s(),
                           "import": 1000 * import_pace.mean_unit_s(),
                           "loop": 1000 * loop_pace.mean_unit_s()}

    result = {"correct": tally["wrong"] == 0, "attempted": attempted,
              "failed": tally["failed"], "metrics": metrics}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "round_size": len(workload.ops), "busy_s": busy,
        "setup_builds_s": None if args.trace else builds,
        "import_s": None if args.trace else imports,
        "wall_clock": None if args.trace else wall, "problems": dict(problems),
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "summary": summary}, fh, indent=1)
    print(f"bench {tag}: {rounds} rounds of {len(workload.ops)}, {attempted} ops, "
          f"{tally['failed']} failed, {tally['wrong']} wrong, "
          f"{attempted / busy:.2f} ops/s", file=sys.stderr)
    for text, count in sorted(problems.items()):
        print(f"  x{count} {text}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
