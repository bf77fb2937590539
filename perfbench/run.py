"""seqpred benchmark: four workloads over the paper's verification routes.

Run one workload in this process, from the root of a checkout:

    python3 perfbench/run.py --workload exact-tree --seed 1 --seconds 30 --trace 0

or all four, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Inputs come from --seed alone (see generate.py).  A run repeats the
workload's items in passes while another pass fits in --seconds (at
least two passes), checks every item's output, and requires every pass
to produce the same output digests.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics with nothing installed:
  setup_s      median over SETUP_PROBES fresh processes of importing
               seqpred and building the workload's measures, classes
               and specs
  wall_s       median wall time of one pass over all items
  cpu_s        median user + system CPU time of one pass, all threads
  peak_rss_mb  peak resident memory of this process
--trace 1 runs two untraced passes, then installs the per-module
wrappers (layers.py) and reports the per-module metrics of a traced
pass, with trace.overhead = median traced wall time / untraced wall
time; work counts must repeat exactly between traced passes.  The
untraced passes count against --seconds.

Provenance (seed, nproc, Python, numpy, git rev, src/ line count) and the
output digests are printed on the lines just before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
MIN_PASSES = 2
CHILD_TIMEOUT_S = 900
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=generate.WORKLOADS + ("all",),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up in this process and print it (used by "
             "the set-up probes)",
    )
    return parser.parse_args(argv)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def import_workloads():
    """Import seqpred from this checkout's src/ and the workload code."""
    sys.path.insert(0, str(SRC))
    import seqpred

    if Path(seqpred.__file__).resolve().parent != SRC / "seqpred":
        raise SystemExit(f"seqpred was imported from {seqpred.__file__}")
    import workloads

    return workloads


def set_up(name, inputs):
    start = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.build(name, inputs, nproc())
    return workloads, workload, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter; input generation excluded."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def run_passes(workloads, workload, deadline, after_each):
    """Passes while another one ends before deadline; at least MIN_PASSES.

    deadline is a time.perf_counter() value.  A pass that would end past
    it is not started, so a run lasts --seconds, not up to one pass more.
    """
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(workloads.run_pass(workload))
        after_each()
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - began) > deadline:
            return passes


def untraced(args, inputs):
    workloads, workload, _ = set_up(args.workload, inputs)
    workload.prepare_references()
    # Set-up probes run between passes, one per SETUP_PROBES-th of the
    # run, so their median spans the same stretch of machine load as the
    # passes do.
    setup = []
    start = time.perf_counter()

    def probe():
        due = (time.perf_counter() - start) * SETUP_PROBES / args.seconds
        if len(setup) < due:
            setup.append(probe_setup(args))

    passes = run_passes(workloads, workload, start + args.seconds, probe)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak,
    }
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }
    return passes, metrics, []


def traced(args, inputs):
    # The untraced baseline passes count against --seconds too.
    deadline = time.perf_counter() + args.seconds
    workloads, workload, _ = set_up(args.workload, inputs)
    workload.prepare_references()
    # The first pass of a process pays for cold memory; compare warm ones.
    untraced_passes = [workloads.run_pass(workload) for _ in range(MIN_PASSES)]
    baseline = untraced_passes[-1]

    import layers
    import tracer as tracing

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        # Build again under the wrappers so config.busy_s sees set-up.
        workload = workloads.build(args.workload, inputs, nproc())
        workload.prepare_references()
        tracer.reset(keep=("config",))
        snapshots = []

        def snapshot():
            snapshots.append(layers.metrics(tracer, 0.0))
            tracer.reset(keep=("config",))

        passes = run_passes(workloads, workload, deadline, snapshot)
    finally:
        tracer.uninstall()
    metrics = snapshots[-1]
    metrics["trace.overhead"]["value"] = (
        statistics.median(p.wall_s for p in passes) / baseline.wall_s
    )
    problems = []
    for name in layers.EXACT_COUNTS:
        seen = {s[name]["value"] for s in snapshots}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {seen}")
    if passes[0].digests() != baseline.digests():
        problems.append("traced outputs differ from untraced outputs")
    return untraced_passes + passes, metrics, problems


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, passes) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "src_lines": sum(
            len(path.read_text().splitlines())
            for path in sorted(SRC.rglob("*.py"))
        ),
    }


def run_one(args) -> int:
    inputs = generate.generate(args.workload, args.seed)
    if args.setup_only:
        _, _, seconds = set_up(args.workload, inputs)
        print(json.dumps({"setup_s": seconds}))
        return 0
    passes, metrics, problems = (traced if args.trace else untraced)(
        args, inputs
    )
    reference = passes[0].digests()
    if any(p.digests() != reference for p in passes[1:]):
        problems.append("output digests differ between passes")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems and not any(p.unexpected for p in passes)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes of {passes[0].attempted} items")
    for line in problems:
        print(f"  {line}")
    for outcome in passes[0].outcomes:
        if outcome.failed:
            label = "expected failure" if outcome.expected else "FAILED"
            print(f"  {label} {outcome.item}: {'; '.join(outcome.problems)}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print("  pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("digests " + json.dumps(reference, sort_keys=True))
    print("provenance " + json.dumps(provenance(args, passes), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metric names get a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in generate.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
            rows.append((name, metric, body["value"], body["unit"]))
        rows.append((name, "failed_frac",
                     result["failed"] / result["attempted"], "ratio"))
    print(f"{'workload':<14} {'metric':<48} {'value':>14} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<48} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqpred" / "__init__.py").is_file():
        print(f"error: no seqpred package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
