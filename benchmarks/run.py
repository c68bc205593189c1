"""sdohkit benchmark, run from the repository root.

    python3 benchmarks/run.py --workload fewshot-oracle --seed 31 --seconds 34 --trace 0

Without ``--workload`` it runs every workload in turn, each in its own process.

The benchmark imports sdohkit from ``src/`` next to this directory. It sets
the workload up repeatedly for about two seconds (``setup_s`` is the median),
then repeats timed passes of the workload for ``--seconds`` and reports the
median pass. All load comes from this one process and one caller thread, in
a closed loop. Every pass's outputs are checked; a failed check makes the run
incorrect.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time on untraced passes and half on passes with span-recording wrappers
installed, prints the per-layer metrics and the tracing overhead, and writes
the spans to ``.bench_work/traces/``. Human-readable lines come first; the
last line of standard output is one JSON object for tools.

Nothing here drops caches, pins CPUs or controls frequency, and every timer
reads only this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
# Set-ups are repeated for SETUP_SECONDS, at least SETUP_MIN times; setup_s is the median.
SETUP_SECONDS = 2.0
SETUP_MIN = 9


def _import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sdohkit", "__init__.py")):
        sys.exit(f"benchmark: no sdohkit sources under {src}; run from a repository checkout")
    sys.path.insert(0, src)
    import numpy
    import sdohkit

    return numpy.__version__, os.path.dirname(sdohkit.__file__)


def _git_sha() -> str:
    # The ceiling keeps git from taking the SHA of a repository around the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
        "cache_drop": "none",
        "cpu_pinning": "none",
        "frequency_control": "none",
        "timers": "time.perf_counter in this process only",
        "load": "one process, one caller thread, closed loop",
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """Set-ups and timed passes of one workload, with output checks."""

    def __init__(self, workload, seed: int, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.out_dir = os.path.join(run_dir, "out")
        os.makedirs(self.out_dir)
        self.problems: list[str] = []
        self.facts: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.pass_times: list[float] = []

    def setups(self, tracer=None):
        """Set the workload up repeatedly; return the last state."""
        state = None
        begin = time.perf_counter()
        k = 0
        while k < SETUP_MIN or time.perf_counter() - begin < SETUP_SECONDS:
            work_dir = os.path.join(self.run_dir, f"setup-{k}")
            os.makedirs(work_dir)
            if tracer is not None:
                tracer.trace_id = f"setup-{k}"
            t0 = time.perf_counter()
            state = self.workload.setup(self.seed, work_dir)
            self.setup_times.append(time.perf_counter() - t0)
            k += 1
        return state

    def passes(self, state, budget_s: float, min_passes: int, tracer=None,
               label="pass") -> list[tuple[float, object]]:
        """Timed passes until the next one would overrun the budget."""
        done: list[tuple[float, object]] = []
        begin = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.trace_id = f"{label}-{len(done)}"
            t0 = time.perf_counter()
            out = self.workload.run(state, self.out_dir)
            done.append((time.perf_counter() - t0, out))
            self.pass_times.append(done[-1][0])
            if tracer is not None:
                tracer.trace_id = "check"
            self._check(state, out)
            elapsed = time.perf_counter() - begin
            typical = statistics.median(t for t, _ in done)
            if len(done) >= min_passes and elapsed + typical > budget_s:
                return done

    def _check(self, state, out) -> None:
        self.attempted += out.docs
        self.failed += out.failed
        facts, problems = self.workload.verify(state, self.out_dir, out)
        self.problems.extend(problems)
        if self.facts is None:
            self.facts = facts
        elif facts != self.facts:
            changed = sorted(k for k in facts if facts[k] != self.facts.get(k))
            self.problems.append(f"outputs differ between passes: {', '.join(changed)}")


def end_to_end(workload, setup_times: list[float], passes) -> tuple[dict, list[str]]:
    walls = [t for t, _ in passes]
    q1, wall, q3 = quartiles(walls)
    docs = passes[0][1].docs
    ops = passes[0][1].ops
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_q1, setup_s, setup_q3 = quartiles(setup_times)
    metrics = {
        "wall_s": (wall, "s"),
        "docs_per_s": (docs / wall, "1/s"),
        "ops_per_s": (ops / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"wall_s           {wall:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)} passes)",
        f"docs_per_s       {docs / wall:.2f} 1/s  ({docs} docs per pass)",
        f"{workload.ops_name:<16} {ops / wall:.2f} 1/s  ({ops} per pass; reported as ops_per_s)",
        f"setup_s          {setup_s:.4f} s  (q1 {setup_q1:.4f}, q3 {setup_q3:.4f}, "
        f"n={len(setup_times)} set-ups)",
        f"peak_rss_mb      {rss_mb:.1f} MB",
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    numpy_version, library_dir = _import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers
    from workloads import WORKLOADS

    if args.workload == "all":
        # One process per workload, so that peak_rss_mb stays per workload.
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(numpy_version)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, "runs", f"{tag}-{os.getpid()}")
    run = Run(workload, args.seed, run_dir)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "library": library_dir}
    try:
        if args.trace == 0:
            state = run.setups()
            passes = run.passes(state, args.seconds, min_passes=2)
            metrics, lines = end_to_end(workload, run.setup_times, passes)
        else:
            trace_path = os.path.join(WORK, "traces", f"{workload.name}-seed{args.seed}.jsonl")
            metrics, lines = layers.traced_run(run, args.seconds, trace_path, record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    error_rate = run.failed / run.attempted
    lines.append(f"error_rate       {error_rate:g}  ({run.failed} failed of {run.attempted} docs)")
    for line in lines:
        print(line)
    correct = not run.problems
    print("check " + ("ok: " + json.dumps(run.facts, sort_keys=True) if correct
                      else "FAILED: " + "; ".join(sorted(set(run.problems)))))

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(result, facts=run.facts, problems=run.problems, report=lines,
                  pass_s=run.pass_times, setup_s=run.setup_times)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
