"""Benchmark for the dfao CLI: seeded workloads in a closed loop.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload analyze-random --seed 1 --seconds 10 --trace 0

One client in one process and one thread sends the next op only when the
previous one has returned.  Each op is an in-process `dfao.cli.main([...])`
call with stdout and stderr captured, so it measures what a user runs.
After the timed phase every op's stdout is checked against the digest
recorded from the seed commit (`pool.json`) and against the independent
checks in `checks.py`.

Every reported time is scaled to a reference host speed by the probe
interleaved with the ops (see `probe.py`), because the shared host's own
speed drifts by more than the bounds over minutes; the unscaled
wall-clock figures are printed above the result line.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced replay of a fixed number of ops (see `tracing.py`).  Metric
definitions are in BENCHMARK.json and in `end_to_end` / `per_layer` below.
"""

from __future__ import annotations

import os

# One thread for numpy and BLAS, set before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACE_DIR = "perfbench/.trace"
IMPORT_PROBE = "import time; t = time.perf_counter(); import dfao.cli; print(time.perf_counter() - t)"


@dataclass
class Result:
    op: workloads.Op
    started: float
    seconds: float
    code: int | None
    digest: str
    stdout: str | None  # None once an identical output has been kept
    error: str | None = None


def run_op(main, op, tracer=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        span = tracer.begin(tracing.OP_SPAN) if tracer else None
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = None, repr(exc)
        if tracer:
            tracer.end(span)
        seconds = time.perf_counter() - start
    text = out.getvalue()
    return Result(op, start, seconds, code, checks.digest(op, text), text, error)


def fresh_import_seconds() -> float:
    """Import time of dfao.cli in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def set_up(workload, main) -> tuple[dict, tuple[float, float, float]]:
    """Import, write every input file, run one warm-up op.

    Returns the input machines and the seconds spent importing (in a
    fresh interpreter), making inputs, and in total.
    """
    import_s = fresh_import_seconds()
    start = time.perf_counter()
    members = workload.members()
    work = ROOT / workloads.WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for key, machine in members.items():
        (ROOT / workload.path(key)).write_text(workloads.aut_text(machine))
    inputs_s = time.perf_counter() - start
    run_op(main, workload.warm_op(members))
    return members, (import_s, inputs_s, import_s + time.perf_counter() - start)


class Checker:
    """Judges results; memoizes the checks per input and output digest."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts: dict[tuple, tuple[list[str], bool]] = {}

    def judge(self, result: Result) -> tuple[list[str], bool]:
        """Problems with one result, and whether its oracle was skipped."""
        op = result.op
        if result.error is not None or result.code != 0:
            return [f"{op.key}: exit {result.code} {result.error or ''}".rstrip()], False
        memo = (op.key, result.digest)
        if memo not in self.verdicts:
            problems = []
            if result.digest != self.workload.digest(op.key):
                problems.append(f"{op.key}: stdout differs from the recorded output")
            skipped = False
            if result.stdout is not None:
                found, skipped = checks.check(op, result.stdout)
                problems += found
            self.verdicts[memo] = (problems, skipped)
        return self.verdicts[memo]


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, workload, main, members, setups, speed) -> tuple[dict, int, int, bool]:
    blocks = workload.blocks(members)
    results: list[Result] = []
    kept: set[tuple[str, str]] = set()
    start = time.perf_counter()
    while not results or time.perf_counter() - start < args.seconds:
        for op in next(blocks):
            speed.sample()
            result = run_op(main, op)
            # Keep one copy of each distinct output, so the benchmark's
            # own memory does not grow with the number of ops run.
            if (op.key, result.digest) in kept:
                result.stdout = None
            kept.add((op.key, result.digest))
            results.append(result)
    speed.sample()
    wall = time.perf_counter() - start

    checker = Checker(workload)
    failed = skipped = 0
    problems: list[str] = []
    for result in results:
        found, was_skipped = checker.judge(result)
        problems += found
        failed += bool(found)
        skipped += was_skipped and not found
    attempted = len(results)
    ok = attempted - failed - skipped
    wall_ms = [r.seconds * 1000 for r in results]
    latencies = [ms * speed.scale(r.started) for ms, r in zip(wall_ms, results)]
    print("set-up runs, scaled (import, inputs, total s): " + "; ".join(f"{i:.3f} {n:.3f} {t:.3f}" for i, n, t in setups))
    print(f"{workload.name} seed {args.seed}: {wall:.2f} s timed, "
          f"{attempted} op latencies sampled ({attempted // 10} beyond p90), "
          f"{failed} failed, {skipped} oracle verifications skipped")
    print(f"unscaled: {ok / wall:.2f} checked ops/s of wall time, p50 {quantile(wall_ms, 50):.2f} ms, "
          f"p90 {quantile(wall_ms, 90):.2f} ms; probe median {speed.median_ms():.3f} ms over "
          f"{len(speed.seconds)} runs (reference {probe.PROBE_MS} ms)")
    for line in problems[:20]:
        print("problem:", line)
    metrics = {
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "ops_per_s": (ok / (sum(latencies) / 1000), "1/s"),
        "op_p50_ms": (quantile(latencies, 50), "ms"),
        "op_p90_ms": (quantile(latencies, 90), "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed, not problems


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def count_problems(result: Result, counts) -> list[str]:
    """Traced counts that disagree with what the CLI op printed."""
    op = result.op
    if op.machine is None:
        return []
    obj = json.loads(result.stdout)
    expected = {
        "minimize.states_out": obj["minimized_states"],
        "opacity.witness_len": len(checks.witness_word(obj)),
        "opacity.inhomogeneous_states": len(obj["inhomogeneous_states"]),
        "automaton.pruned_states": len(op.machine.trans) - obj["states"],
    }
    return [f"{op.key}: traced {name}" for name, value in expected.items() if counts[name] != value]


def per_layer(args, workload, main, members, setups) -> tuple[dict, int, int, bool]:
    ops = list(itertools.islice(itertools.chain.from_iterable(workload.blocks(members)), workload.trace_ops))
    tracer = tracing.Tracer()
    plain: list[Result] = []
    traced: list[Result] = []
    missing: list[str] = []
    # Alternate which pass runs first so neither gets the warmer caches.
    for i, op in enumerate(ops):
        tracer.op = i
        for traced_pass in (i % 2 == 1, i % 2 == 0):
            if traced_pass:
                with tracing.traced(tracer) as missing:
                    traced.append(run_op(main, op, tracer))
            else:
                plain.append(run_op(main, op))

    checker = Checker(workload)
    problems: list[str] = [f"layer not found: {name}" for name in missing]
    failed = 0
    for i, (p, t) in enumerate(zip(plain, traced)):
        found_plain = checker.judge(p)[0]
        found_traced = list(checker.judge(t)[0]) or count_problems(t, tracer.counts[i])
        if p.digest != t.digest:
            found_traced.append(f"{p.op.key}: traced output differs from the CLI op")
        problems += found_plain + found_traced
        failed += bool(found_plain) + bool(found_traced)
    for line in problems[:20]:
        print("problem:", line)

    self_s, per_op = tracer.layer_times()
    counts = sum(tracer.counts.values(), start=Counter())
    op_span = sum(r.seconds for r in traced)

    def ms(name):
        return self_s.get(name, 0.0) * 1000

    def share(name):
        return self_s.get(name, 0.0) / op_span

    def slope(name):
        return loglog_slope(
            [(len(op.machine.trans), per_op[(i, name)]) for i, op in enumerate(ops)
             if op.machine is not None and not op.oracle and (i, name) in per_op]
        )

    sweep_s, generate_s = self_s.get("oracle.sweep", 0.0), self_s.get("automaton.generate", 0.0)
    metrics = {
        "opacity.witness_ms": (ms("opacity.witness"), "ms"),
        "opacity.witness_share": (share("opacity.witness"), "ratio"),
        "opacity.witness_len": (counts["opacity.witness_len"], "count"),
        "opacity.inhomogeneous_states": (counts["opacity.inhomogeneous_states"], "count"),
        "opacity.witness_ms_slope": (slope("opacity.witness"), "loglog"),
        "opacity.homogeneity_ms": (ms("opacity.homogeneity"), "ms"),
        "automaton.accessible_ms": (ms("automaton.accessible"), "ms"),
        "minimize.moore_ms": (ms("minimize.moore"), "ms"),
        "minimize.moore_share": (share("minimize.moore"), "ratio"),
        "minimize.moore_blocks": (counts["minimize.moore_blocks"], "count"),
        "minimize.moore_ms_slope": (slope("minimize.moore"), "loglog"),
        "minimize.quotient_canon_ms": (ms("minimize.quotient_canon"), "ms"),
        "minimize.states_out": (counts["minimize.states_out"], "count"),
        "autfile.parse_raw_ms": (ms("autfile.parse_raw"), "ms"),
        "automaton.validate_ms": (ms("automaton.validate"), "ms"),
        "automaton.pruned_states": (counts["automaton.pruned_states"], "count"),
        "automaton.normalize_zero_ms": (ms("automaton.normalize_zero"), "ms"),
        "oracle.sweep_ms": (ms("oracle.sweep"), "ms"),
        "oracle.sweep_share": (share("oracle.sweep"), "ratio"),
        "oracle.lengths_swept": (counts["oracle.lengths_swept"], "count"),
        "oracle.words_swept": (counts["oracle.words_swept"], "count"),
        "oracle.relabelings": (counts["oracle.relabelings"], "count"),
        "oracle.cells_per_s": (counts["oracle.cells"] / sweep_s if sweep_s else 0.0, "1/s"),
        "oracle.skipped": (counts["oracle.skipped"], "count"),
        "corpus.evaluate_all_ms": (ms("corpus.evaluate_all"), "ms"),
        "automaton.generate_ms": (ms("automaton.generate"), "ms"),
        "automaton.terms_per_s": (counts["automaton.terms"] / generate_s if generate_s else 0.0, "1/s"),
        "cli.self_ms": (ms(tracing.OP_SPAN), "ms"),
        "setup.import_ms": (statistics.median(s[0] for s in setups) * 1000, "ms"),
        "setup.inputs_ms": (statistics.median(s[1] for s in setups) * 1000, "ms"),
        "trace.coverage": (tracer.coverage(), "ratio"),
        "trace.overhead": (op_span / sum(r.seconds for r in plain), "ratio"),
    }
    span_file = ROOT / TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
    tracer.dump(span_file, [op.key for op in ops])
    shares = sorted(((v, k) for k, v in self_s.items()), reverse=True)
    print(f"{workload.name} seed {args.seed}: traced {len(ops)} ops, spans in {span_file.relative_to(ROOT)}; "
          "self-time shares: " + ", ".join(f"{k} {v / op_span:.3f}" for v, k in shares))
    return metrics, 2 * len(ops), failed, not problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One core for the benchmark and for the import probe it starts, so
    # that the speed probe measures the core all timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from dfao.cli import main as cli_main

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_pool())
    speed = probe.Probe()
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        for _ in range(probe.AFTER):
            speed.sample()
        started = time.perf_counter()
        members, times = set_up(workload, cli_main)
        raw_setups.append((started, times))
    for _ in range(probe.AFTER):
        speed.sample()
    setups = [tuple(t * speed.scale(started) for t in times) for started, times in raw_setups]
    # Keep the benchmark's own objects out of the collector's way, as in a
    # fresh `dfao` process.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            metrics, attempted, failed, correct = per_layer(args, workload, cli_main, members, setups)
        else:
            metrics, attempted, failed, correct = end_to_end(args, workload, cli_main, members, setups, speed)
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "dfao" / "cli.py").is_file():
        print(f"error: no dfao sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
