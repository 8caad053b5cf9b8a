"""Benchmark entry point.

    python3 perfbench/run.py --workload score --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; the package is imported from ``src/``.  One
run prepares the seed's inputs (cached under ``.perfbench/``, untimed),
sets the workload up several times, then runs operations in a closed loop
with one client for ``--seconds`` (rounded up to whole schedule blocks).
Every timed number is normalized by the reference kernel in
``refclock.py``; the raw numbers and the kernel rate are printed above the
result.  The last line of standard output is the JSON result: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

The traced run sets up once under the tracer, runs half the time untraced,
then replays the same operations traced; it reports per-layer spans, the
throughput ratio of the two halves, and checks that both halves produced
the same output digests.  ``--workload all`` runs each workload in a child
process and prints every end-to-end metric as ``<workload>/<metric>``.
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
import time
import traceback
from pathlib import Path

# One thread, as the workloads are defined: numpy's BLAS would otherwise
# start a thread per core, and on a small shared machine a second thread
# that loses its core stalls every matrix-vector product, which the
# single-threaded reference kernel cannot see.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"
# Set-up repeats at least SETUP_REPS times and until it has taken
# SETUP_SECONDS in all, so a cheap set-up is timed over many repeats.
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 25
MIN_OPS = 2  # enough for a latency spread even when one operation is long


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Phase:
    """Operations of one timed loop: intervals, outcomes and digests."""

    def __init__(self) -> None:
        self.args: list = []
        self.intervals: list[tuple[float, float]] = []
        self.ok: list[bool] = []
        self.digests: list[bytes] = []
        self.errors: list[str] = []
        self.seconds = self.kernel_seconds = 0.0  # wall and kernel time of the loop

    def stats(self, clock) -> dict[str, float]:
        times = clock.normalize(self.intervals)
        good = sum(self.ok)
        raw = [r for r, _ in times]
        norm = [n for _, n in times]
        return {
            "ops": len(times), "good": good,
            "throughput": good / sum(norm), "throughput_raw": good / sum(raw),
            "p50": quantile(norm, 50) * 1e3, "p90": quantile(norm, 90) * 1e3,
            "p50_raw": quantile(raw, 50) * 1e3, "p90_raw": quantile(raw, 90) * 1e3,
        }


def run_loop(workload, res, clock, seconds: float, args_source,
             on_start=lambda: None) -> Phase:
    """Closed loop: the next operation starts when the previous returns."""
    phase = Phase()
    start, kernel_start = time.perf_counter(), clock.kernel_total
    deadline = start + seconds
    for arg in args_source:
        on_start()
        a = time.perf_counter()
        try:
            out = workload.run(res, arg)
            b = time.perf_counter()
            digest = workload.digest(out)
            ok = workload.check(arg, out, digest)
        except Exception:  # an operation that raises counts as failed
            b = time.perf_counter()
            ok, digest = False, b""
            phase.errors.append(traceback.format_exc(limit=3))
        phase.args.append(arg)
        phase.intervals.append((a, b))
        phase.ok.append(ok)
        phase.digests.append(digest)
        n = len(phase.ok)
        if n >= MIN_OPS and n % workload.block == 0 and time.perf_counter() >= deadline:
            break
    phase.seconds = time.perf_counter() - start
    phase.kernel_seconds = clock.kernel_total - kernel_start
    return phase


def timed_setup(workload) -> tuple[object, tuple[float, float]]:
    """Set the workload up once; (resources, its perf_counter interval)."""
    start = time.perf_counter()
    res = workload.setup()
    return res, (start, time.perf_counter())


def repeat_check(workload, res, phase: Phase) -> dict[str, bool]:
    if not workload.repeat_first:
        return {}
    try:
        same = workload.final_check(res, (phase.args[0], phase.digests[0]))
    except Exception:  # a repeat that raises fails the check
        traceback.print_exc(limit=3)
        same = False
    return {"a repeat of the first operation gives the same output": same}


def end_to_end(workload, clock, seconds: float) -> tuple[dict, list[Phase], dict[str, bool]]:
    """Untraced run: set-up repeats, then the timed loop."""
    setups: list[tuple[float, float]] = []
    with clock.interleaved():
        while len(setups) < SETUP_MAX_REPS and (
                len(setups) < SETUP_REPS or sum(b - a for a, b in setups) < SETUP_SECONDS):
            res = None  # drop the previous resources before loading again
            gc.collect()
            res, interval = timed_setup(workload)
            setups.append(interval)
        phase = run_loop(workload, res, clock, seconds, workload.schedule())
        checks = repeat_check(workload, res, phase)
    s = phase.stats(clock)
    setup_times = clock.normalize(setups)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "throughput_per_s": (s["throughput"], s["throughput_raw"]),
        "latency_p50_ms": (s["p50"], s["p50_raw"]),
        "latency_p90_ms": (s["p90"], s["p90_raw"]),
        "setup_s": (statistics.median(n for _, n in setup_times),
                    statistics.median(r for r, _ in setup_times)),
        "peak_rss_mb": (rss, rss),
    }
    return values, [phase], checks


def per_layer(workload, clock, seconds: float, per_layer_spec: list[dict],
              trace_file: Path) -> tuple[dict, list[Phase], dict[str, bool]]:
    """Traced run: traced set-up, an untraced half, then the same operations traced."""
    from spans import Tracer

    tracer = Tracer(lambda: clock.kernel_total)
    with clock.interleaved():
        tracer.install()
        try:
            res, _ = timed_setup(workload)
        finally:
            tracer.uninstall()
        plain = run_loop(workload, res, clock, seconds / 2, workload.schedule())
        tracer.install()
        try:
            phase = run_loop(workload, res, clock, seconds / 2, plain.args,
                             on_start=tracer.next_op)
        finally:
            tracer.uninstall()
        checks = repeat_check(workload, res, phase)
    checks["traced outputs equal untraced outputs"] = (
        phase.digests == plain.digests[:len(phase.digests)])
    tracer.write(trace_file)
    report = tracer.report()
    print_spans(report)
    s, s_plain = phase.stats(clock), plain.stats(clock)
    ratio = s["throughput"] / s_plain["throughput"] if s_plain["good"] else 0.0
    values = layer_values(report, per_layer_spec, s["ops"], ratio)
    return {k: (v, v) for k, v in values.items()}, [plain, phase], checks


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "punforge" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC.relative_to(ROOT)}/punforge; "
              "run from the repository root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import inputs
    import workloads
    from refclock import NOMINAL_KERNEL_S, RefClock

    models = name in ("score", "generate")
    inp = inputs.location(CACHE, SRC / "punforge", seed)
    if not inputs.is_prepared(inp, models):
        # a child process, so preparation stays out of this one's peak RSS
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        subprocess.run([sys.executable, "-m", "inputs", str(inp.root), str(seed),
                        str(int(models))], cwd=ROOT, env=env, check=True)
    os.utime(inp.root)  # the cache keeps the most recently used seeds
    workload = workloads.WORKLOADS[name](inp, seed, CACHE / f"work-{name}")
    clock = RefClock()
    if traced:
        metrics_spec = spec["per_layer"]
        values, phases, checks = per_layer(workload, clock, seconds, metrics_spec,
                                           CACHE / f"trace-{name}.jsonl")
    else:
        metrics_spec = spec["end_to_end"]
        values, phases, checks = end_to_end(workload, clock, seconds)
    checks["the reference kernel gives its result"] = clock.bad_results == 0

    for err in [e for phase in phases for e in phase.errors][:3]:
        print(err, file=sys.stderr)
    # Each run-level check counts as one more operation, failed if it fails.
    ops = sum(len(phase.ok) for phase in phases)
    attempted = ops + len(checks)
    failed = ops - sum(sum(phase.ok) for phase in phases) + list(checks.values()).count(False)
    values["ok_ratio"] = (1.0 - failed / attempted,) * 2
    correct = failed == 0
    last = phases[-1]
    problems = [text for text, ok in checks.items() if not ok]
    print(f"perfbench {name} seed={seed} trace={int(traced)}: {ops} ops and "
          f"{len(checks)} checks, {failed} failed"
          + ("" if not problems else "; FAILED: " + "; ".join(problems)))
    print(f"  reference kernel: {clock.rate():.1f} runs/s (median "
          f"{clock.median_kernel_s() * 1e6:.1f} us, nominal "
          f"{NOMINAL_KERNEL_S * 1e6:.0f} us), {len(clock.ends)} runs, "
          f"{last.kernel_seconds / last.seconds * 100:.1f}% of the timed loop")
    metrics = {}
    for m in metrics_spec:
        value, raw = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "" if raw == value else f"   raw {raw:.6g}"
        print(f"  {name}/{m['name']:<46} {value:14.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_values(report: dict, per_layer: list[dict], ops: int,
                 ratio: float) -> dict[str, float]:
    """Per-layer metric values from the span report of the traced phase."""
    def get(span: str, key: str) -> float:
        return report.get(span, {}).get(key, 0)

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    derived = {
        "trace.throughput_ratio": ratio,
        "trace.ops": ops,
        # one epoch, so the pairs extracted are the pairs trained on
        "skipgram.train_skipgram.pairs": get("skipgram.extract_pairs", "pairs"),
        "wordnet.type_consistent.pass_ratio": per(
            get("wordnet.type_consistent", "passes"), get("wordnet.type_consistent", "calls")),
        "retrieval.retrieve_seeds.seeds_per_call": per(
            get("retrieval.retrieve_seeds", "seeds"), get("retrieval.retrieve_seeds", "calls")),
        "generator.generate.candidates_per_type_check": per(
            get("generator.generate", "candidates"), get("wordnet.type_consistent", "calls")),
    }
    out = {}
    for m in per_layer:
        name = m["name"]
        if name in derived:
            out[name] = derived[name]
        else:
            layer, func, key = name.split(".", 2)
            out[name] = get(f"{layer}.{func}", key)
    return out


def print_spans(report: dict) -> None:
    print(f"  {'span':<32} {'calls':>9} {'total s':>10} {'self s':>10}  counts")
    for name, entry in sorted(report.items(), key=lambda kv: -kv[1]["self_s"]):
        extra = ", ".join(f"{k}={v:g}" for k, v in entry.items()
                          if k not in ("calls", "s", "self_s"))
        print(f"  {name:<32} {entry['calls']:>9} {entry['s']:>10.4f} "
              f"{entry['self_s']:>10.4f}  {extra}")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process; then one line per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, status = [], 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", w["name"], "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status |= proc.returncode != 0
        try:  # a run whose checks fail still prints its result
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {w['name']} exited with {proc.returncode}")
            status = 1
            continue
        failed_ratio = result["failed"] / result["attempted"]
        rows.append(f"{w['name']}: correct={result['correct']} attempted="
                    f"{result['attempted']} failed={result['failed']} "
                    f"failed_ratio={failed_ratio:.4f}")
        for metric, entry in result["metrics"].items():
            rows.append(f"  {w['name']}/{metric} {entry['value']:.6g} {entry['unit']}")
    print("\n".join(rows))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["score", "generate", "train", "correlate", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
