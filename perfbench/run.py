"""Benchmark for qlbn: four seeded workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload chain-enum --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ./src. Each workload
is a closed loop with one caller (one process, no threads, at most one CLI
child at a time). Operations run in whole passes over the workload's seeded
input list until --seconds of operation time have been spent; every
operation's output is checked after its pass, off the clock. With --trace 0
the last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a run whose first half is untraced and second half
traced. --workload all runs every workload in turn and prints all metrics.

Run records, spans and per-seed counts go to .bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

LADDER = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
PROBE_SAMPLES = 15
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qlbn benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("cli", "scenario-grid", "chain-enum", "chain-evidence", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str):
    print(f"benchmark error: {message}", file=sys.stderr)
    raise SystemExit(2)


# --- small statistics -----------------------------------------------------------


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct * len(sorted_values) / 100) - 1)]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten of n samples beyond it."""
    fitting = [p for p in LADDER if n - math.ceil(p * n / 100) >= 10]
    return fitting[-1] if fitting else LADDER[0]


class Measurement:
    """Per-pass summaries of one measuring loop.

    Every pass runs the same inputs, so each input is timed once per pass.
    The host this was tuned on (2 KVM vCPUs shared with other tenants) runs
    the same code at speeds up to 1.8x apart from one second to the next, and
    user CPU time slows with it, so a run's raw mean, median or tail depends
    mostly on when it ran. Interference only ever adds time, so the steady
    figures come from each input's best latency (`best`) and best CPU time
    (`best_cpu`) over the run's passes. The raw per-pass rates and CPU go to
    the run record.
    """

    def __init__(self, items: int):
        self.best = [float("inf")] * items
        self.best_cpu = [float("inf")] * items
        self.pass_rates: list[float] = []
        self.pass_cpu: list[float] = []
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.typed_errors: dict[str, int] = {}
        self.pass_counts: list[dict] = []
        self.outputs: list = []
        self.op_seconds = 0.0

    def add_pass(self, latencies: list[float], cpu_times: list[float]) -> None:
        pass_time = sum(latencies)
        self.ops += len(latencies)
        self.op_seconds += pass_time
        self.pass_rates.append(len(latencies) / pass_time)
        self.pass_cpu.append(sum(cpu_times) / len(cpu_times))
        self.best = list(map(min, self.best, latencies))
        self.best_cpu = list(map(min, self.best_cpu, cpu_times))

    def best_rate(self) -> float:
        """Operations per second of one pass at each input's best latency."""
        return len(self.best) / sum(self.best)

    def best_cpu_per_op(self) -> float:
        """CPU seconds per operation of one pass at each input's best CPU time."""
        return sum(self.best_cpu) / len(self.best_cpu)

    def tail(self) -> tuple[float, dict]:
        """Nearest-rank percentile of the inputs' best latencies, at the highest
        ladder percentile that leaves ten of them beyond it."""
        pct = tail_percentile(len(self.best))
        return nearest_rank(sorted(self.best), pct), {
            "percentile": pct, "samples": len(self.best),
            "sample": "each input's best latency over the run's passes"}


def measure(workload, state, seconds, rusage_who, tracer=None, stats=None, span_file=None,
            between_passes=None):
    """Run whole passes until `seconds` of operation time are spent.

    between_passes(m), if given, runs after each pass's checks, off the clock."""
    import gc
    import resource

    errors_module = sys.modules.get("qlbn.errors")
    typed = errors_module.InferenceError if errors_module else ()
    items = state["items"]
    m = Measurement(len(items))
    clock = time.perf_counter

    def cpu_clock() -> float:
        usage = resource.getrusage(rusage_who)
        return usage.ru_utime + usage.ru_stime

    while m.op_seconds < seconds or not m.pass_rates:
        # Start every pass from the same heap state; collections inside a pass still count.
        gc.collect()
        outputs = []
        latencies = []
        cpu_times = []
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.op = index
            cpu_start = cpu_clock()
            start = clock()
            try:
                raw = workload.run(state, item)
                error = None
            except typed as exc:
                raw, error = None, type(exc).__name__
            except Exception as exc:  # an untyped failure is a result to report
                raw, error = None, f"untyped {type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            cpu_times.append(cpu_clock() - cpu_start)
            outputs.append((None if error else workload.compact(raw), error))
        m.add_pass(latencies, cpu_times)
        for item, (result, error) in zip(items, outputs):
            m.attempted += 1
            reason = workload.check(state, item, result, error)
            if reason is not None:
                m.failed += 1
                if len(m.failures) < 10:
                    m.failures.append(reason)
            elif error is not None:
                m.typed_errors[error] = m.typed_errors.get(error, 0) + 1
        if tracer is not None:
            spans, counts = tracer.take_pass()
            stats.add_pass(spans, lambda op: workload.tag(items[op]))
            m.pass_counts.append(dict(counts))
            write_spans(span_file, spans)
        m.outputs = outputs
        if between_passes is not None:
            between_passes(m)
    return m


def write_spans(path: Path, spans) -> None:
    """Append one pass's spans, one per line: op parent name start_ns end_ns.

    op indexes the pass's input list; parent indexes the pass's span lines
    (-1 for a top-level span)."""
    import gzip

    with gzip.open(path, "at", compresslevel=1) as f:
        f.writelines("%d %d %s %d %d\n" % span for span in spans)


def time_child(argv, env) -> float:
    import subprocess

    # Output goes to pipes, so run() returns when they close at the child's
    # exit. Without pipes, a wait with a timeout polls at intervals growing
    # to 50 ms, and the measured time would snap to those steps.
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   capture_output=True)
    return time.perf_counter() - start


# Prints the seconds one workload's setup() takes in a fresh interpreter
# (importing qlbn included). argv: perfbench dir, run records dir, workload, seed.
SETUP_CHILD = """
import shutil, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
workdir = Path(tempfile.mkdtemp(dir=sys.argv[2]))
try:
    start = time.perf_counter()
    workloads.WORKLOADS[sys.argv[3]]().setup(int(sys.argv[4]), workdir)
    print(repr(time.perf_counter() - start))
finally:
    shutil.rmtree(workdir)
"""


def setup_seconds(workload_name: str, seed: int, env) -> float:
    import subprocess

    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), str(RUNS),
                          workload_name, str(seed)],
                         cwd=ROOT, env=env, check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


class ProbeSampler:
    """Cold-start probes in fresh processes, spread over a measuring loop.

    Each probe runs PROBE_SAMPLES times, once whenever another
    1/PROBE_SAMPLES of the loop's operation time has passed, so the samples
    meet the same machine load as the operations. A probe's figure is its
    fastest sample, for the reason given under Measurement.
    """

    def __init__(self, probes: dict, seconds: float):
        self.probes = probes
        self.samples: dict[str, list[float]] = {name: [] for name in probes}
        self.step = seconds / PROBE_SAMPLES
        self.next_at = 0.0
        self.taken = 0

    def sample(self) -> None:
        for name, probe in self.probes.items():
            self.samples[name].append(probe())
        self.taken += 1

    def __call__(self, m: Measurement) -> None:
        while m.op_seconds >= self.next_at and self.taken < PROBE_SAMPLES:
            self.sample()
            self.next_at += self.step

    def finish(self) -> dict[str, float]:
        while self.taken < PROBE_SAMPLES:
            self.sample()
        return {name: min(values) for name, values in self.samples.items()}


def setup_sampler(workload, args, seconds: float, traced: bool) -> ProbeSampler:
    """setup_s probes: `python -c "import qlbn.cli"` for cli (plus `python -c pass`
    in the traced run, to split interpreter start from import), else the
    workload's own set-up in a fresh interpreter."""
    from workloads import child_env

    env = child_env()
    if workload.name == "cli":
        probes = {"setup": lambda: time_child([sys.executable, "-c", "import qlbn.cli"], env)}
        if traced:
            probes["interpreter"] = lambda: time_child([sys.executable, "-c", "pass"], env)
    else:
        probes = {"setup": lambda: setup_seconds(workload.name, args.seed, env)}
    return ProbeSampler(probes, seconds)


# --- metrics ----------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(m: Measurement, setup_s: float, peak_rss_kb: int):
    tail_ms, tail_info = m.tail()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(m.best_rate(), "1/s"),
        "p50_ms": metric(nearest_rank(sorted(m.best), 50) * 1e3, "ms"),
        "tail_ms": metric(tail_ms * 1e3, "ms"),
        "cpu_ms_per_op": metric(m.best_cpu_per_op() * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
    }
    return metrics, tail_info


def per_layer(untraced: Measurement, traced: Measurement, stats, cli_probe: dict, workload):
    from spans import SPAN_NAMES

    ops = traced.ops
    op_ns = traced.op_seconds * 1e9
    passes = len(traced.pass_rates)
    counts = traced.pass_counts[0]
    metrics = {}
    for name in SPAN_NAMES:
        if name != "cli.main":
            metrics[f"{name}.ms"] = metric(stats.inclusive_ns[name] / ops / 1e6, "ms")
        metrics[f"{name}.self_ms"] = metric(stats.self_ns[name] / ops / 1e6, "ms")
        metrics[f"{name}.share"] = metric(stats.self_ns[name] / op_ns, "ratio")
        metrics[f"{name}.calls"] = metric(stats.calls[name] // passes, "count")
    for name in ("bayesnet.full_joint.calls", "quantum.amplitude_product.calls",
                 "bayesnet.completions.count", "quantum.pairs.count",
                 "heuristic.SingularDenominatorError.count",
                 "quantum.NegativeUnnormalizedMassError.count"):
        metrics[name] = metric(counts.get(name, 0), "count")
    metrics["heuristic.clamped_share"] = metric(
        counts.get("heuristic.clamped", 0) / max(counts.get("heuristic.degrees", 0), 1), "ratio")
    metrics["quantum.clamped_share"] = metric(
        counts.get("quantum.clamped", 0) / max(counts.get("quantum.outcomes", 0), 1), "ratio")
    # Over the operations on the largest networks; over all operations where
    # the inputs are not sized networks (cli).
    sizes = [tag for tag in stats.by_tag if isinstance(tag, int)]
    scope = [max(sizes)] if sizes else list(stats.by_tag)
    interference = sum(stats.by_tag[tag]["quantum.interference_sum"] for tag in scope)
    quantum = sum(stats.by_tag[tag]["quantum.quantum_infer"] for tag in scope)
    metrics["quantum.interference_sum.share_of_quantum_infer"] = metric(
        interference / max(quantum, 1), "ratio")
    cli_main_ns = stats.inclusive_ns["cli.main"]
    interpreter_s = cli_probe.get("interpreter", 0.0)
    metrics["cli.interpreter_ms"] = metric(interpreter_s * 1e3, "ms")
    metrics["cli.import_ms"] = metric((cli_probe.get("setup", 0.0) - interpreter_s) * 1e3, "ms")
    metrics["cli.main_ms"] = metric(
        cli_main_ns / max(stats.calls["cli.main"], 1) / 1e6, "ms")
    metrics["cli.stdout_bytes"] = metric(
        sum(result[3] for result, _ in traced.outputs if result) if workload.name == "cli"
        else 0, "bytes")
    untraced_rate, traced_rate = untraced.best_rate(), traced.best_rate()
    metrics["trace.untraced_ops_per_s"] = metric(untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_share"] = metric(1.0 - traced_rate / untraced_rate, "ratio")
    by_tag = {
        str(tag): {name: ns / 1e6 for name, ns in sorted(names.items())}
        for tag, names in sorted(stats.by_tag.items(), key=lambda kv: str(kv[0]))
    }
    return metrics, {"share_of_quantum_infer_over": scope, "inclusive_ms_by_tag": by_tag}


# --- run record -------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent directory's)."""
    import subprocess

    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def digest(paths) -> str:
    import hashlib

    sha = hashlib.sha256()
    for path in sorted(paths):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def src_digest() -> str:
    return digest((ROOT / "src").rglob("*"))


def check_counts_repeat(workload_name: str, seed: int, pass_counts: list[dict]) -> str | None:
    """Computed counts must be identical on every pass and on every run with this
    seed, the same sources and the same input generator."""
    import json

    first = pass_counts[0]
    if any(counts != first for counts in pass_counts[1:]):
        return "computed counts differ between passes over the same inputs"
    path = RUNS / f"counts-{workload_name}-seed{seed}.json"
    sources = digest([*(ROOT / "src").rglob("*"), HERE / "gen.py"])
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["sources"] == sources and earlier["counts"] != first:
            return f"computed counts differ from the earlier run recorded in {path.name}"
    path.write_text(json.dumps({"sources": sources, "counts": first}, sort_keys=True))
    return None


# --- entry point ------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    import json
    import subprocess

    results = {}
    for name in ("cli", "scenario-grid", "chain-enum", "chain-evidence"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qlbn" / "__init__.py").is_file():
        fail(f"no qlbn sources under {ROOT / 'src'}; run from a source checkout")
    if args.seconds < 0:
        fail("--seconds must not be negative")
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    RUNS.mkdir(exist_ok=True)
    import shutil
    import tempfile

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, workdir: Path) -> int:
    import workloads

    traced = bool(args.trace)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(traced=traced) if cls is workloads.Cli else cls()
    state = workload.setup(args.seed, workdir)

    import json
    import platform
    import resource

    in_children = workload.name == "cli" and not traced
    rusage_who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": git_sha(),
        "src_sha256": src_digest(), "nproc": os.cpu_count(), "items_per_pass": len(state["items"]),
    }
    problems = []
    if not traced:
        sampler = setup_sampler(workload, args, args.seconds, traced)
        m = measure(workload, state, args.seconds, rusage_who, between_passes=sampler)
        setup_s = sampler.finish()["setup"]
        peak_kb = resource.getrusage(rusage_who).ru_maxrss
        metrics, tail_info = end_to_end(m, setup_s, peak_kb)
        record.update(setup_samples_s=sampler.samples["setup"], tail=tail_info,
                      passes=len(m.pass_rates), pass_ops_per_s=m.pass_rates,
                      raw_ops_per_s=m.ops / m.op_seconds,
                      raw_cpu_ms_per_op=[c * 1e3 for c in m.pass_cpu])
    else:
        import spans

        cli_probe = {}
        if workload.name == "cli":
            sampler = setup_sampler(workload, args, args.seconds / 2, traced)
            untraced = measure(workload, state, args.seconds / 2, rusage_who,
                               between_passes=sampler)
            cli_probe = sampler.finish()
        else:
            untraced = measure(workload, state, args.seconds / 2, rusage_who)
        tracer, stats = spans.Tracer(), spans.SpanStats()
        span_file = RUNS / f"spans-{workload.name}.txt.gz"
        span_file.unlink(missing_ok=True)
        tracer.install()
        try:
            m = measure(workload, state, args.seconds / 2, rusage_who, tracer, stats, span_file)
        finally:
            tracer.uninstall()
        metrics, layer_info = per_layer(untraced, m, stats, cli_probe, workload)
        problem = check_counts_repeat(workload.name, args.seed, m.pass_counts)
        if problem:
            problems.append(problem)
        record.update(layers=layer_info, counts=m.pass_counts[0], passes=len(m.pass_rates),
                      cli_probe=cli_probe)
        m.attempted += untraced.attempted
        m.failed += untraced.failed
        m.failures += untraced.failures
    record.update(attempted=m.attempted, failed=m.failed, failures=m.failures,
                  typed_errors=m.typed_errors, problems=problems, metrics=metrics)
    record_path = RUNS / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))

    for reason in m.failures + problems:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} passes={record['passes']} "
          f"attempted={m.attempted} failed={m.failed} typed_errors={m.typed_errors}")
    if "tail" in record:
        print(f"tail: {record['tail']}")
    for name, value in metrics.items():
        print(f"  {name:55s} {value['value']:>16.6g} {value['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": m.failed == 0 and not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
