"""singlet-lhv benchmark: one workload, one caller thread, closed loop.

    python3 perfbench/run.py --workload bulk-run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The loop sends the next op only after the previous one returns, cycles
through the workload's seeded inputs until --seconds are used, and checks
every op's output.  An untraced run splits --seconds over
PROCESSES fresh interpreters started one after another, each with one caller
thread; their set-up times give setup_s.  Every time is scaled to a fixed
host speed by a reference kernel timed around each op (see reference).  The
run prints a report followed, as the last line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (END_TO_END below).  --trace 1
alternates each input untraced and traced, reports the per-layer metrics of
spans.LAYER_METRICS from the traced calls, and writes the spans to
perfbench/out/.  Layers the workload never reaches are filled from a short
traced probe of the other workloads, run after the measured loop.
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
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

DEFAULT_SEED = 1
WORKERS = min(2, os.cpu_count() or 1)
#: Untraced runs measure in this many fresh interpreters, one after another.
PROCESSES = 4
CHILD_TIMEOUT_S = 30
#: Untraced runs time at least this many ops, so the tail percentile
#: (highest with ten samples beyond it) exists.
MIN_OPS = 11

#: Per-op fields a measuring process reports (see workloads.Call), and the
#: host-speed scale of each op (see reference).
SAMPLES = ("seconds", "pairs", "seconds_nw", "seconds_1w", "scale")

#: About the reference kernel's time between ops on a shared 2-core Xeon
#: (Python 3.11, numpy 2.4).  Timings are scaled to that host speed.
REFERENCE_S = 0.020
_REF_X = np.linspace(0.0, 1.0, 1 << 15)
_REF_Y = np.empty_like(_REF_X)

END_TO_END = (
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("pairs_per_s_1w", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_package(root: Path):
    """Import singlet_lhv from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "singlet_lhv" / "__init__.py").is_file():
        raise ImportError(f"no singlet_lhv package under {src}")
    sys.path.insert(0, str(src))
    import singlet_lhv

    if Path(singlet_lhv.__file__).resolve().parent != (src / "singlet_lhv").resolve():
        raise ImportError(f"singlet_lhv imported from {singlet_lhv.__file__}, not {src}")
    return singlet_lhv


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest sample with ten samples above it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    k = n - 11
    return s[k], 100.0 * k / (n - 1), n


class Attempts:
    """Attempts ops, counting failures and keeping the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, workload, inp):
        self.attempted += 1
        try:
            call = workload.call(inp, WORKERS)
            error = workload.check(inp, call)
        except Exception as exc:  # an op that raises is a failed op
            call, error = None, f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.fail(f"{workload.name} {inp!r}: {error}")
        return call

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _reference_kernel(n: int) -> None:
    total = 0
    for _ in range(n):
        np.sin(_REF_X, out=_REF_Y)
        np.multiply(_REF_Y, _REF_X, out=_REF_Y)
        np.add.reduce(_REF_Y)
        for i in range(1000):
            total += i & 7


def reference() -> float:
    """Time a fixed kernel that does not use singlet_lhv: a host-speed probe.

    Neighbours on a shared host slow every process in it alike, by up to
    1.8x for minutes at a time.  Numpy ufuncs on an L2-sized array and an
    interpreter loop, timed between ops, see the same slow-down.  An untimed
    warm-up first brings the arrays back into cache, so the op that ran
    before does not change the time.
    """
    _reference_kernel(4)
    t0 = perf_counter()
    _reference_kernel(40)
    return perf_counter() - t0


def run_ops(workload, seed: int, seconds: float, min_ops: int, one_op):
    """Call one_op(inp) over the seeded inputs, in cycles, until time is used.

    Always finishes the first pass over the inputs and at least min_ops ops;
    after that, stops once the next op would be expected to end more than
    half an op past seconds.  Returns one_op's results, the length of the
    first pass and the time used.
    """
    inputs = workload.inputs(seed)
    min_ops = max(min_ops, len(inputs))
    results = []
    t0 = perf_counter()
    while True:
        results.append(one_op(inputs[len(results) % len(inputs)]))
        elapsed = perf_counter() - t0
        if len(results) >= min_ops and elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results, len(inputs), elapsed


def child(workload, seed: int, seconds: float) -> None:
    """One measuring process: set up, say "ready", run, print the samples.

    The reference kernel runs before the first op and after each op; an
    op's scale is REFERENCE_S over the mean of the two times around it.
    The host's speed can change within seconds, so a wider window of
    reference times tracks it worse.
    """
    workload.setup(WORKERS)
    print("ready", flush=True)
    attempts = Attempts()
    refs = [reference()]

    def one_op(inp):
        call = attempts.attempt(workload, inp)
        refs.append(reference())
        return call

    results, first_pass, measured_s = run_ops(workload, seed, seconds, -(-MIN_OPS // PROCESSES),
                                              one_op)
    scales = [2.0 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(len(results))]
    calls = [(c, k) for c, k in zip(results, scales) if c is not None]
    digest = None
    if hasattr(workload, "digest") and None not in results[:first_pass]:
        digest = workload.digest(results[:first_pass])
    print(json.dumps({
        **{key: [getattr(c, key) for c, _ in calls] for key in SAMPLES[:-1]},
        "scale": [k for _, k in calls],
        "setup_scale": REFERENCE_S / refs[0],
        "reference_s": refs,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "errors": attempts.errors,
        "digest": digest,
        "measured_s": measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)


def spawn_child(name: str, seed: int, seconds: float, root: Path) -> tuple[float, dict]:
    """Run one measuring process; returns its set-up time and its report."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        report = proc.stdout.readline()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready" or not report:
        raise RuntimeError(f"measuring process for {name} exited {code}")
    return setup_s, json.loads(report)


def measure_plain(name: str, seed: int, seconds: float, root: Path) -> tuple[dict, Attempts, dict]:
    """Split the run over PROCESSES fresh interpreters, one after another.

    Each process gives one set-up sample; the op samples of all are pooled.
    """
    attempts = Attempts()
    samples = {key: [] for key in SAMPLES}
    setups, setup_scales, rss, refs = [], [], [], []
    digest = json.loads((HERE / "digests.json").read_text()).get(name)
    measured = 0.0
    for i in range(PROCESSES):
        # Each process gets an equal share of the time the earlier ones left.
        share = max(seconds - measured, 0.0) / (PROCESSES - i)
        setup_s, report = spawn_child(name, seed, share, root)
        measured += report["measured_s"]
        setups.append(setup_s)
        setup_scales.append(report["setup_scale"])
        refs.append(report["reference_s"])
        rss.append(report["peak_rss_mb"])
        for key, values in samples.items():
            values.extend(report[key])
        attempts.attempted += report["attempted"]
        attempts.failed += report["failed"]
        attempts.errors.extend(report["errors"])
        if digest is not None and seed == DEFAULT_SEED and report["digest"] != digest:
            attempts.fail(f"tally digest {report['digest']} != digests.json {digest}")
    raw = timing_metrics(samples, setups, [1.0] * len(samples["scale"]), [1.0] * len(setups))
    metrics = timing_metrics(samples, setups, samples["scale"], setup_scales)
    metrics["peak_rss_mb"] = statistics.median(rss)
    notes = {"ops": len(samples["seconds"]), "measured_s": measured, "setup_samples_s": setups,
             "raw": raw, "host_scale": statistics.median(samples["scale"] + setup_scales),
             "samples": samples, "reference_s": refs}
    if len(samples["seconds"]) >= 11:
        _, pct, n = tail(samples["seconds"])
        notes["op_tail"] = {"percentile": round(pct, 2), "samples": n}
    return metrics, attempts, notes


def timing_metrics(samples: dict, setups: list[float], scales: list[float],
                   setup_scales: list[float]) -> dict[str, float]:
    """The timing metrics, with each op's and set-up's time times its scale.

    Throughputs are medians over ops, like the latencies, so that a few
    slow seconds move them no more than they move the median latency.
    """
    out = {"setup_s": statistics.median(t * k for t, k in zip(setups, setup_scales))}
    if len(samples["seconds"]) >= 11:
        seconds = [t * k for t, k in zip(samples["seconds"], scales)]
        out.update(
            pairs_per_s=statistics.median(
                p / (t * k) for p, t, k in zip(samples["pairs"], samples["seconds_nw"], scales)),
            pairs_per_s_1w=statistics.median(
                p / (t * k) for p, t, k in zip(samples["pairs"], samples["seconds_1w"], scales)),
            op_p50_ms=1e3 * statistics.median(seconds),
            op_tail_ms=1e3 * tail(seconds)[0],
        )
    return out


def measure_traced(workload, seed: int, seconds: float, others) -> tuple[dict, Attempts, list]:
    attempts = Attempts()
    tracer = spans.Tracer()
    pairs = []

    def plain_then_traced(inp):
        plain = attempts.attempt(workload, inp)
        tracer.op += 1
        with spans.installed(tracer):
            traced = attempts.attempt(workload, inp)
        if plain is not None and traced is not None:
            pairs.append(traced.seconds / plain.seconds)
        return tracer.op

    op_ids, first_pass, _ = run_ops(workload, seed, seconds, 0, plain_then_traced)
    metrics = spans.layer_metrics(tracer.spans, set(op_ids[:first_pass]))
    if pairs:
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(pairs) - 1.0)

    wanted = [name for name, _, _ in spans.LAYER_METRICS]
    for other in others:
        if all(name in metrics for name in wanted):
            break
        other.setup(WORKERS)
        first = len(tracer.spans)
        ops = set()
        with spans.installed(tracer):
            for inp in other.inputs(seed)[:other.probe_ops]:
                tracer.op += 1
                ops.add(tracer.op)
                attempts.attempt(other, inp)
        for name, value in spans.layer_metrics(tracer.spans[first:], ops).items():
            metrics.setdefault(name, value)
    return metrics, attempts, tracer.spans


def provenance(root: Path, seed: int, singlet_lhv) -> dict:
    import numpy

    try:
        l2 = int(subprocess.run(["getconf", "LEVEL2_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l2 = None
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "l2_bytes": l2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "singlet_lhv": singlet_lhv.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        singlet_lhv = import_package(root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    registry = workloads.all_workloads()
    if args.workload not in registry:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(registry)}",
              file=sys.stderr)
        return 2
    workload = registry[args.workload]
    if args.child:
        child(workload, args.seed, args.seconds)
        return 0

    prov = provenance(root, args.seed, singlet_lhv)
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov}
    if args.trace:
        workload.setup(WORKERS)
        others = [w for name, w in registry.items() if name != args.workload]
        values, attempts, trace_spans = measure_traced(workload, args.seed, args.seconds, others)
        wanted = [(name, unit) for name, unit, _ in spans.LAYER_METRICS]
        record["spans"] = [vars(s) for s in trace_spans]
    else:
        try:
            values, attempts, notes = measure_plain(args.workload, args.seed, args.seconds, root)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        wanted = END_TO_END
        record.update(notes)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted if name in values}
    missing = [name for name, _ in wanted if name not in values]
    if missing:
        attempts.fail(f"metrics not measured: {missing}")
    fail_frac = attempts.failed / attempts.attempted
    result = {
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": metrics,
    }
    record.update(result, fail_frac=fail_frac, errors=attempts.errors)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} provenance={json.dumps(prov)}")
    for name, m in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{record['op_tail']['percentile']} of {record['op_tail']['samples']} ops)"
        print(f"# {name:<52} {m['value']:>16.6g} {m['unit']}{extra}")
    if "raw" in record:
        print(f"# host scale {record['host_scale']:.4g}; unscaled: "
              + ", ".join(f"{name} {value:.6g}" for name, value in record["raw"].items()))
    print(f"# fail_frac {fail_frac:g} ({attempts.failed} of {attempts.attempted} ops)")
    for message in attempts.errors:
        print(f"# error: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
