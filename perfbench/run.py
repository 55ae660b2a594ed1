"""Benchmark for tensorquire: end-to-end and per-layer figures.

Run one workload for a number of seconds:

    python3 perfbench/run.py --workload dot-invariance --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same loop half untraced and half with spans around every layer's entry
points, then times each layer alone, and reports the per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run
also writes a result file (and, traced, a span file) under
``.perfbench_run/results`` or ``--out``.

Compare two sets of result files (files or directories):

    python3 perfbench/run.py --compare BASE NEW
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (CAL_REF_S, ROOT, WORK, ScaledClock, SetupError, calibrate, child_env,
                    describe, environment, peak_rss_mb, summarize, use_checkout_package)

SETUP_TRIALS = 7
clock = time.perf_counter


def measure_setup(workload: str, seed: int):
    """Set-up trials in a fresh interpreter: (seconds, scaled seconds)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, check=True, env=child_env(), cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["seconds"], got["scaled"]


def setup_probe(workload: str, seed: int) -> dict:
    """Time the package's own set-up, SETUP_TRIALS times.

    A first import loads numpy and the standard library, whose loading
    no change to tensorquire can move and which drifts with the host's
    memory and disk rather than with its CPU.  Each trial then drops
    tensorquire's modules, imports the package again (executing every
    module body) and builds the workload's first inputs in the package's
    types.  Each trial is scaled by the calibration loop around it."""
    use_checkout_package()
    importlib.import_module("tensorquire.cli")
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    raw, scaled = [], []
    for _ in range(SETUP_TRIALS):
        for name in [m for m in sys.modules if m.split(".")[0] == "tensorquire"]:
            del sys.modules[name]
        scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            before = calibrate()
            t0 = clock()
            importlib.import_module("tensorquire.cli")
            WORKLOADS[workload](seed, scratch).prepare()
            seconds = clock() - t0
            after = calibrate()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        raw.append(seconds)
        scaled.append(seconds * 2 * CAL_REF_S / (before + after))
    return {"seconds": raw, "scaled": scaled}


def run_worker(args) -> dict:
    """Run one batch of rounds in this fresh interpreter."""
    import tracing
    from workloads import WORKLOADS, Round

    cls = WORKLOADS[args.workload]
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = cls(args.seed, scratch)
        wl.prepare()
        sclock = ScaledClock()
        tracer = tracing.Tracer().install() if args.trace else None
        total = Round()
        first = args.batch * cls.rounds_per_batch
        for r in range(first, first + cls.rounds_per_batch):
            total.merge(wl.round(r, sclock))
        if tracer:
            tracer.remove()
        total.samples["calibration_ms"] = [c * 1e3 for c in sclock.cals]
        total.sample("batch_peak_rss_mb", peak_rss_mb())
        doc = dataclasses.asdict(total)
        doc["spans"] = tracer.spans if tracer else []
        return doc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_batches(workload: str, seed: int, seconds: float, trace: bool, first: int):
    """Closed loop of whole batches, each in a fresh interpreter, until
    ``seconds`` have passed.  A fresh process per batch keeps the
    package's process-wide caches, and so peak memory, tied to a fixed
    amount of work rather than to how many rounds fit in the run.
    Returns the merged rounds, the spans tagged by batch, and the next
    batch number."""
    from workloads import Round

    agg = Round()
    spans = []
    b = first
    deadline = clock() + seconds
    while True:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--worker",
               "--workload", workload, "--seed", str(seed), "--batch", str(b),
               "--trace", "1" if trace else "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=str(ROOT), timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"batch {b} failed: {proc.stderr.strip()[-2000:]}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        spans.extend(tuple(s) + (b,) for s in got.pop("spans"))
        agg.merge(Round(**got))
        b += 1
        if clock() >= deadline:
            return agg, spans, b


def run_workload(args) -> int:
    from workloads import WORKLOADS, Round

    cls = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    setup_raw, setup_scaled = measure_setup(args.workload, args.seed)
    both = Round()
    if args.trace:
        agg, _, b = run_batches(args.workload, args.seed, args.seconds / 2, False, 0)
        traced, spans, _ = run_batches(args.workload, args.seed, args.seconds / 2, True, b)
        both.merge(traced)
    else:
        agg, spans, _ = run_batches(args.workload, args.seed, args.seconds, False, 0)
    both.merge(agg)
    errors = both.errors + cls.finish(both.samples)
    detail = {k: summarize(v) for k, v in sorted(agg.samples.items())}
    detail["work_per_s"] = summarize(agg.rates)
    detail["scaled_work_per_s"] = summarize(agg.scaled)
    if args.trace:
        import layers
        from tracing import self_times

        scratch = Path(tempfile.mkdtemp(prefix="layers-", dir=WORK))
        try:
            metrics = {k: {"value": float(v), "unit": _layer_unit(k)}
                       for k, v in layers.sweep(args.seed, scratch).items()}
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        overhead = statistics.median(agg.scaled) / statistics.median(traced.scaled) - 1.0
        metrics["trace.overhead_pct"] = {"value": overhead * 100.0, "unit": "%"}
        detail["traced_scaled_work_per_s"] = summarize(traced.scaled)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": max(agg.samples["batch_peak_rss_mb"]), "unit": "MB"},
            "scaled_work_per_s": {"value": statistics.median(agg.scaled), "unit": "1/s"},
        }

    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} unit={cls.unit}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s trials raw={','.join(f'{t:.4f}' for t in setup_raw)} "
          f"scaled={','.join(f'{t:.4f}' for t in setup_scaled)}")
    for k, s in detail.items():
        print(f"detail {k} {describe(s)}")
    if args.trace:
        layer_self = self_times(spans)
        total = sum(layer_self.values()) or 1.0
        for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"self_time {layer} {secs:.4f}s {100 * secs / total:.1f}%")
    for e in both.failures[:20]:
        print(f"OPERATION FAILED: {e}")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": both.attempted,
        "failed": both.failed,
        "metrics": metrics,
    }
    _write_result(args, env, detail, {"raw": setup_raw, "scaled": setup_scaled}, result,
                  spans if args.trace else None)
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms")):
        if suffix in name:
            return unit
    return "count"


def _write_result(args, env, detail, setup_trials, result, spans) -> None:
    out = Path(args.out) if args.out else WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_trials_s": setup_trials,
        "detail": detail,
        **result,
    }
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                name, start, end, parent, proc = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "proc": proc}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tensorquire benchmark")
    p.add_argument("--workload", help="workload name")
    p.add_argument("--seed", type=int, default=1, help="seed of the workload's inputs")
    p.add_argument("--seconds", type=float, default=15.0, help="measured seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 for the traced run with per-layer metrics")
    p.add_argument("--out", help="directory for result files (default .perfbench_run/results)")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two sets of result files")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--batch", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        use_checkout_package()
    except (SetupError, ImportError) as e:
        print(f"perfbench: cannot use the package: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.worker:
        print(json.dumps(run_worker(args)))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
