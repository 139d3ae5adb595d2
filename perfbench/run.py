"""Seeded end-to-end benchmark of the icmup CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop: one client, one thread,
the next op starting when the previous one ends.  Each op is a user-level
job run in-process through ``icmup.cli.main(argv)`` with stdout captured,
and every op's output is checked.  Inputs are generated from ``--seed``;
the program sees only the generated files.

Times are reported in nominal-rate seconds (see ``refclock``): each op's
wall time is scaled by the CPU rate a fixed reference task measures right
before and after it.  Raw wall-clock figures go to the result file and the
human-readable lines beside the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, once traced and once not (alternating which goes first), and prints
the per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Result files, spans and a work directory go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# An op running longer than this fails and the run goes on: a pathological
# input must not hang a run.
OP_CAP_S = 20
SETUP_SAMPLES = 5
TAIL_BEYOND = 10

# end-to-end metric -> unit (BENCHMARK.json lists the same names)
E2E_UNITS = {
    "setup_s": "s",
    "symbols_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "chunk_bits_ratio": "ratio",
    "rle_bits_ratio": "ratio",
}

class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler in
    the code under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(op: workloads.Op) -> tuple[float, list[str], dict]:
    """Run one op; return its wall time, its problems and its bit figures.
    ``cli.main`` is looked up on every call, so that the tracer's wrapper
    is used while it is installed."""
    import icmup.cli

    for path in op.outputs:
        if os.path.exists(path):
            os.unlink(path)
    outs: list[str] = []
    problems: list[str] = []
    command = op.argvs[0][0]
    start = time.perf_counter()
    try:
        signal.alarm(OP_CAP_S)
        for argv in op.argvs:
            command = argv[0]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = icmup.cli.main(argv)
            outs.append(out.getvalue())
            if code != 0:
                problems.append(f"{command} exited {code}: {err.getvalue().strip()[:200]}")
                break
    except OpTimeout:
        problems.append(f"{command}: op exceeded the {OP_CAP_S} s cap")
    except Exception as exc:  # an op that raises fails; the run goes on
        problems.append(f"{command} raised {exc!r}")
    finally:
        signal.alarm(0)
    seconds = time.perf_counter() - start
    figures: dict = {}
    if not problems:
        problems, figures = op.check(outs)
    return seconds, problems, figures


def probe_setup(op: workloads.Op) -> tuple[float, float] | None:
    """(nominal, wall) seconds to import icmup and run ``op`` in a fresh
    process, which scales its own time: a child may run on another vCPU
    than its parent, in another rate state."""
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC)]
    for k, cli_argv in enumerate(op.argvs):
        argv += (["--"] if k else []) + cli_argv
    for path in op.outputs:
        if os.path.exists(path):
            os.unlink(path)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=OP_CAP_S + 30)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    wall, factor = map(float, proc.stdout.split())
    return wall * factor, wall


def stamp() -> dict:
    """What decides which kernel path ran, so figures cannot be mislabelled."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    kernels = sys.modules.get("icmup.kernels")
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernels.USE_NUMBA": getattr(kernels, "USE_NUMBA", "absent")}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND values beyond it:
    (value, percentile, values beyond).  With too few values, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def per_input(samples) -> tuple[list[float], list[float], float]:
    """Each pool input's mean op time, scaled and wall, and the symbols of
    the ops that passed, counted once per input.

    A run completes a time-bound number of ops, so some inputs run once
    more than others; weighting every input once keeps the latency figures
    from depending on where the run happened to stop in the pool."""
    groups: dict[int, list] = {}
    for k, *rest in samples:
        groups.setdefault(k, []).append(rest)
    scaled, wall, done = [], [], 0.0
    for runs in groups.values():
        scaled.append(statistics.fmean(r[0] for r in runs))
        wall.append(statistics.fmean(r[1] for r in runs))
        done += runs[0][3] * sum(not r[2] for r in runs) / len(runs)
    return scaled, wall, done


def bits_ratio(figures: dict[int, dict], key: str) -> float:
    """Sum of encoded bits over sum of raw bits, each document counted
    once.  A workload that compresses nothing has 0/0, which reads 1.0 as
    the CLI prints for an empty corpus."""
    raw = sum(f["raw_bits"] for f in figures.values())
    return sum(f[key] for f in figures.values()) / raw if raw else 1.0


def end_to_end(samples, figures, setups) -> tuple[dict, dict]:
    """Metrics from (input, nominal seconds, wall seconds, problems,
    symbols) per timed op and (nominal, wall) per set-up."""
    scaled, wall, done = per_input(samples)
    failed = sum(1 for _, _, _, problems, _ in samples if problems)
    value, pct, beyond = tail(scaled)
    metrics = {
        "setup_s": statistics.median(t for t, _ in setups) if setups else 0.0,
        "symbols_per_s": done / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": value * 1e3,
        "ok_frac": 1 - failed / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "chunk_bits_ratio": bits_ratio(figures, "chunk_bits"),
        "rle_bits_ratio": bits_ratio(figures, "rle_bits"),
    }
    extra = {"ops": len(samples), "inputs": len(scaled),
             "fail_frac": failed / len(samples),
             "tail_percentile": pct, "tail_inputs_beyond": beyond,
             "wall_setup_s": statistics.median(w for _, w in setups) if setups else 0.0,
             "wall_symbols_per_s": done / sum(wall),
             "wall_latency_p50_ms": statistics.median(wall) * 1e3,
             "wall_latency_tail_ms": tail(wall)[0] * 1e3}
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "icmup" / "__init__.py").is_file():
        print(f"error: no icmup sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), str(workdir))
        import icmup.cli
        if not Path(icmup.cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported icmup from {icmup.cli.__file__}", file=sys.stderr)
            return 2
        if args.trace:
            result = traced_run(args, ops)
        else:
            result = untraced_run(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, result)
    return 0


def untraced_run(args, ops) -> dict:
    setups = [probe_setup(ops[0]) for _ in range(SETUP_SAMPLES)]
    problems = [f"setup probe {k} failed" for k, s in enumerate(setups) if s is None]
    setups = [s for s in setups if s is not None]
    rate = refclock.RateScale()
    warm = run_op(ops[0])
    rate.factor()
    problems += warm[1]
    samples, figures = [], {}
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        k = len(samples) % len(ops)
        seconds, op_problems, op_figures = run_op(ops[k])
        samples.append((k, seconds * rate.factor(), seconds, op_problems, ops[k].symbols))
        if op_figures and k < workloads.RATIO_DOCS:
            figures.setdefault(k, op_figures)
        problems += op_problems
    metrics, extra = end_to_end(samples, figures, setups)
    extra["rate_factor_median"] = statistics.median(rate.factors)
    failed = (sum(1 for _, _, _, p, _ in samples if p) + bool(warm[1])
              + SETUP_SAMPLES - len(setups))
    return {"metrics": metrics, "units": E2E_UNITS, "extra": extra,
            "attempted": len(samples) + 1 + SETUP_SAMPLES, "failed": failed,
            "problems": problems, "correct": not problems}


def traced_run(args, ops) -> dict:
    tracer = tracing.Tracer()
    rate = refclock.RateScale()
    warm = run_op(ops[0])
    rate.factor()
    problems = list(warm[1])
    failed = bool(warm[1])
    untraced = traced = 0.0
    sizes: dict[int, int] = {}
    factors: dict[int, float] = {}
    attempted = 1
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        op_id = len(sizes)
        op = ops[op_id % len(ops)]
        for traced_turn in ((False, True) if op_id % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.recording(op_id):
                    seconds, op_problems, _ = run_op(op)
                factors[op_id] = rate.factor()
                traced += seconds * factors[op_id]
            else:
                seconds, op_problems, _ = run_op(op)
                untraced += seconds * rate.factor()
            attempted += 1
            failed += bool(op_problems)
            problems += op_problems
        sizes[op_id] = op.symbols
    rows = tracer.per_op()
    for op_id, factor in factors.items():
        row = rows[op_id]
        for key in row:
            if key.endswith((".s", ".self_s")):
                row[key] *= factor
    metrics, curve = tracing.layer_metrics(rows, sizes, traced / untraced - 1)
    calls = {layer: sum(rows[op].get(f"{layer}.calls", 0) for op in sizes)
             for layer in list(tracing.SPANS) + list(tracing.COUNTED)}
    for layer in workloads.EXERCISED[args.workload]:
        if layer not in tracer.absent and not calls[layer]:
            problems.append(f"trace: layer {layer} recorded no calls")
    if args.workload.startswith("codec-") and calls["kernels.match_pairs"]:
        problems.append("trace: a codec workload reached the match kernel")
    tracer.write_spans(OUT / f"{args.workload}.spans.tsv.gz")
    columns = ["symbols"] + [f"{layer}.self_s" for layer in tracing.CURVE_LAYERS]
    return {"metrics": metrics,
            "units": {name: unit for name, (unit, _) in tracing.METRICS.items()},
            "extra": {"traced_ops": len(sizes), "absent": sorted(tracer.absent),
                      "rate_factor_median": statistics.median(rate.factors),
                      "size_curve": {"columns": columns, "rows": curve}},
            "attempted": attempted, "failed": failed,
            "problems": problems, "correct": not problems}


def report(args, result: dict) -> None:
    info = stamp()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("stamp: " + " ".join(f"{k}={v}" for k, v in info.items()))
    extra = result["extra"]
    for name, value in result["metrics"].items():
        line = f"{name} = {value:.6g} {result['units'][name]}"
        if name == "latency_tail_ms":
            line += (f"  (p{extra['tail_percentile']:.1f}, {extra['tail_inputs_beyond']} "
                     f"of {extra['inputs']} inputs beyond; {extra['ops']} ops)")
        print(line)
    for name in ("wall_setup_s", "wall_symbols_per_s", "wall_latency_p50_ms",
                 "wall_latency_tail_ms", "rate_factor_median"):
        if name in extra:
            print(f"{name} = {extra[name]:.6g}")
    if "fail_frac" in extra:
        print(f"fail_frac = {extra['fail_frac']:.6g}  (of {extra['ops']} timed ops; "
              f"{result['failed']} of {result['attempted']} failed with set-up "
              f"and warm-up)")
    if extra.get("absent"):
        print("absent: " + ", ".join(extra["absent"]))
    for problem in result["problems"][:10]:
        print(f"problem: {problem}", file=sys.stderr)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "stamp": info, **result}
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()}}))


if __name__ == "__main__":
    sys.exit(main())
