#!/usr/bin/env python3
"""faberfib benchmark: one client, one thread, closed loop, in one process.

Usage, from the repository root:

    python3 bench/run.py --workload {witness,invert,cli} --seed N --seconds S --trace {0,1}

The program is imported from `src/` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.

`--trace 0` runs ops back to back until their summed wall time reaches
S seconds and reports the end-to-end metrics.  Each op is checked by an
independent route outside its timed region (see check.py).

End-to-end times are the process's CPU time at reference speed: seconds
and milliseconds of the reference machine described in reference.py.
The loop is single-threaded and does no I/O, so its CPU time
is its wall time minus the moments the operating system ran something
else.  A fixed stdlib kernel is timed just before and just after every
op and every set-up probe, and the CPU time is rescaled by the kernel's
nominal time over its mean measured time (see reference.py), which takes
out the speed swings of a shared machine.  Raw wall times are kept in
the report.

`--trace 1` takes a fixed list of ops from the seed and runs each op
untraced and then traced (tracing.py), round after round, until S seconds
have passed.  Call counts come from the first round, so they repeat
exactly for a seed; self times (wall) are averaged over all rounds; the
ratio of traced to untraced time is `trace_overhead`.

The last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}` holding the metrics that
BENCHMARK.json lists for the mode.  The line before it is the full run
report (run record, every metric, latency percentiles and sample counts,
growth table, failing ops, the ROADMAP item 5 probes), also written to
bench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_DIR = BENCH_DIR / "runs"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# ROADMAP item 1 baseline, seconds at order N (measured before this benchmark existed)
ROADMAP_BASELINE_S = {
    "solve_schwarz": {"12": 0.13, "20": 2.6, "28": 21.7},
    "revert": {"12": 0.02, "20": 0.09, "28": 0.36},
    "faber_inverse_coefficients": {"12": 0.003, "20": 0.05, "28": 0.32},
    "membership_witness": {"12": 0.32},
}
GROWTH_NOTE = (
    "N = 20 and 28 of the baseline lie outside the witness orders (6..12): solve_schwarz "
    "takes about 2.6 s and 21.7 s there, longer than a run can spend on one op."
)

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms.small": "ms",
    "latency_tail_ms.small": "ms",
    "latency_p50_ms.large": "ms",
    "latency_tail_ms.large": "ms",
    "error_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "faber.partition_terms": "terms/op",
    "exact.interval.max_bits": "bits",
    "bounds.escalations": "calls/op",
    "trace_overhead": "ratio",
}

# per-layer metrics of the traced run: (metric, traced name, kind)
LAYER_METRICS = [
    ("tremblay.membership_witness.self_ms", "tremblay.membership_witness", "self"),
    ("golden.solve_schwarz.self_ms", "golden.solve_schwarz", "self"),
    ("faber.partial_bell.calls", "faber.partial_bell", "calls"),
    ("faber.partial_bell.self_ms", "faber.partial_bell", "self"),
    ("exact.qsqrt5_mul.calls", "exact.qsqrt5_mul", "calls"),
    ("exact.complex_mul.calls", "exact.complex_mul", "calls"),
    ("exact.qsqrt5_add.calls", "exact.qsqrt5_add", "calls"),
    ("exact.complex_add.calls", "exact.complex_add", "calls"),
    ("series.compose.calls", "series.compose", "calls"),
    ("series.compose.self_ms", "series.compose", "self"),
    ("series.mul.calls", "series.mul", "calls"),
    ("series.mul.self_ms", "series.mul", "self"),
    ("series.revert.self_ms", "series.revert", "self"),
    ("faber.faber_inverse_coefficients.self_ms", "faber.faber_inverse_coefficients", "self"),
    ("golden.golden_coefficient.calls", "golden.golden_coefficient", "calls"),
    ("golden.golden_value.self_ms", "golden.golden_value", "self"),
    ("bounds.bound_theorem1.self_ms", "bounds.bound_theorem1", "self"),
    ("bounds.bound_a2.self_ms", "bounds.bound_a2", "self"),
    ("bounds.bound_a3.self_ms", "bounds.bound_a3", "self"),
    ("bounds.corollary_check.self_ms", "bounds.corollary_check", "self"),
    ("exact.to_float.calls", "exact.to_float", "calls"),
    ("exact.to_float.self_ms", "exact.to_float", "self"),
    ("exact.qsqrt5_float.calls", "exact.qsqrt5_float", "calls"),
    ("exact.interval.from_qsqrt5.calls", "exact.interval.from_qsqrt5", "calls"),
    ("exact.parse_scalar.self_ms", "exact.parse_scalar", "self"),
    ("exact.render_scalar.self_ms", "exact.render_scalar", "self"),
    ("cli.main.self_ms", "cli.main", "self"),
]
for _metric, _name, _kind in LAYER_METRICS:
    UNITS[_metric] = "calls/op" if _kind == "calls" else "ms/op"


# reference kernels per workload, chosen to resemble the workload's own work
KERNELS = {"witness": ("fraction",), "invert": ("fraction",), "cli": ("fraction", "parser")}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import faberfib from this checkout's src/, never from anywhere else."""
    if not (SOURCE / "faberfib" / "__init__.py").is_file():
        raise ProgramMissing(f"no faberfib sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import faberfib

    if Path(faberfib.__file__).resolve().parent != SOURCE / "faberfib":
        raise ProgramMissing(f"faberfib was imported from {faberfib.__file__}, not {SOURCE}")
    return faberfib


def warm_up(workload, seed: int):
    """Run untimed ops from a separate stream, which fills the partition cache."""
    for op in islice(workload.ops(-1 - seed), workload.warmup_ops):
        workload.run(op)


def setup_probe(name: str, seed: int) -> dict:
    """Time to import faberfib and warm up in this fresh interpreter."""
    from reference import Speed

    speed = Speed(KERNELS[name])
    before = statistics.median(speed.sample() for _ in range(3))
    start, cpu_start = perf_counter(), process_time()
    import_program()
    from workloads import WORKLOADS

    warm_up(WORKLOADS[name], seed)
    wall, cpu = perf_counter() - start, process_time() - cpu_start
    after = statistics.median(speed.sample() for _ in range(3))
    return {"wall_s": wall, "cpu_s": cpu, "setup_s": cpu * speed.scale(before, after)}


def measure_setup(name: str, seed: int) -> list[dict]:
    probes = []
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def freeze_heap():
    """Move everything set up so far out of the collector's reach.

    Without this a full collection walks the whole interpreter heap and
    adds about 10 ms to whichever op it lands in, which decides the small
    requests' tail by how many such collections a run happens to get.
    Objects the ops create are still collected as usual.
    """
    gc.collect()
    gc.freeze()


def run_op(workload, op):
    """(result, error text) of one op; an exception is the op's failure."""
    try:
        return workload.run(op), None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return None, f"raised {type(exc).__name__}: {exc}"


def tail_stats(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it.

    With fewer than 21 samples no percentile at or above the median has
    ten beyond it, and the maximum is reported as the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 20:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {"samples": n, "p50": 1000 * statistics.median(ordered),
            "tail": 1000 * tail, "tail_percentile": pct}


def timed_run(workload, checker, seed: int, seconds: float) -> dict:
    from reference import Speed

    speed = Speed(KERNELS[workload.name])
    ops = workload.ops(seed)
    samples = []  # (class, label, wall seconds, reference seconds, stage seconds or None)
    failures = []
    timed = 0.0
    freeze_heap()
    while timed < seconds:
        op = next(ops)
        before = speed.sample()
        start, cpu_start = perf_counter(), process_time()
        result, error = run_op(workload, op)
        cpu = process_time() - cpu_start
        elapsed = perf_counter() - start
        scale = speed.scale(before, speed.sample())
        timed += elapsed
        problems = [error] if error else checker(op, result)
        if problems:
            failures.append({"op": op.index, "label": op.label, "problems": problems[:3]})
        samples.append((op.latency_class, op.label, elapsed, cpu * scale,
                        getattr(result, "stage_s", None)))

    by_class: dict[str, list] = {}
    by_label: dict[str, list] = {}
    for latency_class, label, wall, ref, stages in samples:
        by_class.setdefault(latency_class, []).append((wall, ref))
        by_label.setdefault(label, []).append((ref, stages))
    latency_ref = {cls: tail_stats([r for _, r in v]) for cls, v in sorted(by_class.items())}
    latency_wall = {cls: tail_stats([w for w, _ in v]) for cls, v in sorted(by_class.items())}
    metrics = {"ops_per_s": len(samples) / sum(sample[3] for sample in samples)}
    for cls in ("small", "large"):
        metrics[f"latency_p50_ms.{cls}"] = latency_ref[cls]["p50"]
        metrics[f"latency_tail_ms.{cls}"] = latency_ref[cls]["tail"]
    metrics["error_rate"] = len(failures) / len(samples)

    growth = {}
    if workload.by_order:
        for label, entries in sorted(by_label.items(), key=lambda item: int(item[0])):
            row = {"samples": len(entries),
                   "p50_ms": 1000 * statistics.median(e for e, _ in entries)}
            stages = [stage for _, stage in entries if stage is not None]
            for stage in stages[0] if stages else ():
                row[f"{stage}_p50_wall_ms"] = 1000 * statistics.median(s[stage] for s in stages)
            growth[label] = row
    return {
        "metrics": metrics,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:50],
        "timed_wall_s": timed,
        "wall_ops_per_s": len(samples) / timed,
        "latency_ms": latency_ref,
        "latency_wall_ms": latency_wall,
        "ops_per_class": {cls: len(v) for cls, v in sorted(by_class.items())},
        "ops_per_label": {label: len(v) for label, v in sorted(by_label.items())},
        "growth_ms": growth,
    }


def traced_run(workload, checker, seed: int, seconds: float) -> dict:
    """Run each op untraced and then traced, round after round, until time is up.

    Pairing the two runs of an op keeps machine speed swings out of
    `trace_overhead`.  Counts are taken from the first round.
    """
    from tracing import Tracer

    ops = list(islice(workload.ops(seed), workload.trace_ops))
    tracer = Tracer()
    reference = []
    failures = []
    first = None
    rounds = 0
    untraced = traced = 0.0
    deadline = perf_counter() + seconds
    freeze_heap()
    while rounds == 0 or perf_counter() < deadline:
        for position, op in enumerate(ops):
            start = perf_counter()
            plain = run_op(workload, op)
            untraced += perf_counter() - start
            tracer.op_index = op.index
            tracer.install()
            try:
                start = perf_counter()
                with_trace = run_op(workload, op)
                traced += perf_counter() - start
            finally:
                tracer.uninstall()
            if rounds == 0:
                reference.append(plain)
                result, error = plain
                problems = [error] if error else checker(op, result)
                if problems:
                    failures.append({"op": op.index, "label": op.label, "problems": problems[:3]})
            if plain != reference[position] or with_trace != reference[position]:
                failures.append({"op": op.index, "label": op.label,
                                 "problems": ["output differs from the checked run"]})
        if first is None:
            first = tracer.snapshot()
        rounds += 1

    per_op = len(ops)
    metrics = {}
    for metric, name, kind in LAYER_METRICS:
        if kind == "calls":
            metrics[metric] = first["calls"].get(name, 0) / per_op
        else:
            metrics[metric] = 1000 * tracer.self_time.get(name, 0.0) / (rounds * per_op)
    metrics["faber.partition_terms"] = first["calls"].get("faber.partition_terms", 0) / per_op
    metrics["bounds.escalations"] = first["calls"].get("bounds.escalations", 0) / per_op
    metrics["exact.interval.max_bits"] = first["max_bits"]
    metrics["trace_overhead"] = traced / untraced
    return {
        "metrics": metrics,
        "attempted": 2 * rounds * per_op,
        "failed": len(failures),
        "failures": failures[:50],
        "rounds": rounds,
        "ops_per_round": per_op,
        "ops_per_label": {label: sum(op.label == label for op in ops)
                          for label in sorted({op.label for op in ops})},
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "stage_wall_ms_by_order": stage_times(tracer.spans, ops),
        "counts_first_round": dict(sorted(first["calls"].items())),
        "spans": tracer.spans,
    }


def stage_times(spans, ops) -> dict:
    """Traced inclusive ms per call of the ROADMAP baseline routes, by op order."""
    label = {op.index: op.label for op in ops}
    wanted = {"golden.solve_schwarz", "series.revert", "faber.faber_inverse_coefficients",
              "tremblay.membership_witness"}
    totals: dict[tuple, list] = {}
    for op_index, _, _, name, start, end in spans:
        if name in wanted:
            entry = totals.setdefault((name, label[op_index]), [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
    out: dict = {}
    for (name, order), (count, total) in sorted(totals.items()):
        out.setdefault(order, {})[name] = 1000 * total / count
    return out


def probe_known_defects() -> list[dict]:
    """Send each ROADMAP item 5 input once and say whether it still breaks the contract."""
    from check import check_contract, strict_json
    from workloads import KNOWN_DEFECTS, call_cli

    out = []
    for argv, cause in KNOWN_DEFECTS:
        result = call_cli(argv)
        conforms = False
        if result.raised is None and result.exit_code in (2, 3):
            conforms = not check_contract(result, result.exit_code)
        elif result.raised is None and result.exit_code == 0:
            try:
                strict_json(result.stdout)
                conforms = True
            except ValueError:
                pass
        out.append({
            "argv": argv,
            "status": "conforms" if conforms else "defect",
            "cause": None if conforms else f"ROADMAP item 5: {cause}",
            "exit": result.exit_code,
            "raised": result.raised,
            "stdout_head": result.stdout[:80],
        })
    return out


def run_record(args) -> dict:
    import mpmath

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "loop": "closed, one client, one thread",
    }


def contract_metrics(mode_key: str, metrics: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": metrics[m["name"]], "unit": UNITS[m["name"]]} for m in spec[mode_key]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("witness", "invert", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.pop("FABERFIB_PRECISION", None)  # the CLI must see its documented default
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    from check import CHECKS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    checker = CHECKS[args.workload]
    setup_probes = measure_setup(args.workload, args.seed)
    warm_up(workload, args.seed)
    if args.trace:
        outcome = traced_run(workload, checker, args.seed, args.seconds)
    else:
        outcome = timed_run(workload, checker, args.seed, args.seconds)
        outcome["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in setup_probes)
        outcome["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = outcome.pop("spans", None)
    report = {
        "record": run_record(args),
        "setup_probes": setup_probes,
        **outcome,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in outcome["metrics"].items()},
    }
    if workload.by_order:
        report["roadmap_baseline_s"] = ROADMAP_BASELINE_S
        report["growth_note"] = GROWTH_NOTE
    if args.workload == "cli":
        report["known_defects"] = probe_known_defects()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": contract_metrics("per_layer" if args.trace else "end_to_end", outcome["metrics"]),
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
