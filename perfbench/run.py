"""The feww benchmark: one certified search per operation, end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; `feww` is imported from its
`src/` directory. The workload's stream files are generated from `--seed`
into `.perfbench/` before timing starts. Each operation calls
`feww.cli.main` in-process with one search `--seed`; operations run in
rounds, one per instance of the workload, until `--seconds` have passed
(a closed loop with one client). Every operation's output is then checked
against the exact oracle (see checks.py), outside the timed region.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1`, untraced and traced operations alternate and it carries
the per-layer metrics of tracing.py. Lines before it give the environment,
every metric by name with its unit, the timing tail, and any errors. The
sha256 of each operation's stdout is written to
`.perfbench/digests/<workload>-seed<n>.json`, keyed by instance and search
seed, and compared with `perfbench/digests.json` (the first four ops of
seeds 1-10 of every workload, recorded when the benchmark was defined); a
difference is reported, not counted as an error.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

if __name__ == "__main__" and not (SRC / "feww" / "__init__.py").is_file():
    print(f"error: no feww package under {SRC}; run from a source checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import feww.cli  # noqa: E402
import numpy  # noqa: E402
import sympy  # noqa: E402
from feww.l0 import repetitions_for  # noqa: E402

from checks import Verdict, check  # noqa: E402
from tracing import Tracer, traced  # noqa: E402
from workloads import WORKLOADS, Instance, build  # noqa: E402

# A fresh interpreter that imports feww and runs one operation.
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from feww.cli import main; " \
         "sys.exit(main(sys.argv[2:]))"


@dataclass
class Op:
    instance: Instance
    seed: int
    seconds: float
    verdict: Verdict
    digest: str
    tracer: Optional[Tracer] = None  # set on a traced op
    peak_bytes: int = 0


def run_op(inst: Instance, seed: int, tracer: Optional[Tracer] = None,
           memory: bool = False) -> Op:
    """One search through feww.cli.main, timed, then oracle-checked."""
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    gc.collect()
    if memory:
        tracemalloc.start()
    layers = traced(tracer) if tracer is not None else contextlib.nullcontext()
    with layers:
        main = feww.cli.main if tracer is None else tracer.span("cli", feww.cli.main)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(inst.argv(seed))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an error of the program under test, counted below
            raised = f"{type(exc).__name__}: {exc}"
        took = perf_counter() - start
    peak = 0
    if memory:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    stdout = out.getvalue()
    return Op(inst, seed, took, check(inst, seed, rc, stdout, raised),
              hashlib.sha256(stdout.encode()).hexdigest(), tracer, peak)


def setup_once(inst: Instance, seed: int) -> tuple[float, Op]:
    """Wall time of a fresh interpreter importing feww and running one op."""
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", _CHILD, str(SRC), *inst.argv(seed)],
                              capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        took = perf_counter() - start
        return took, Op(inst, seed, took, check(inst, seed, None, "", "timed out"), "")
    took = perf_counter() - start
    verdict = check(inst, seed, proc.returncode, proc.stdout)
    return took, Op(inst, seed, took, verdict, hashlib.sha256(proc.stdout.encode()).hexdigest())


def by_instance(ops: list[Op], value) -> float:
    """Median of value(op) per instance, averaged over the instances, so a
    workload with two instances weighs them equally."""
    groups: dict[str, list[float]] = {}
    for op in ops:
        groups.setdefault(op.instance.name, []).append(value(op))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def tail(ops: list[Op]) -> str:
    """The highest percentile with at least ten ops beyond it."""
    times = sorted(op.seconds for op in ops)
    for pct in (99.9, 99, 95, 90, 75, 50):
        beyond = int(len(times) * (100 - pct) / 100)
        if beyond >= 10:
            value = times[len(times) - beyond - 1]
            return f"op_s_tail = p{pct:g} {value:.6f} s over {len(times)} ops ({beyond} beyond)"
    return f"op_s_tail omitted: {len(times)} ops, fewer than ten beyond any percentile"


def end_to_end(timed: list[Op], memory: list[Op], setups: list[float],
               every: list[Op]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (by_instance(timed, lambda op: op.seconds), "s"),
        "updates_per_s": (by_instance(timed, lambda op: len(op.instance.updates)
                                      / op.seconds), "1/s"),
        "peak_mb": (by_instance(memory, lambda op: op.peak_bytes / 1e6), "MB"),
        "space_edges": (by_instance(timed, lambda op: op.verdict.space_edges), "count"),
        "space_items": (by_instance(timed, lambda op: op.verdict.space_edges
                                    + op.verdict.space_words), "count"),
        "success_rate": (sum(op.verdict.success for op in every) / len(every), "ratio"),
        "sound_rate": (sum(op.verdict.error is None for op in every) / len(every), "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(op: Op) -> dict:
    """Per-layer figures of one traced operation."""
    tr = op.tracer
    t, s, c = tr.total, tr.self_time, tr.counts
    graph = op.instance.graph
    rows = 0
    for run in tr.insdel_runs:
        cfg = run.config
        nonzero = (graph.edge_count * cfg.edge_samplers
                   + sum(graph.degree(a) for a in run.sampled_vertices)
                   * cfg.samplers_per_vertex)
        rows += nonzero * repetitions_for(cfg.sampler_delta)
    ok, failed = c["l0.draw_ok"], c["l0.draw_failed"]
    return {
        "core.parse_s": t["core.parse"],
        "core.parse_ups": _ratio(c["core.updates"], t["core.parse"]),
        "insertion_only.run_s": t["insertion_only.run"],
        "insertion_only.ups": _ratio(c["insertion_only.updates"], t["insertion_only.run"]),
        "insertion_only.runs": c["insertion_only.run.calls"],
        "reservoir.candidates": c["reservoir.candidates"],
        "reservoir.entries": c["reservoir.entries"],
        "reservoir.stored_edges": c["reservoir.stored_edges"],
        "l0.banks": c["l0.banks"],
        "l0.cells": c["l0.cells"],
        "l0.setup_s": t["l0.setup"],
        "l0.update_calls": c["l0.update.calls"],
        "l0.update_s": t["l0.update"],
        "l0.draw_s": t["l0.draw"],
        "l0.row_updates": rows,
        "l0.ns_per_row_update": _ratio(t["l0.draw"] * 1e9, rows),
        "l0.draw_ok": ok,
        "l0.draw_empty": c["l0.draw_empty"],
        "l0.draw_failed": failed,
        "l0.draw_ok_ratio": _ratio(ok, ok + failed),
        "l0.cancelled_share": op.instance.cancelled_share,
        "insertion_deletion.run_s": t["insertion_deletion.run"],
        "insertion_deletion.self_s": s["insertion_deletion.run"],
        "insertion_deletion.pooled_edges": c["insertion_deletion.pooled_edges"],
        "stars.run_s": t["stars.run"],
        "stars.double_s": t["stars.double"],
        "stars.self_s": s["stars.run"],
        "stars.inner_runs": c["stars.inner_runs"],
        "stars.updates_replayed": c["stars.updates_replayed"],
        "cli.self_s": s["cli"],
        "trace.accounted_share": _ratio(sum(s.values()), op.seconds),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ups"):
        return "1/s"
    if name.endswith(("_ratio", "_share", "overhead")):
        return "ratio"
    return "ns" if name.endswith("ns_per_row_update") else "count"


def per_layer(plain: list[Op], traced_ops: list[Op]) -> dict:
    values = {id(op): layer_values(op) for op in traced_ops}
    names = values[id(traced_ops[0])]
    out = {name: (by_instance(traced_ops, lambda op: values[id(op)][name]), _unit(name))
           for name in names}
    traced_p50 = by_instance(traced_ops, lambda op: op.seconds)
    out["trace.overhead"] = (traced_p50 / by_instance(plain, lambda op: op.seconds), "ratio")
    return out


def environment() -> str:
    engine = "numba" if importlib.util.find_spec("numba") else "numpy"
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env: python={platform.python_version()} numpy={numpy.__version__} "
            f"sympy={sympy.__version__} engine={engine} nproc={os.cpu_count()} {threads}")


def record_digests(workload: str, seed: int, ops: list[Op]) -> str:
    digests = {f"{op.instance.name}:{op.seed}": op.digest for op in ops}
    path = OUT / "digests" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    reference_file = HERE / "digests.json"
    reference = {}
    if reference_file.is_file():
        reference = json.loads(reference_file.read_text()).get(workload, {}).get(str(seed), {})
    shared = [k for k in digests if k in reference]
    differ = [k for k in shared if digests[k] != reference[k]]
    return (f"digests: {len(digests)} ops written to {path.relative_to(ROOT)}; "
            f"{len(shared) - len(differ)} of {len(shared)} in the reference match"
            + (f"; differ: {' '.join(differ)}" if differ else ""))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, list[Op], list[str]]:
    """Run one benchmark pass; returns metrics, every op made, and notes."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    instances = build(workload, rng.getrandbits(32), OUT / "streams" / workload, size)
    # The streams and oracle graphs held here must not lengthen the
    # program's garbage collections: move them out of the collector's view.
    gc.collect()
    gc.freeze()
    every = [run_op(inst, rng.getrandbits(32)) for inst in instances]  # warm-up
    plain: list[Op] = []
    traced_ops: list[Op] = []
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds or not plain:
        for inst in instances:
            if trace:
                first_traced = rounds % 2 == 1
                for traced_turn in (first_traced, not first_traced):
                    op = run_op(inst, rng.getrandbits(32), Tracer() if traced_turn else None)
                    (traced_ops if traced_turn else plain).append(op)
            else:
                plain.append(run_op(inst, rng.getrandbits(32)))
        rounds += 1
    every += plain + traced_ops
    notes = [tail(plain)]
    if trace:
        metrics = per_layer(plain, traced_ops)
    else:
        memory = [run_op(inst, rng.getrandbits(32), memory=True) for inst in instances]
        setups = []
        for _ in range(SETUP_REPEATS):
            took, op = setup_once(instances[0], rng.getrandbits(32))
            setups.append(took)
            every.append(op)
        every += memory
        metrics = end_to_end(plain, memory, setups, every)
    notes.append(record_digests(workload, seed, every))
    return metrics, every, notes


def result(metrics: dict, ops: list[Op]) -> dict:
    """The final stdout object: every op that errs counts as failed."""
    failed = sum(op.verdict.error is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; lines are
    prefixed with the workload and metrics keyed `<workload>.<metric>`."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same shapes at self-test scale")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    print(environment())
    metrics, ops, notes = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.size)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    for op in ops:
        if op.verdict.error is not None:
            print(f"error: {op.instance.name} seed={op.seed}: {op.verdict.error}")
    print(json.dumps(result(metrics, ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
