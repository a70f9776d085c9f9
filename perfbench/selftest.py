"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json
declares, with their units, on both the plain and the traced run; that
the l0 layer does no work on the insertion-only workloads; that the
layer self-times account for the traced operation; and that the oracle
check counts a tampered certificate and a non-zero exit as errors.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import feww.cli  # noqa: E402

import run  # noqa: E402
from checks import check  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAIL: {what}")
    print(f"ok: {what}")


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    return json.loads(proc.stdout.splitlines()[-1])


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = bench_run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} emits every {key} metric")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{workload} trace={trace} is correct")
            m = {name: v["value"] for name, v in out["metrics"].items()}
            if trace == 0:
                expect(all(v > 0 for v in m.values()), f"{workload} end-to-end metrics are not 0")
            elif workload in ("ins-planted", "star-ins"):
                expect(all(v == 0 for k, v in m.items() if k.startswith("l0.")),
                       f"{workload} does no l0 work")
            else:
                expect(abs(m["trace.accounted_share"] - 1) < 0.05,
                       f"{workload} layer self-times account for the traced op")


def errors_counted() -> None:
    out_dir = run.OUT / "selftest"
    inst = build("ins-planted", 1, out_dir, "tiny")[0]
    seed = 11
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = feww.cli.main(inst.argv(seed))
    lines = text.getvalue().splitlines()
    expect(rc == 0 and check(inst, seed, rc, text.getvalue()).error is None,
           "an untouched certificate passes")
    center = int(lines[0].split()[1])
    stranger = min(set(range(1, inst.params["m"] + 1)) - inst.graph.neighbours(center))
    witnesses = lines[1].split()
    tampered = "\n".join([lines[0], " ".join(witnesses[:-1] + [str(stranger)])] + lines[2:])
    ok_op = run.run_op(inst, seed)
    bad_cert = run.Op(inst, seed, 0.0, check(inst, seed, 0, tampered + "\n"), "")
    broken = build("ins-planted", 1, out_dir, "tiny")[0]
    broken.params["n"] += 1  # --n disagrees with the stream header: the CLI exits 2
    bad_exit = run.run_op(broken, seed)
    expect(bad_cert.verdict.error is not None, f"tampered certificate is an error "
           f"({bad_cert.verdict.error})")
    expect(bad_exit.verdict.error == "exit code 2", "non-zero exit is an error")
    line = run.result({}, [ok_op, bad_cert, bad_exit])
    expect(line["failed"] == 2 and not line["correct"] and line["attempted"] == 3,
           "both count as failed operations")


if __name__ == "__main__":
    errors_counted()
    metric_names()
    print("selftest passed")
