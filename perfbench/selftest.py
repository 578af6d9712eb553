"""Self-test of the benchmark at toy sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at toy sizes, untraced and traced, in fresh processes
as a benchmark run would, and asserts that

* every metric ``BENCHMARK.json`` names is emitted with its unit, no other
  metric is, and ``failed_frac`` is printed and zero,
* in the traced run the layers' self times plus the untraced remainder add up
  to the traced wall time,

then feeds the checks one deliberately wrong reference value per checked
table and asserts that ``failed_frac`` rises.  Exits non-zero on the first
failed assertion.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def _run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--scale", "toy"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_emitted(spec, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = _run(workload, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            raise AssertionError(f"{workload} --trace {trace}: metrics {got} != {want}")
        for name, unit in got.items():
            if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
                raise AssertionError(f"{workload}: {name} not printed with unit {unit}")
        if "failed_frac 0 ratio" not in lines or result["failed"] or not result["correct"]:
            raise AssertionError(f"{workload} --trace {trace}: failed operations\n" + "\n".join(lines))
        if trace:
            import tracing

            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            accounted = sum(metrics[k] for k in tracing.ACCOUNTING)
            if not math.isclose(accounted, metrics["trace.wall_s"], rel_tol=1e-6, abs_tol=1e-9):
                raise AssertionError(f"{workload}: self times sum to {accounted}, "
                                     f"traced wall is {metrics['trace.wall_s']}")
        print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
              f"{result['attempted']} operations")


def _failed_frac(workload):
    import run
    import workloads

    ops = workloads.build(workload, 0, "toy")
    _, raw = run.execute(ops)
    outcomes = run.check(ops, raw)
    return sum(o.failed for o in outcomes) / len(outcomes)


def check_wrong_reference():
    import reference as ref

    def corrupt_wide():
        ref.RECORDED_ERRORS[("ex5_1", 1.5, 40, 16)] *= 1.0 + 1e-6

    def corrupt_study():
        for alpha, (errors, rates) in list(ref.TABLE_LEFT.items()):
            ref.TABLE_LEFT[alpha] = ([errors[0] * 1.2, *errors[1:]], rates)

    for workload, corrupt in (("wide1d", corrupt_wide), ("study1d", corrupt_study)):
        saved = dict(ref.RECORDED_ERRORS), dict(ref.TABLE_LEFT)
        before = _failed_frac(workload)
        corrupt()
        try:
            after = _failed_frac(workload)
        finally:
            ref.RECORDED_ERRORS.update(saved[0])
            ref.TABLE_LEFT.update(saved[1])
        if not (before == 0.0 and after > before):
            raise AssertionError(f"{workload}: failed_frac {before} -> {after} "
                                 "with a wrong reference value")
        print(f"ok  {workload}: a wrong reference value raises failed_frac 0 -> {after:.3g}")


def main():
    sys.path.insert(0, str(HERE))
    import run

    run._import_tempfrac()
    import workloads

    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for workload in names:
        check_emitted(spec, workload)
    check_wrong_reference()
    print("self-test passed")


if __name__ == "__main__":
    main()
