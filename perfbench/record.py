"""Record every operation's expected exit code and stdout sha256.

    python3 perfbench/record.py [workload ...]

Runs each workload's operations once per shipped input seed and rewrites
those entries of ``expected.json``.  It refuses to record an output that an
oracle or a library verifier contradicts.  A known defect is recorded with
the correct verdict (exit 0 and the "ok" line of `rpt check`), not with
today's output, so it stays visible as a failed operation until fixed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(name: str, seed: int) -> dict:
    rpt = run.import_rpt()
    workdir = os.path.join(run.WORK, f"record-{name}-{seed}")
    try:
        work = workloads.BUILDERS[name](workloads.Builder(rpt, name, seed, workdir))
        problems = [p for check in work.self_checks for p in check()]
        table = {}
        for op in work.ops:
            code, out, err = run.run_op(rpt, op)
            want = work.verdicts.get(op.op_id, 0)
            if op.op_id in workloads.KNOWN_DEFECTS:
                kind = op.op_id.split(":")[1]
                table[op.op_id] = [want, run.digest(workloads.check_ok_line(rpt, kind))]
                continue
            if code != want:
                problems.append(f"{op.op_id}: exit {code}, expected {want}: {err.strip()}")
            oracle = work.oracles.get(op.op_id)
            if oracle is not None and code == 0 and (problem := oracle(out)):
                problems.append(f"{op.op_id}: {problem}")
            table[op.op_id] = [code, run.digest(out)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        raise run.BenchError(f"{name} seed {seed}: " + "; ".join(problems))
    return table


def main(argv: list[str]) -> int:
    sys.path.insert(0, run.SRC)
    names = argv or list(workloads.BUILDERS)
    expected = {}
    if os.path.exists(run.EXPECTED):
        with open(run.EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
    for name in names:
        expected[name] = {str(seed): record(name, seed)
                          for seed in range(workloads.SHIPPED_SEEDS)}
        print(f"recorded {name}: {len(expected[name]['0'])} operations x "
              f"{workloads.SHIPPED_SEEDS} seeds")
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
