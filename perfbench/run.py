"""Closed-loop, single-client benchmark of the `rpt` toolkit.

    python3 perfbench/run.py --workload count --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread: each operation (one ``rpt.cli.main``
call or one public library call) starts when the previous one has ended.

Host drift is corrected by timing a fixed pure-Python reference loop before
every operation (and once after the last) and dividing each operation's wall
time by the mean of the loops around it.  ``pass_norm`` sums, over the
workload's operations, each one's median normalised time: one pass in
reference-loop units.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of ``tracing.py`` instead.

Every operation's exit code and stdout sha256 are compared with the values
recorded in ``expected.json``; output oracles and the library verifiers run
once on an untimed gate pass.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPS = 3
# setup_s is reported at this reference-loop speed (about this loop's time
# on a 2-CPU x86-64 container with CPython 3.11)
REF_NOMINAL_S = 0.004
PERCENTILES = (50, 75, 90, 95, 99)


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def reference_loop() -> int:
    """Fixed pure-Python work: xorshift bit operations and Fraction sums."""
    x, acc, f = 0x9E3779B97F4A7C15, 0, Fraction(0)
    mask = 0xFFFFFFFFFFFFFFFF
    for i in range(1, 5001):
        x ^= (x << 13) & mask
        x ^= x >> 7
        x ^= (x << 17) & mask
        acc += (x & 0xFFFF).bit_count()
        if i % 8 == 0:
            f += Fraction(x & 1023, i)
    return acc + f.numerator % 7


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def isolation_problem() -> str | None:
    """Threads or child processes left alive by an operation."""
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return None if threading.active_count() == 1 else "extra Python threads alive"
    if len(tasks) != 1:
        return f"{len(tasks)} threads alive"
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                if fh.read().strip():
                    return "child processes alive"
        except OSError:
            pass
    return None


def import_rpt():
    """A fresh import of the package and every module the benchmark calls."""
    for name in [n for n in sys.modules if n == "rpt" or n.startswith("rpt.")]:
        del sys.modules[name]
    rpt = importlib.import_module("rpt")
    for sub in ("cli", "serialize", "values", "ledger", "graph"):
        importlib.import_module(f"rpt.{sub}")
    if os.path.dirname(os.path.abspath(rpt.__file__)) != os.path.join(SRC, "rpt"):
        raise BenchError(f"imported rpt from {rpt.__file__}, not from this checkout")
    return rpt


def run_op(rpt, op) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one operation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if op.argv is not None:
            code = rpt.cli.main(op.argv)
        else:
            try:
                print(op.call(), end="")
                code = 0
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                print(f"error: {exc!r}", file=sys.stderr)
                code = 1
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, round(p / 100 * len(ordered) + 0.5) - 1))
    return ordered[k]


def tail_label(n: int) -> int | None:
    """Highest listed percentile with at least ten samples beyond it."""
    fitting = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else None


def setup(workload_name: str, seed: int, workdir: str):
    """Set up SETUP_REPS times (fresh import, inputs, certificates); keep the last."""
    import workloads

    walls, refs = [], []
    rpt = work = None
    for rep in range(SETUP_REPS):
        refs += [time_reference() for _ in range(3)]
        gc.collect()
        t0 = time.perf_counter()
        rpt = import_rpt()
        builder = workloads.Builder(rpt, workload_name, workloads.input_seed(seed),
                                    os.path.join(workdir, f"rep{rep}"))
        work = workloads.BUILDERS[workload_name](builder)
        walls.append(time.perf_counter() - t0)
    return rpt, work, walls, refs


class Gate:
    """Compares each operation's output with its recorded expectation."""

    def __init__(self, workload_name: str, seed: int, ops):
        import workloads

        with open(EXPECTED, encoding="utf-8") as fh:
            table = json.load(fh).get(workload_name, {}).get(str(workloads.input_seed(seed)))
        if table is None:
            raise BenchError(f"no recorded outputs for {workload_name} at this seed")
        missing = [op.op_id for op in ops if op.op_id not in table]
        if missing:
            raise BenchError(f"no recorded output for {missing[0]} (re-run record.py)")
        self.expected = {op_id: tuple(v) for op_id, v in table.items()}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # a verdict or answer that differs: incorrect output
        self.errors: dict[str, str] = {}  # op_id -> stderr of a failed operation
        self.seen: dict[str, tuple[int, str]] = {}

    def record(self, op_id: str, code: int, out: str, err: str) -> None:
        self.attempted += 1
        got = (code, digest(out))
        want = self.expected[op_id]
        if op_id in self.seen and self.seen[op_id] != got:
            # also how traced passes are held to the untraced gate pass
            self.wrong.append(f"{op_id}: output differs from the gate pass")
        self.seen.setdefault(op_id, got)
        if got == want:
            return
        self.failed += 1
        if code in (0, 2) or code == want[0]:
            self.wrong.append(f"{op_id}: exit {code}, expected {want[0]}"
                              + (" with other stdout" if code == want[0] else ""))
        else:
            lines = err.strip().splitlines()
            self.errors.setdefault(op_id, lines[-1] if lines else f"exit {code}")


def run_passes(rpt, ops, gate: Gate, seconds: float, tracer=None):
    """Timed passes until ``seconds`` have elapsed; with a tracer, passes
    alternate untraced / traced.  Each operation's time is divided by the
    mean of the reference loops run just before and just after it."""
    passes = {"plain": [], "traced": []}
    labels = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        walls, refs = [], []
        for op in ops:
            gc.collect()
            refs.append(time_reference())
            if traced:
                tracer.op = len(labels)
                labels.append(f"{k}:{op.op_id}")
            t0 = time.perf_counter()
            code, out, err = run_op(rpt, op)
            walls.append(time.perf_counter() - t0)
            problem = isolation_problem()
            if problem:
                raise BenchError(f"after {op.op_id}: {problem}")
            gate.record(op.op_id, code, out, err)
        gc.collect()
        refs.append(time_reference())
        if traced:
            tracer.uninstall()
        norms = [2 * w / (r0 + r1) for w, r0, r1 in zip(walls, refs, refs[1:])]
        passes["traced" if traced else "plain"].append(
            {"norms": norms, "wall": sum(walls), "ref": statistics.median(refs)})
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or k % 2 == 0):
            return passes, labels


def pass_norm(passes) -> float:
    """The median pass: per operation the median normalised time, summed."""
    return sum(statistics.median(col) for col in zip(*(p["norms"] for p in passes)))


def gate_pass(rpt, work, gate: Gate) -> list[str]:
    """Untimed first pass: outputs against the record and the oracles."""
    problems = []
    for op in work.ops:
        code, out, err = run_op(rpt, op)
        gate.record(op.op_id, code, out, err)
        oracle = work.oracles.get(op.op_id)
        if oracle is not None and code == 0:
            problem = oracle(out)
            if problem:
                problems.append(f"{op.op_id}: {problem}")
    for check in work.self_checks:
        problems += check()
    gate.attempted = gate.failed = 0  # only timed passes are counted
    return problems


def summarize(values: list[float]) -> str:
    p = tail_label(len(values))
    tail = f", p{p} {percentile(values, p):.4f}" if p else ", no percentile has 10 samples beyond"
    return f"median {statistics.median(values):.4f}{tail}, n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["count", "pipeline", "check",
                                                           "constants"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rpt", "__init__.py")):
        print(f"error: no rpt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        return bench(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: str) -> int:
    import tracing
    import workloads

    rpt, work, setup_walls, setup_refs = setup(args.workload, args.seed, workdir)
    gate = Gate(args.workload, args.seed, work.ops)
    problems = gate_pass(rpt, work, gate)

    tracer = tracing.Tracer(rpt) if args.trace else None
    startup_s = time.perf_counter() - T_START  # to the first timed operation
    passes, labels = run_passes(rpt, work.ops, gate, args.seconds, tracer)
    problems += gate.wrong
    plain = passes["plain"]
    norms = [sum(p["norms"]) for p in plain]
    walls = [p["wall"] for p in plain]
    ref_s = statistics.median([p["ref"] for p in plain])

    for problem in dict.fromkeys(problems):
        print(f"gate: {problem}")
    for op_id, err in gate.errors.items():
        note = workloads.KNOWN_DEFECTS.get(op_id)
        print(f"failed: {op_id}: {err}" + (f"  [known defect: {note}]" if note else ""))
    print(f"workload {args.workload}, seed {args.seed} (input seed "
          f"{workloads.input_seed(args.seed)}), {len(work.ops)} operations per pass, "
          f"closed loop, one client")
    print(f"diag wall_s per pass: {summarize(walls)} (not gated: host drift)")
    print(f"diag ref_s: median {ref_s:.6f}; setup walls {[round(w, 4) for w in setup_walls]}; "
          f"startup_s {startup_s:.4f}")
    print(f"diag failed_ratio: {gate.failed}/{gate.attempted} = "
          f"{gate.failed / max(1, gate.attempted):.6f}")
    print(f"diag per-pass sums of normalised times: {summarize(norms)}")

    if tracer is None:
        setup_ref = statistics.median(setup_refs)
        metrics = {
            "pass_norm": (pass_norm(plain), "ref"),
            "setup_s": (statistics.median(setup_walls) * REF_NOMINAL_S / setup_ref, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = passes["traced"]
        overhead = pass_norm(traced) / pass_norm(plain) - 1
        traced_ns = sum(p["wall"] for p in traced) * 1e9
        values = tracer.metrics(len(traced), traced_ns, overhead)
        metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.write_spans(spans_path, labels)
        print(f"diag traced passes {len(traced)}, spans {len(tracer.spans)} -> "
              f"{os.path.relpath(spans_path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
