"""Benchmark of the ultragraph command line on seeded documents.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-ultra --seed 1 --seconds 20 --trace 0

One op is one in-process call of `ultragraph.cli.main([...])` with `-o`
to a file.  Each output is checked against the benchmark's own
computations.  The last line of standard output is one JSON object:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a
traced run with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HASH_SEED = "0"  # fixes set and dict order inside the program for every run
SETUPS = 3


def _args() -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _import_program():
    """Import ultragraph afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "ultragraph" or m.startswith("ultragraph.")]:
        del sys.modules[name]
    import ultragraph.cli

    where = Path(ultragraph.cli.__file__).resolve()
    if not where.is_relative_to(SRC):
        sys.exit(f"ultragraph was imported from {where}, not from {SRC}")
    return ultragraph.cli


class Pass:
    """Op times and outcomes of the plain or the traced ops of a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.by_op: dict[str, list[float]] = {}
        self.pairs = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.check_s = 0.0

    def run(self, cli, op) -> float:
        """Run and check one op; return its wall time."""
        self.attempted += 1
        # Leave the benchmark's own objects out of the op's collections, as
        # in a fresh `ultragraph` process.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:
            code = traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - start
        gc.unfreeze()
        # exit codes 2 and 3 are the program's own errors; 1 is a "no"
        if not isinstance(code, int) or code >= 2:
            self.failed += 1
            self.failures.append(f"{op.name}: failed with {code}")
            return elapsed
        self.times.append(elapsed)
        self.by_op.setdefault(op.name, []).append(elapsed)
        self.pairs += op.pairs
        start = time.perf_counter()
        try:
            op.check(code)
        except Exception as exc:
            self.errors.append(f"{op.name}: {exc}")
        self.check_s += time.perf_counter() - start
        return elapsed


def measure(cli, ops, seconds: float, tracer=None) -> tuple[int, Pass, Pass]:
    """Whole rounds of `ops` until the plain ops have taken `seconds`.

    With a tracer, each op runs a second time right after its plain run,
    with the wrappers installed, so that both runs see the same machine.
    """
    plain, traced = Pass(), Pass()
    rounds, spent = 0, 0.0
    while rounds == 0 or spent < seconds:
        for op in ops:
            spent += plain.run(cli, op)
            if tracer is not None:
                tracer.begin(op.name)
                tracer.install()
                try:
                    traced.run(cli, op)
                finally:
                    tracer.uninstall()
        rounds += 1
    return rounds, plain, traced


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    args = _args()
    if not (SRC / "ultragraph" / "__init__.py").is_file():
        print(f"error: no ultragraph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        return _bench(args, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args: argparse.Namespace, tag: str, work: Path) -> int:
    import tracing
    import workloads

    # Set-up: fresh import of the package, inputs generated and written,
    # warm-up ops; repeated, and the median reported.  Each starts from
    # a collected heap, so that no set-up pays for its predecessor's garbage.
    setups = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        gc.collect()
        start = time.perf_counter()
        cli = _import_program()
        ops = workloads.build(args.workload, args.seed, work)
        (work / "warm").mkdir()
        warm = workloads.warmups(args.workload, work / "warm")
        warm_codes = [cli.main(op.argv) for op in warm]
        setups.append(time.perf_counter() - start)
    errors = []
    for op, code in zip(warm, warm_codes):
        try:
            op.check(code)
        except Exception as exc:
            errors.append(f"warm-up {op.name}: {exc}")

    # A traced run splits its time between the plain and the traced ops.
    tracer = tracing.Tracer() if args.trace else None
    rounds, plain, traced = measure(cli, ops, args.seconds / 2 if tracer else args.seconds, tracer)
    errors += plain.errors + traced.errors
    failures = plain.failures + traced.failures
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    if not plain.times or (tracer and not traced.times):
        print("\n".join(failures), file=sys.stderr)
        return 1

    if tracer:
        count = len(traced.times)
        metrics = {}
        for name, (calls, own) in tracer.totals().items():
            metrics[f"{name}.calls"] = {"value": calls / count, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": own / count, "unit": "s"}
        overhead = (sum(traced.times) - sum(plain.times)) / count
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        (OUT / f"trace-{tag}.json").write_text(json.dumps(tracer.dump()))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(plain.times), "unit": "s"},
            "pairs_per_s": {"value": plain.pairs / sum(plain.times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    for name, times in plain.by_op.items():
        print(f"{statistics.median(times):8.3f} s  {name}", file=sys.stderr)
    print(f"set-ups: {' '.join(f'{t:.3f}' for t in setups)} s", file=sys.stderr)
    print(
        f"{rounds} round(s), {len(plain.times)} ops, {sum(plain.times):.2f} s of ops, "
        f"{plain.check_s + traced.check_s:.2f} s of checks",
        file=sys.stderr,
    )
    for line in failures + errors:
        print(line, file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
