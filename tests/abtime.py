"""Paired timing of two source trees in one process.

    python tests/abtime.py BASE CHANGE [--rounds 31] [--seed 1] [--workload NAME ...]

BASE and CHANGE are checkouts, or their ``src`` directories.  Each tree's
``ealgebra`` package is copied into a temporary directory as
``ealgebra_base`` and ``ealgebra_change``, and both are imported into
this process.  The benchmark's operations are built for each side by
``perfbench/workloads.py`` and ``perfbench/worker.py``, which are only
read: one operation per round, a whole certificate batch on
``cert_check``.  A round runs both sides once, the change first on odd
rounds, so a drift in the host's speed falls on both.  Per operation it
prints each side's p10 and median in ms, the base's p25-p75, and the
rounds the change won.  A difference of medians smaller than the base's
p25-p75 spread is within the base's own noise.

Separate processes on a shared host can drift by tens of percent within
minutes; alternating in one process still resolves a difference of a few
percent.  pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as bench  # noqa: E402  (perfbench/run.py: the job a worker gets)
import worker  # noqa: E402
import workloads  # noqa: E402


def load(tree: Path, name: str, into: Path):
    """The ``ealgebra`` package of ``tree`` imported as ``name``."""
    package = tree / "ealgebra" if (tree / "ealgebra").is_dir() else tree / "src" / "ealgebra"
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def unit_of(ea, workload: str, seed: int):
    """One benchmark unit on package ``ea``, as the worker builds it."""
    job = bench.job_for(workloads.generate(workload, seed), "run", 0)
    return worker.make_unit(ea, job, *worker.setup(ea, job))


def timed(unit) -> float:
    gc.collect()
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def answers(ops) -> list:
    return [outcome for outcome, _, _ in ops]


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("base", type=Path)
    cli.add_argument("change", type=Path)
    cli.add_argument("--rounds", type=int, default=31)
    cli.add_argument("--seed", type=int, default=1)
    cli.add_argument("--workload", action="append", choices=sorted(workloads.SIZES))
    args = cli.parse_args(argv)
    if args.rounds < 2:
        cli.error("--rounds must be at least 2, for the base's p25-p75")
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        sides = [load(args.base, "ealgebra_base", Path(scratch)),
                 load(args.change, "ealgebra_change", Path(scratch))]
        print(f"{'operation':16} {'base p10':>9} {'base p50':>9} {'base p25-p75':>13} "
              f"{'change p10':>10} {'change p50':>10} {'wins':>6}")
        for workload in args.workload or sorted(workloads.SIZES):
            units = [unit_of(ea, workload, args.seed) for ea in sides]
            base_answer, change_answer = (answers(unit()) for unit in units)  # warm-up
            if base_answer != change_answer:
                print(f"{workload}: the two trees answer differently", file=sys.stderr)
                return 1
            times: list[list[float]] = [[], []]
            for r in range(args.rounds):
                order = (1, 0) if r % 2 else (0, 1)
                for side in order:
                    times[side].append(timed(units[side]))
            wins = sum(c < b for b, c in zip(*times))
            row = []
            for t in times:
                ms = sorted(x * 1000 for x in t)
                row += [ms[len(ms) // 10], statistics.median(ms)]
            q1, _, q3 = statistics.quantiles(x * 1000 for x in times[0])
            spread = f"{q1:.2f}-{q3:.2f}"
            print(f"{workload:16} {row[0]:9.2f} {row[1]:9.2f} {spread:>13} {row[2]:10.2f} "
                  f"{row[3]:10.2f} {wins:3}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
