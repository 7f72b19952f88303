"""Self-tests of the benchmark's output checks.

Each case feeds the checks a known-bad output and requires it to count
as a failed operation:

* a perturbed golden file (one cell's cycle count off by one);
* a result whose CPI stack no longer sums to its cycles;
* a held-out rerun over the cold run's store whose statistics for one
  cell differ from the cold run's;
* an ``incremental_sweep`` fixture store with one entry removed (that
  cell is simulated instead of served from the store).

Run with ``python3 e2ebench/selftest.py`` (about half a minute: one
``cold_sweep`` and one ``incremental_sweep`` operation).
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

from run import WORK, Bench, check_sweep


def _expect(label: str, failed: int, expected: int, results: list) -> None:
    ok = failed == expected
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {failed} failed "
          f"(expected {expected})")


def self_test() -> int:
    results: list = []
    bench = Bench("cold_sweep", 0)
    outputs = bench.op()["outputs"]
    cells = bench.cells
    _expect("cold_sweep as run", bench.failed, 0, results)

    goldens = WORK / "selftest-golden"
    shutil.rmtree(goldens, ignore_errors=True)
    shutil.copytree(bench.golden_dir, goldens)
    workload, technique = cells[0]
    path = goldens / f"{workload}_{technique}.json"
    golden = json.loads(path.read_text())
    golden["cycles"] += 1
    path.write_text(json.dumps(golden))
    failed = len(check_sweep("cold_sweep", outputs, cells, goldens))
    shutil.rmtree(goldens)
    _expect("perturbed golden", failed, 1, results)

    broken = copy.deepcopy(outputs)
    stack = broken["cells"][f"{workload}/{technique}"]["stats"]["cpi_stack"]
    stack[next(iter(stack))] += 1
    failed = len(check_sweep("cold_sweep", broken, cells, None))
    _expect("broken CPI stack", failed, 1, results)

    warm = copy.deepcopy(outputs)
    for cell in warm["cells"].values():
        cell["source"] = "store"
    warm["cells"][f"{workload}/{technique}"]["stats"]["cycles"] += 1
    failed = len(check_sweep("cold_sweep", outputs, cells, None, warm))
    _expect("warm rerun differing from the cold run", failed, 1, results)

    bench = Bench("incremental_sweep", 0)
    damaged = WORK / "selftest-store"
    shutil.rmtree(damaged, ignore_errors=True)
    shutil.copytree(bench.seed_store, damaged)
    sorted(damaged.glob("*.json"))[0].unlink()
    try:
        bench.op(store=damaged)
    finally:
        shutil.rmtree(damaged)
    _expect("fixture store missing one entry", bench.failed, 1, results)

    print(f"{sum(results)}/{len(results)} self-tests passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(self_test())
