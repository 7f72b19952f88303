"""End-to-end benchmark of the CARS reproduction pipeline.

Single-process, closed-loop workloads (one client, one request in
flight, ``Executor(jobs=1)``, the default event backend); every operation
runs in a fresh process started by this script (see ``child.py``).
``BENCHMARK.json`` lists ``cold_sweep`` and ``warm_regen``;
``incremental_sweep`` runs on request (``RATIONALE.md`` says why):

* ``cold_sweep``: the golden trio x {baseline, cars} through ``Sweep``
  into an empty store.
* ``incremental_sweep``: the golden trio x all five arms over a store
  that already holds the ``cold_sweep`` cells.
* ``warm_regen``: ``REPRO_WORKLOADS=smoke repro regen`` over a store
  filled by a cold smoke regen.

Usage::

    python3 e2ebench/run.py --workload cold_sweep --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (medians over the run's operations); ``--trace 1``
runs untraced operations around one traced operation and reports the
per-layer metrics of the traced one.  On the sweeps, a nonzero seed also
sweeps a held-out trio, untimed, as an output check.  ``RATIONALE.md``
explains the choices.

Fixture stores are kept under ``.e2ebench/fixtures/<digest>/``, one
directory per program version, so checking out another version and back
reuses them; delete ``.e2ebench/`` to reclaim the space.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
#: Fixture stores and per-operation scratch, inside the checkout.
WORK = ROOT / ".e2ebench"

GOLDEN_TRIO = ("SSSP", "MST", "FIB")
COLD_ARMS = ("baseline", "cars")
ALL_ARMS = ("baseline", "cars", "regdem", "rfcache", "regcomp")
#: PTA is fig14/fig11's subject (and the slowest workload); Bert_FC
#: duplicates Bert_LT (ROADMAP, suite integrity).
HELD_OUT_EXCLUDED = ("PTA", "Bert_FC")
WORKLOADS = ("cold_sweep", "incremental_sweep", "warm_regen")

#: Set-up samples per run, besides the operations' own (the median is
#: reported).  They are spread between the operations, so one slow or
#: fast moment of the host does not set them all.
SETUP_SAMPLES = 8
#: Operations per run, at least.  The host's speed swings 10-20% from one
#: operation to the next, so the short cold sweep reports the median of
#: three; one regen already takes about 48 s.
MIN_OPS = {"cold_sweep": 3, "incremental_sweep": 2, "warm_regen": 1}
#: Untraced operations of a traced run, around the traced one (their
#: mean is compared with the traced self times).  One regen takes about
#: 50 s, so only one fits beside the traced regen.
UNTRACED_OPS = {"cold_sweep": 2, "incremental_sweep": 2, "warm_regen": 1}
#: Hard caps on one child process: a measured operation, a fixture build.
CHILD_TIMEOUT_S = 150.0
FIXTURE_TIMEOUT_S = 600.0
GENERATED_LINE = re.compile(r"^Generated in \d+s\.$", re.MULTILINE)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a crashed child)."""


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _permuted(items, rng: Optional[random.Random]) -> List[str]:
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return items


def plan_cells(plan: Dict[str, Any]) -> List[Tuple[str, str]]:
    return [(w, t) for w in plan["workloads"] for t in plan["techniques"]]


def sweep_plan(workload: str, seed: int, trio=GOLDEN_TRIO) -> Dict[str, Any]:
    """Cells of a sweep workload: seed 0 in canonical order, any other
    seed in a permuted submission order (same cells, same cost)."""
    rng = random.Random(seed) if seed else None
    arms = COLD_ARMS if workload == "cold_sweep" else ALL_ARMS
    return {
        "workloads": _permuted(trio, rng),
        "techniques": _permuted(arms, rng),
    }


def held_out_trio(seed: int) -> List[str]:
    """One workload per Table II class, drawn from outside the golden
    trio, PTA and Bert_FC; three of the classes, chosen by *seed*."""
    sys.path.insert(0, str(SRC))
    from repro.api import WORKLOAD_NAMES, make_workload

    by_class: Dict[str, List[str]] = {}
    for name in WORKLOAD_NAMES:
        if name in GOLDEN_TRIO or name in HELD_OUT_EXCLUDED:
            continue
        by_class.setdefault(make_workload(name).bottleneck, []).append(name)
    rng = random.Random(seed)
    classes = rng.sample(sorted(by_class), 3)
    return [rng.choice(by_class[c]) for c in classes]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env(store: Path, *, smoke: bool = False) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_CACHE_DIR=str(store),
        REPRO_JOBS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    if smoke:
        env["REPRO_WORKLOADS"] = "smoke"
    return env


def run_child(
    kind: str,
    plan: Dict[str, Any],
    op_dir: Path,
    store: Path,
    *,
    trace: bool = False,
    setup_only: bool = False,
    timeout: float = CHILD_TIMEOUT_S,
) -> Dict[str, Any]:
    """Start ``child.py`` in a fresh process; returns its report plus
    ``setup_s`` (process start to first timed call)."""
    op_dir.mkdir(parents=True, exist_ok=True)
    plan_path = op_dir / "plan.json"
    report_path = op_dir / "report.json"
    plan_path.write_text(json.dumps(plan))
    if report_path.exists():
        report_path.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), "--kind", kind,
           "--plan", str(plan_path), "--report", str(report_path),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    log = op_dir / "child.log"
    with open(log, "w") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=op_dir, env=_child_env(store, smoke=kind == "regen"),
            stdout=fh, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{kind} child timed out; see {log}") from None
    if code != 0 or not report_path.exists():
        tail = log.read_text()[-2000:]
        raise BenchError(f"{kind} child exited {code}:\n{tail}")
    report = json.loads(report_path.read_text())
    report["setup_s"] = report["first_call"] - start
    return report


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program sources the fixtures are built from."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _fixture_root() -> Path:
    """Fixtures of the program version in ``src``; other versions keep
    theirs."""
    root = WORK / "fixtures" / source_digest()
    root.mkdir(parents=True, exist_ok=True)
    return root


def _build(final: Path, make) -> Path:
    """Build a fixture directory once, atomically: ``make(tmp)``."""
    if not final.is_dir():
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        make(tmp)
        shutil.rmtree(tmp / "op", ignore_errors=True)
        tmp.rename(final)
    return final


def cold_store(trio) -> Path:
    """A store holding the ``cold_sweep`` cells of *trio*."""
    def make(tmp: Path) -> None:
        plan = dict(sweep_plan("cold_sweep", 0, trio), op_id="fixture")
        report = run_child("sweep", plan, tmp / "op", tmp / "store",
                           timeout=FIXTURE_TIMEOUT_S)
        if report["outputs"]["executor"]["executed"] != len(trio) * len(COLD_ARMS):
            raise BenchError("cold-cell fixture did not simulate every cell")

    return _build(_fixture_root() / f"cold-{'-'.join(trio)}", make) / "store"


def warm_fixture() -> Path:
    """The store and markdown of a cold smoke regen."""
    def make(tmp: Path) -> None:
        report = run_child("regen", {"op_id": "fixture", "output": "cold.md"},
                           tmp / "op", tmp / "store", timeout=FIXTURE_TIMEOUT_S)
        if report["outputs"]["exit"] != 0:
            raise BenchError("cold smoke regen failed")
        shutil.move(str(tmp / "op" / "cold.md"), str(tmp / "cold.md"))

    return _build(_fixture_root() / "warm", make)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_cell(stats: Dict[str, Any], golden: Optional[Dict[str, Any]]) -> List[str]:
    """Problems with one simulated cell (empty = correct)."""
    problems = []
    if sum(stats["cpi_stack"].values()) != stats["cycles"]:
        problems.append("CPI stack does not sum to cycles")
    if golden is not None and golden != stats:
        problems.append("differs from golden")
    return problems


def check_sweep(
    workload: str,
    outputs: Dict[str, Any],
    cells: List[Tuple[str, str]],
    golden_dir: Optional[Path],
    warm: Optional[Dict[str, Any]] = None,
) -> Dict[str, List[str]]:
    """Problems of each failing cell of one sweep operation (one
    operation per requested cell).  *warm* holds the outputs of a rerun
    over the operation's store, which must serve every cell from the
    store, byte-identical."""
    expected_source = {
        t: "store" if workload == "incremental_sweep" and t in COLD_ARMS else "run"
        for _, t in cells
    }
    problems: Dict[str, List[str]] = {}
    for w, t in cells:
        name = f"{w}/{t}"
        cell = outputs["cells"].get(name)
        if cell is None:
            problems[name] = ["missing"]
            continue
        golden = None
        if golden_dir is not None:
            golden = json.loads((golden_dir / f"{w}_{t}.json").read_text())
        issues = check_cell(cell["stats"], golden)
        if cell["source"] != expected_source[t]:
            issues.append(f"served from {cell['source']}, expected "
                          f"{expected_source[t]}")
        if warm is not None:
            again = warm["cells"].get(name)
            if (again is None or again["source"] != "store"
                    or again["stats"] != cell["stats"]):
                issues.append("warm rerun differs from the cold run")
        if issues:
            problems[name] = issues
    return problems


def check_regen(outputs: Dict[str, Any], markdown: str, cold: str) -> List[str]:
    problems = []
    if outputs["exit"] != 0:
        problems.append(f"regen exited {outputs['exit']}")
    if outputs["executed"] != 0:
        problems.append(f"simulated {outputs['executed']} runs, expected 0")
    if GENERATED_LINE.sub("", markdown) != GENERATED_LINE.sub("", cold):
        problems.append("markdown differs from the cold render")
    return problems


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Bench:
    """One benchmark invocation: a workload, a seed, its fixtures."""

    def __init__(self, workload: str, seed: int) -> None:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources under {SRC}")
        self.workload = workload
        self.seed = seed
        self.kind = "regen" if workload == "warm_regen" else "sweep"
        self.plan = (
            {"output": "regen.md"} if self.kind == "regen"
            else sweep_plan(workload, seed)
        )
        self.golden_dir = GOLDEN_DIR
        # Only the fixture this workload needs is built (by the code under
        # test, once per program version); runs copy it fresh.
        self.seed_store: Optional[Path] = None
        if workload == "incremental_sweep":
            self.seed_store = cold_store(GOLDEN_TRIO)
        elif workload == "warm_regen":
            self.seed_store = warm_fixture() / "store"
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def cells(self) -> List[Tuple[str, str]]:
        return plan_cells(self.plan)

    def _op_dir(self) -> Path:
        self.ops += 1
        op_dir = WORK / "ops" / f"{self.workload}-{os.getpid()}-{self.ops}"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        return op_dir

    def _fresh_store(self, op_dir: Path) -> Path:
        store = op_dir / "store"
        if self.seed_store is not None:
            shutil.copytree(self.seed_store, store)
        return store

    def op(self, *, trace: bool = False, setup_only: bool = False,
           store: Optional[Path] = None) -> Dict[str, Any]:
        """Run one operation in a fresh process and check its outputs."""
        op_dir = self._op_dir()
        try:
            if store is None:
                store = op_dir / "store" if setup_only else self._fresh_store(op_dir)
            plan = dict(self.plan, op_id=f"{self.workload}/{self.seed}/{self.ops}")
            report = run_child(self.kind, plan, op_dir, store,
                               trace=trace, setup_only=setup_only)
            if not setup_only:
                self.score(report, op_dir)
            return report
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    def score(self, report: Dict[str, Any], op_dir: Path) -> None:
        outputs = report["outputs"]
        if self.kind == "regen":
            markdown = (op_dir / self.plan["output"]).read_text()
            issues = check_regen(
                outputs, markdown, (warm_fixture() / "cold.md").read_text())
            self._count(1, {"regen": issues} if issues else {})
        else:
            self._count(len(self.cells), check_sweep(
                self.workload, outputs, self.cells, self.golden_dir))

    def held_out_check(self) -> None:
        """Sweep the seed's held-out trio x {baseline, cars} into an empty
        store, then again in a fresh process over that store; untimed.
        The trio has no goldens, so its cells are checked by CPI
        conservation and cold/warm byte identity (the rerun must serve
        every cell from the store, with identical statistics)."""
        plan = sweep_plan("cold_sweep", self.seed, held_out_trio(self.seed))
        op_dir = self._op_dir()
        try:
            def sweep(rerun: str) -> Dict[str, Any]:
                return run_child(
                    "sweep", dict(plan, op_id=f"held-out/{self.seed}/{rerun}"),
                    op_dir / rerun, op_dir / "store")

            cold = sweep("cold")
            warm = sweep("warm")
            cells = plan_cells(plan)
            self._count(len(cells), check_sweep(
                "cold_sweep", cold["outputs"], cells, None, warm["outputs"]))
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    def _count(self, attempted: int, problems: Dict[str, List[str]]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(
            f"{name}: {'; '.join(issues)}" for name, issues in problems.items())


def end_to_end(bench: Bench, seconds: float) -> Dict[str, Dict[str, Any]]:
    """Untraced operations, at least ``MIN_OPS`` of them and *seconds* of
    timed work; medians over them, plus a median of several set-up
    samples taken before and after each operation."""
    per_gap = -(-SETUP_SAMPLES // (MIN_OPS[bench.workload] + 1))

    def set_up() -> List[float]:
        return [bench.op(setup_only=True)["setup_s"] for _ in range(per_gap)]

    setups = set_up()
    reports: List[Dict[str, Any]] = []
    while (len(reports) < MIN_OPS[bench.workload]
           or sum(r["wall_s"] for r in reports) < seconds):
        reports.append(bench.op())
        setups += set_up()
    setups += [r["setup_s"] for r in reports]
    metrics = {
        "wall_s": (statistics.median([r["wall_s"] for r in reports]), "s"),
        "cpu_s": (statistics.median([r["cpu_s"] for r in reports]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in reports]), "MB"),
        "sim_cycles_per_cpu_s": (
            statistics.median([r["sim_cycles"] / r["cpu_s"] for r in reports]),
            "cycles/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(bench: Bench) -> Dict[str, Dict[str, Any]]:
    """A traced operation between untraced ones; per-layer metrics of the
    traced one.  ``trace.overhead_s`` is the tracing cost worked out in
    the traced process (wrapped calls x the measured cost of one wrapper);
    ``trace.gap_s`` is the sum of the traced self times minus the mean
    untraced wall time, which that cost should account for.  The traced
    operation's spans are written to ``.e2ebench/spans-<workload>.jsonl``."""
    plain = [bench.op()]
    traced = bench.op(trace=True)
    plain += [bench.op() for _ in range(UNTRACED_OPS[bench.workload] - 1)]
    wall = statistics.mean(r["wall_s"] for r in plain)
    t = traced["trace"]
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]
    with open(WORK / f"spans-{bench.workload}.jsonl", "w") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in t["spans"])

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> float:
        return counts.get(name, 0)

    core_s = s("core.run") + s("mem.tick")
    values = {
        "emu.trace_s": (s("emu.trace") + s("emu.launch"), "s"),
        "emu.launches": (n("emu.launches"), "count"),
        "emu.warp_insts": (n("emu.warp_insts"), "count"),
        "emu.warp_insts_per_s": (
            n("emu.warp_insts") / max(s("emu.trace") + s("emu.launch"), 1e-9),
            "1/s"),
        "core.run_s": (s("core.run"), "s"),
        "core.runs": (calls.get("core.run", 0), "count"),
        "core.sim_cycles": (n("core.sim_cycles"), "count"),
        "core.idle_cycles": (n("core.idle_cycles"), "count"),
        "core.sim_cycles_per_s": (n("core.sim_cycles") / max(core_s, 1e-9), "1/s"),
        "mem.tick_s": (s("mem.tick"), "s"),
        "mem.ticks": (calls.get("mem.tick", 0), "count"),
        "mem.l1_accesses": (n("mem.l1_accesses"), "count"),
        "mem.l1_hit_rate": (
            n("mem.l1_hits") / max(n("mem.l1_accesses"), 1), "ratio"),
        "mem.dram_accesses": (n("mem.dram_accesses"), "count"),
        "cars.pushes": (n("cars.pushes"), "count"),
        "cars.traps": (n("cars.traps"), "count"),
        "executor.key_s": (s("executor.key"), "s"),
        "executor.dispatch_s": (s("executor.run"), "s"),
        "executor.executed": (n("executor.executed"), "count"),
        "executor.store_hits": (n("executor.store_hits"), "count"),
        "executor.memo_hits": (n("executor.memo_hits"), "count"),
        "executor.retries": (n("executor.retries"), "count"),
        "executor.failures": (n("executor.failures"), "count"),
        "store.load_s": (s("store.load"), "s"),
        "store.loads": (n("store.loads"), "count"),
        "store.save_s": (s("store.save"), "s"),
        "store.saves": (n("store.saves"), "count"),
        "store.bytes_written": (n("store.bytes_written"), "B"),
        "harness.run_s": (s("harness.run"), "s"),
        "harness.unstored_runs": (n("harness.unstored_runs"), "count"),
        "harness.unstored_share": (
            n("harness.unstored_run_s") / max(s("core.run"), 1e-9), "ratio"),
        "workloads.build_s": (s("workloads.build"), "s"),
        "analysis.lint_s": (s("analysis.lint"), "s"),
        "analysis.interproc_s": (s("analysis.interproc"), "s"),
        "op.other_s": (s("op"), "s"),
        "op.traced_wall_s": (traced["wall_s"], "s"),
        "op.wall_s": (wall, "s"),
        "trace.overhead_s": (t["overhead_s"], "s"),
        "trace.gap_s": (sum(self_s.values()) - wall, "s"),
    }
    print(f"self times sum to {sum(self_s.values()):.3f} s; untraced wall "
          f"{wall:.3f} s; gap {values['trace.gap_s'][0]:.3f} s against "
          f"{t['overhead_s']:.3f} s of tracing overhead", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = Bench(args.workload, args.seed)
        metrics = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
        if bench.kind == "sweep" and args.seed != 0:
            bench.held_out_check()
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
