"""One benchmark operation in a fresh process.

``run.py`` starts this script once per operation.  It imports the program
from the checkout's ``src``, sets up the operation, then either stops
(``--setup-only``, a set-up time sample) or runs the timed region and
writes a JSON report:

* ``sweep``: a ``repro.api.Sweep`` with ``Executor(jobs=1)`` over the
  cells of ``--plan``, into the store named by ``REPRO_CACHE_DIR``.
* ``regen``: ``repro regen`` through ``repro.cli.main``.

Usage (``run.py`` does this)::

    python3 e2ebench/child.py --kind sweep --plan plan.json \
        --report out.json [--trace 1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import sys
import time
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _count_cycles(counter: Dict[str, int]) -> None:
    """Count simulated cycles at ``GPU.run`` (untimed, one add per call)."""
    from repro.core.gpu import GPU

    original = GPU.run

    def run(self, trace, *args, **kwargs):
        cycles = original(self, trace, *args, **kwargs)
        counter["cycles"] += cycles
        return cycles

    GPU.run = run


def _install_tracer(op_id: str):
    """Wrap each layer's public entry points with spans and counters."""
    import repro.harness._runner as runner
    from repro.api import Executor, Workload
    from repro.core.gpu import GPU
    from repro.emu.machine import Emulator
    from repro.harness.executor import ResultStore
    from repro.mem.subsystem import MemorySubsystem

    from spans import Tracer

    tracer = Tracer(op_id)
    add = tracer.add

    tracer.wrap(Workload, "module", "workloads.build")
    tracer.wrap(Workload, "traces", "emu.trace")

    def launched(_state, trace, _own, *_args) -> None:
        add("emu.launches", 1)
        add("emu.warp_insts", trace.dynamic_instructions)

    tracer.wrap(Emulator, "launch", "emu.launch", after=launched)
    tracer.wrap(runner, "ensure_module_linted", "analysis.lint")
    tracer.wrap(runner, "ensure_module_analyzed", "analysis.interproc")
    tracer.wrap(runner, "run_workload_batch", "harness.run")

    tracer.wrap(Executor, "key_for", "executor.key")

    def stats_before(executor, *_args):
        return executor.stats.as_dict()

    def stats_after(before, _result, _own, executor, *_args) -> None:
        after = executor.stats.as_dict()
        for name in ("executed", "store_hits", "memo_hits", "retries",
                     "failures"):
            add(f"executor.{name}", after[name] - before[name])

    tracer.wrap(Executor, "run_many", "executor.run",
                before=stats_before, after=stats_after)

    def loaded(_state, _result, _own, *_args) -> None:
        add("store.loads", 1)

    def saved(_state, path, _own, *_args) -> None:
        add("store.saves", 1)
        add("store.bytes_written", os.path.getsize(path))

    tracer.wrap(ResultStore, "load", "store.load", after=loaded)
    tracer.wrap(ResultStore, "save", "store.save", after=saved)

    def counters(gpu, *_args):
        s = gpu.stats
        return (s.issue_cycles, sum(s.l1_accesses.values()),
                sum(s.l1_hits.values()), s.dram_accesses, s.pushes, s.traps)

    def simulated(before, cycles, own, gpu, *_args) -> None:
        s = gpu.stats
        issue, l1, hits, dram, pushes, traps = before
        add("core.sim_cycles", cycles)
        add("core.idle_cycles", cycles - (s.issue_cycles - issue))
        add("mem.l1_accesses", sum(s.l1_accesses.values()) - l1)
        add("mem.l1_hits", sum(s.l1_hits.values()) - hits)
        add("mem.dram_accesses", s.dram_accesses - dram)
        add("cars.pushes", s.pushes - pushes)
        add("cars.traps", s.traps - traps)
        if tracer.depth_of("executor.run") == 0:
            add("harness.unstored_runs", 1)
            add("harness.unstored_run_s", own)

    tracer.wrap(GPU, "run", "core.run", before=counters, after=simulated)
    tracer.wrap(MemorySubsystem, "tick", "mem.tick", keep=False)
    return tracer


def _sweep_op(plan: Dict[str, Any]):
    from repro.api import Executor, Sweep

    sources: Dict[str, str] = {}

    def progress(_done, _total, request, source) -> None:
        sources[f"{request.workload}/{request.technique}"] = source

    executor = Executor(jobs=1, progress=progress)
    sweep = Sweep(workloads=plan["workloads"],
                  techniques=plan["techniques"], executor=executor)

    def timed() -> None:
        sweep.run()

    def outputs() -> Dict[str, Any]:
        results = sweep.run()
        return {
            "executor": executor.stats.as_dict(),
            "cells": {
                f"{w}/{t}": {
                    "source": sources.get(f"{w}/{t}", "missing"),
                    "stats": result.stats.to_dict(),
                }
                for (w, t), result in results.items()
            },
        }

    return timed, outputs


def _regen_op(plan: Dict[str, Any]):
    import repro.cli

    captured = io.StringIO()
    status = {}

    def timed() -> None:
        with contextlib.redirect_stdout(captured):
            status["exit"] = repro.cli.main(
                ["regen", plan["output"], "--quiet", "--jobs", "1"])

    def outputs() -> Dict[str, Any]:
        text = captured.getvalue()
        match = re.search(r"simulated (\d+) runs", text)
        return {
            "exit": status.get("exit"),
            "executed": int(match.group(1)) if match else None,
            "stdout": text,
        }

    return timed, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("sweep", "regen"), required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    with open(args.plan) as fh:
        plan = json.load(fh)

    cycles = {"cycles": 0}
    tracer = _install_tracer(plan["op_id"]) if args.trace else None
    if tracer is None:
        _count_cycles(cycles)
    make = _sweep_op if args.kind == "sweep" else _regen_op
    timed, outputs = make(plan)

    first_call = time.monotonic()
    report: Dict[str, Any] = {"first_call": first_call}
    if not args.setup_only:
        if tracer is not None:
            tracer.enter("op")
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        timed()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.exit()
            tracer.unwrap()
            report["trace"] = {
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "counts": tracer.counts,
                "spans": tracer.spans,
                "overhead_s": tracer.overhead_s(),
            }
            cycles["cycles"] = int(tracer.counts.get("core.sim_cycles", 0))
        report.update(
            wall_s=wall,
            cpu_s=cpu,
            sim_cycles=cycles["cycles"],
            peak_rss_mb=peak_rss_mb,
            outputs=outputs(),
        )
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
