#!/usr/bin/env python3
"""Record the outputs the benchmark's correctness checks compare against.

For every slot of the seed pool it runs each simulation workload once
and stores, in ``expected.json``:

* ``paper_sweep`` — the sha256 of every rendered table/figure, plus the
  simulations and kernels one regeneration pass performs (slot 0 must
  also match the committed ``results/*.txt``, or recording stops);
* ``stream_saturated`` / ``stream_light`` — application and kernel
  counts, makespan, total λ and p95 response time.

Run from the repository root, only when the program's outputs change on
purpose::

    PYTHONPATH=src REPRO_JIT=off python3 perfbench/record_expected.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402


def record_paper(slot: int) -> dict:
    from repro.experiments import sweep

    sweep_run = worker.PaperSweep(slot, recorded=False)
    executed: list[int] = []
    execute = sweep.execute_payload

    def counting(payload):
        result = execute(payload)
        executed.append(int(result["n_kernels"]))
        return result

    sweep.execute_payload = counting
    try:
        out = sweep_run.run_pass()
    finally:
        sweep.execute_payload = execute
    if sweep_run.results_dir is not None:
        for name, text in out.items():
            committed = (sweep_run.results_dir / f"{name}.txt").read_text(encoding="utf-8")
            if committed != text + "\n":
                raise SystemExit(f"{name} differs from results/{name}.txt")
    from repro.data.paper_tables import FIGURE5_KERNELS

    return {
        "suite_seed": sweep_run.suite_seed,
        # + the two Figure 5 runs (MET and APT on the 5-kernel workload)
        "simulations": len(executed) + 2,
        "kernels": sum(executed) + 2 * len(FIGURE5_KERNELS),
        "digests": {name: worker.digest(text) for name, text in sorted(out.items())},
    }


def record_stream(workload: str, slot: int) -> dict:
    stream = worker.Stream(workload, slot, trace=False, recorded=False)
    return worker.Stream.observed(stream.run_pass()[1])


def main(argv: "list[str] | None" = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    table = {}
    for name in ("paper_sweep", *worker.STREAMS):
        rows = {}
        for slot in range(worker.SEED_POOL):
            rows[str(slot)] = (
                record_paper(slot) if name == "paper_sweep" else record_stream(name, slot)
            )
            print(f"{name} slot {slot}: recorded", flush=True)
        table[name] = rows
    worker.EXPECTED_FILE.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
