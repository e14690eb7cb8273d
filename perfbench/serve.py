"""``apt-sched serve`` for the service_mixed workload.

Runs the CLI's ``serve`` verb (inline executor, in-memory store,
ephemeral port) in this process.  With ``--trace-out`` it first wraps
the runtime modules (``spans.py``) and, after SIGINT stops the server,
writes the server-side per-layer metrics there, per submitted job; the
first ``worker.SERVICE_WARMUP_JOBS`` submissions (the warm-up) are left
out.  With ``--speed-out`` it samples its core's speed (``speed.py``)
and writes the samples there.

    python perfbench/serve.py [--trace-out FILE] [--speed-out FILE]
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedSampler  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--speed-out", type=Path, default=None,
        help="sample this process's core speed and write the samples here",
    )
    args = parser.parse_args(argv)

    from repro import cli

    tracer = None
    if args.trace_out is not None:
        from spans import REQUEST_ID, Tracer
        from worker import SERVICE_WARMUP_JOBS

        from repro.service import jobs

        tracer = Tracer(skip_requests=SERVICE_WARMUP_JOBS).install()
        # every span a submission causes (its job task and worker thread
        # copy this context) carries the submission's ordinal
        ordinals = itertools.count(1)
        submit = jobs.JobManager.submit

        def numbered_submit(manager, request):
            token = REQUEST_ID.set(next(ordinals))
            try:
                return submit(manager, request)
            finally:
                REQUEST_ID.reset(token)

        jobs.JobManager.submit = numbered_submit

    sampler = SpeedSampler().start() if args.speed_out is not None else None
    code = cli.main(["serve", "--host", "127.0.0.1", "--port", "0", "--executor", "inline"])
    if sampler is not None:
        sampler.stop()
        args.speed_out.write_text(json.dumps(sampler.samples), encoding="utf-8")

    if tracer is not None:
        from spans import Window

        n_jobs = len({s[7] for s in tracer.spans if s[7] is not None})
        window = Window(tracer.spans, dict(tracer.counters), dict(tracer.peaks))
        args.trace_out.write_text(json.dumps({
            "per_job": window.layer_metrics(per=max(1, n_jobs)),
            "jobs": n_jobs,
            "missing": tracer.missing,
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
