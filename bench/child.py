"""Fresh processes started by run.py; prints one JSON line.

    python3 bench/child.py setup WORKLOAD
        set up as a fresh process of WORKLOAD would, then report the
        CLOCK_MONOTONIC time at which it was ready
    python3 bench/child.py classify R TRACE
        set up, then time one cold classify(R) (traced when TRACE is 1),
        then find every row's s again by subset enumeration

Both the set-up and classify(R) sample calibrate.py's reference block
while they run, and it is timed again (EDGE_BLOCKS blocks) after
each, so that run.py can normalise their times to the nominal host speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from calibrate import EDGE_BLOCKS, Sampler, reference  # noqa: E402


def set_up(workload: str):
    """Import the package and set up as a fresh process of ``workload``
    would; returns the workloads module and what run.py needs to time and
    normalise the set-up."""
    with Sampler() as sampler:
        import workloads  # the import of setorbits is part of the set-up
        load_s = workloads.setup(workload)
    ready = time.monotonic()
    return workloads, {"ready": ready, "load_s": load_s,
                       "setup_spent": sampler.spent,
                       "setup_samples": sampler.samples,
                       "ref_ready": reference(EDGE_BLOCKS)}


def main(argv: list[str]) -> dict:
    mode = argv[0]
    if mode == "setup":
        return set_up(argv[1])[1]
    if mode != "classify":
        raise SystemExit(f"unknown mode {mode!r}")
    r, traced = int(argv[1]), argv[2] == "1"
    workloads, report = set_up("classify-cold")
    ref_ready = report["ref_ready"]
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    with Sampler() as sampler:
        t0 = time.perf_counter()
        rows = workloads.classify_rows(r)
        op_s = time.perf_counter() - t0 - sampler.spent
    if tracer:
        tracer.active = False
    ref_done = reference(EDGE_BLOCKS)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**report, "op_s": op_s, "rss_kb": rss_kb,
            "op_samples": [ref_ready, *sampler.samples, ref_done],
            "rows": rows, "rederived": workloads.rederive(rows),
            "counts": dict(tracer.counts) if tracer else {}}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
