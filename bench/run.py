"""The setorbits benchmark: one workload per run, one JSON line as result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for sizes and reasons):
  classify-cold    classify(r), r = 2..6, each in a fresh process
  classify-warm    repeated classify(r), r in {2, 3, 4, 6}, caches filled
  count-profiles   orbit_profile + count_set_orbits per group
  orbit-partition  enumerate_set_orbits on degrees 12..18

A run repeats whole rounds of the workload's operations until the next
round would end past S seconds (at least one round).  Every output is
checked outside the timed region: an untimed round 0 checks each output
against independent computations, and every timed output must repeat it.
classify-cold has no round 0: its operations run in fresh processes, so
the first output of each is checked as it arrives.  Every time reported is
normalised to a nominal host speed by a fixed block of reference work timed
alongside the operations (calibrate.py); the raw times are kept in the
results file, and the percentiles are Harrell-Davis estimates
(quantile.py).  With --trace 0 the result
holds the end-to-end metrics; with --trace 1 the per-layer metrics of a
traced run.  Results and traces are also written to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "setorbits")):
    sys.exit(f"no setorbits source tree at {SRC}")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (needs the source tree on sys.path)
from calibrate import EDGE_BLOCKS, Sampler, normalise, reference  # noqa: E402
from quantile import harrell_davis as percentile  # noqa: E402
from tracing import LAYER_METRICS, Tracer, derive  # noqa: E402

WORKLOADS = ("classify-cold", "classify-warm", "count-profiles", "orbit-partition")
#: fresh processes timed per run for setup_s (classify-cold adds the
#: set-ups of its operations' processes)
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def child(*args: str) -> dict:
    """Run bench/child.py to its end and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_child(*args: str) -> tuple[dict, float, float]:
    """child() plus the time from its spawn until it reported ready, raw
    and normalised by the reference samples taken just before the spawn,
    by the child while it set up and by the child once it was ready."""
    before = reference(EDGE_BLOCKS)
    spawned = time.monotonic()
    out = child(*args)
    setup = out["ready"] - spawned - out["setup_spent"]
    return out, setup, normalise(
        setup, [before, *out["setup_samples"], out["ref_ready"]])


def check_round(ops: list[workloads.Op]) -> tuple[dict[int, int], list[str]]:
    """Untimed round 0: run every op once and check its output against the
    independent computations; returns the output digests and the problems.
    An op that raises here is left to fail again in the timed rounds."""
    digests, problems = {}, []
    for i, op in enumerate(ops):
        try:
            out = op.run()
        except Exception:
            continue
        digests[i] = _digest(out)
        problems += op.check(out)
    return digests, problems


def _digest(out) -> int:
    return hash(repr(out))


def run_rounds(ops: list[workloads.Op], seconds: float, execute,
               digests: dict[int, int], problems: list[str]) -> dict:
    """Whole rounds of ``ops`` until the next would end past ``seconds``.

    ``execute(op)`` returns (output, op seconds, op seconds normalised to
    the nominal host speed, counter deltas).  An op that raises counts as
    failed.  Every output must repeat the digest in
    ``digests``; an op without one is checked and its digest recorded.
    """
    rounds, norm_rounds, layer_rounds, records = [], [], [], []
    attempted = failed = 0
    start, last = time.perf_counter(), 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        times, norms, counts = [], [], Counter()
        for i, op in enumerate(ops):
            attempted += 1
            try:
                out, dt, norm, delta = execute(op)
            except Exception:  # reported and counted; the run goes on
                failed += 1
                print(f"{op.label} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            times.append(dt)
            norms.append(norm)
            counts.update(delta)
            if delta:
                records.append({"round": len(rounds) + 1, "op": op.label,
                                "s": dt, "layers": dict(delta)})
            digest = _digest(out)
            if i not in digests:
                digests[i] = digest
                problems += op.check(out)
            elif digests[i] != digest:
                problems.append(f"{op.label}: output differs from round 0")
        rounds.append(times)
        norm_rounds.append(norms)
        layer_rounds.append(counts)
        last = time.perf_counter() - round_start
    return {"rounds": rounds, "norm_rounds": norm_rounds,
            "layer_rounds": layer_rounds, "records": records,
            "problems": problems, "attempted": attempted, "failed": failed}


def setup_probes(workload: str) -> list[tuple[dict, float, float]]:
    return [timed_child("setup", workload) for _ in range(SETUP_PROBES)]


def in_process(workload: str, seed: int, seconds: float, tracer) -> tuple[dict, list, list, float]:
    probes = setup_probes(workload)
    workloads.setup(workload)
    ops = workloads.OPS[workload](seed)
    if tracer:
        tracer.install()
    # a reference block between every two ops, and samples inside each
    ref = [reference()]

    def execute(op):
        before = Counter(tracer.counts) if tracer else None
        if tracer:
            tracer.active = True
        try:
            with Sampler() as sampler:
                t0 = time.perf_counter()
                out = op.run()
                dt = time.perf_counter() - t0 - sampler.spent
        finally:
            if tracer:
                tracer.active = False
            ref.append(reference())
        norm = normalise(dt, [ref[-2], *sampler.samples, ref[-1]])
        return out, dt, norm, (tracer.counts - before) if tracer else {}

    res = run_rounds(ops, seconds, execute, *check_round(ops))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res["ref_s"] = statistics.median(ref)
    return res, [p[1:] for p in probes], [p[0]["load_s"] for p in probes], rss_mb


def cold(seed: int, seconds: float, traced: bool) -> tuple[dict, list, list, float]:
    order = list(workloads.COLD_R)
    random.Random(seed).shuffle(order)
    flag = "1" if traced else "0"
    probes = setup_probes("classify-cold")
    setups, loads = [p[1:] for p in probes], [p[0]["load_s"] for p in probes]
    refs = []
    peak_kb = 0

    def make(r):
        return workloads.Op(f"classify({r})",
                            lambda: timed_child("classify", str(r), flag),
                            lambda out: workloads.classify_check(r, *out))

    def execute(op):
        nonlocal peak_kb
        out, *setup = op.run()
        setups.append(setup)
        loads.append(out["load_s"])
        refs.append(out["ref_ready"])
        peak_kb = max(peak_kb, out["rss_kb"])
        rows = tuple(tuple(row) for row in out["rows"])
        norm = normalise(out["op_s"], out["op_samples"])
        return ((rows, out["rederived"]), out["op_s"], norm,
                Counter(out["counts"]))

    res = run_rounds([make(r) for r in order], seconds, execute, {}, [])
    res["ref_s"] = statistics.median(refs)
    return res, setups, loads, peak_kb / 1024


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if workload == "classify-cold":
        res, setups, loads, rss_mb = cold(seed, seconds, traced)
    else:
        res, setups, loads, rss_mb = in_process(workload, seed, seconds, tracer)
    # every time reported is normalised to the nominal host speed (see
    # calibrate.py); the raw times go to the results file only
    op_times = [t for times in res["norm_rounds"] for t in times]
    raw_times = [t for times in res["rounds"] for t in times]
    # the sum of the timed operations, per round, averaged over the rounds
    wall_s = sum(op_times) / len(res["rounds"])
    raw_wall_s = sum(raw_times) / len(res["rounds"])
    if traced:
        per_round = [derive(c) for c in res["layer_rounds"]]
        values = {name: statistics.median(r[name] for r in per_round)
                  for name in LAYER_METRICS}
        values["catalog.load_s"] = statistics.median(loads)
        values["traced.wall_s"] = wall_s
        units = {**LAYER_METRICS, "traced.wall_s": "s"}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(norm for _, norm in setups),
            "peak_rss_mb": rss_mb,
            "op_p50_ms": percentile(op_times, 0.5) * 1e3,
            "op_p90_ms": percentile(op_times, 0.9) * 1e3,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "op_p50_ms": "ms", "op_p90_ms": "ms"}
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    detail = {**result, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "rounds": len(res["rounds"]),
              "ops_per_round": len(res["rounds"][0]) if res["rounds"] else 0,
              "reference_s": res["ref_s"], "raw_wall_s": raw_wall_s,
              "raw_op_p50_ms": percentile(raw_times, 0.5) * 1e3,
              "raw_op_p90_ms": percentile(raw_times, 0.9) * 1e3,
              "raw_setup_s": statistics.median(raw for raw, _ in setups),
              "round_s": [sum(t) for t in res["norm_rounds"]],
              "raw_round_s": [sum(t) for t in res["rounds"]],
              "setup_samples_s": setups, "problems": res["problems"][:100]}
    if traced:
        detail["ops"] = res["records"]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
