"""One fresh benchmark process: import spinorlab, run a workload's
operations in order, check each output against the reference, report.

Run by run.py, never directly. It writes one JSON object per line on
stdout: {"event": "ready"} after the imports, {"event": "op"} after each
operation, {"event": "done"} at the end. The parent counts operations
without an "op" line as failed, so a child that dies mid-run loses none.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import workloads

# Host-speed probe. On a shared host the CPU speed drifts by about 15%
# over seconds to minutes, and every timing drifts with it. While the
# operations run, a timer signal every PROBE_INTERVAL_S runs a fixed
# pure-Python loop (about 1% of the time) and records how long it took.
# norm_wall_s is the operations' wall time, less the probe's own time,
# rescaled by PROBE_NOMINAL_S / (mean probe time): seconds at the speed the
# probe has on an unloaded reference host.
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 0.00075


def _probe_loop():
    total = 0
    for i in range(1, 8000):
        total += (i * 7919) % 1009
    return total


class HostSpeedProbe:
    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="report digests without comparing them")
    args = parser.parse_args()

    import numpy  # noqa: F401  (part of the set-up spinorlab users pay)
    import spinorlab.cli  # noqa: F401  (imports every spinorlab module)
    import spinorlab.verify  # noqa: F401

    _emit(event="ready", setup_s=time.monotonic() - args.spawned_at)
    if args.setup_only:
        return

    ops = workloads.operations(args.workload, args.seed)
    if args.record:
        reference = [[name, None] for name, _ in ops]
    else:
        with open(args.reference) as fh:
            reference = json.load(fh)["digests"][args.workload].get(str(args.seed))
        if reference is None or [n for n, _ in reference] != [n for n, _ in ops]:
            raise SystemExit(f"no reference recorded for {args.workload} seed {args.seed}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    op_times = []
    with HostSpeedProbe() as probe:
        for (name, op), (_, want) in zip(ops, reference):
            op_times.append(_run_op(name, op, want))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # a run too short for one sample is taken at nominal speed
    probe_s = statistics.mean(probe.samples) if probe.samples else PROBE_NOMINAL_S
    net_s = sum(op_times) - sum(probe.samples)
    done = {
        "event": "done",
        "wall_s": net_s,
        "norm_wall_s": net_s * PROBE_NOMINAL_S / probe_s,
        "probe_s": probe_s,
        "rss_kib": rss_kib,
    }
    if tracer is not None:
        done["layers"] = tracer.layer_totals()
        done["counters"] = tracer.counters
    _emit(**done)


def _run_op(name, op, want):
    """Run one operation, check it against its reference digest (None when
    recording), report it and return its wall time."""
    start = time.perf_counter()
    got = passed = None
    try:
        exact, bounds = op()
        got = workloads.digest(exact)
        passed = exact.get("passed")
        problems = workloads.bound_failures(bounds)
        if want is not None and got != want:
            problems.insert(0, f"digest {got} != reference {want}")
        error = "; ".join(problems) or None
    except Exception:  # an operation that raises is a failed operation
        error = traceback.format_exc(limit=3)
    op_s = time.perf_counter() - start
    _emit(event="op", name=name, s=op_s, ok=error is None, passed=passed,
          digest=got, error=error)
    return op_s


if __name__ == "__main__":
    main()
