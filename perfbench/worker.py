"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SPAWN_TIME [--trace] < inputs.json

SPAWN_TIME is the `time.monotonic()` reading the parent took just before
starting this interpreter, so `setup_s` covers interpreter start, imports and
loading the inputs.  The pass's figures go to stdout as one JSON object.
This interpreter never imports `randgen`: it sees only serialized inputs.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sessionkit  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main():
    name, spawned, traced = sys.argv[1], float(sys.argv[2]), "--trace" in sys.argv[3:]
    load, run = workloads.WORKLOADS[name]
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    inputs = json.load(sys.stdin)
    state = load(inputs[name])
    setup_s = time.monotonic() - spawned
    tally = workloads.Tally()
    spans_before = tracer.self_total() if tracer else 0.0
    t0 = time.perf_counter()
    run(state, tally)
    wall_s = time.perf_counter() - t0
    if "sessionkit.randgen" in sys.modules:
        sys.exit("the measured interpreter imported randgen")
    out = {"setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": tally.attempted, "failed": tally.failed,
           "unexpected": tally.unexpected, "problems": tally.problems,
           "latencies_ms": tally.latencies_ms, "typecheck_s": tally.typecheck_s,
           "sim_steps": tally.sim_steps, "sim_s": tally.sim_s,
           "sessionkit": sessionkit.__file__}
    if tracer is not None:
        out["layers"] = tracer.to_json()
        # timed-phase time outside every layer: the benchmark's own code
        # and the wrappers' bookkeeping
        out["unaccounted_s"] = wall_s - (tracer.self_total() - spans_before)
        out["missing_hooks"] = tracer.missing
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
