"""sessionkit benchmark: verdict latency, growth chains and program runs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload relation-mix|growth|programs \\
        --seed N --seconds S --trace 0|1

Inputs are made from the seed by `gen.py` in a process of its own, then
each pass of the workload runs in a fresh interpreter (`worker.py`) that
receives them as JSON on stdin.  Passes run one after another for at
most about `--seconds`; the end-to-end metrics are medians over passes.

With `--trace 1` every workload runs, whatever `--workload` names: one
untraced and one traced pass each per round, so that every per-layer metric
is measured and the tracing overhead is the difference of the two.

Before measuring, `selftest.py` feeds the checks tampered outputs; if any
tampering goes unnoticed the run stops without a result.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("relation-mix", "growth", "programs")
MIN_PASSES = 3
DEADLINE_S = 170  # the whole run, generation and self-test included


class BenchError(Exception):
    pass


def _python(script, *args, stdin=None, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {script}")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              input=stdin, capture_output=True, text=True,
                              cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {' '.join(args)} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc.stdout


def one_pass(name, inputs, traced, deadline):
    args = [name, repr(time.monotonic())] + (["--trace"] if traced else [])
    out = json.loads(_python("worker.py", *args, stdin=inputs, deadline=deadline))
    expected = os.path.join(ROOT, "src", "sessionkit")
    if os.path.dirname(out["sessionkit"]) != expected:
        raise BenchError(f"measured a sessionkit outside the checkout: {out['sessionkit']}")
    return out


def percentile(values, q):
    """The q-th percentile, interpolated between neighbouring samples so that
    two verdicts swapping places near it do not make it jump."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdict_latencies(passes):
    """Each verdict's latency over the run: its median over the passes.

    Every pass makes the same verdicts in the same order (`consistent`
    checks the count), so position i is one verdict in every pass.  Taking
    percentiles within each pass instead lets one verdict's slow passes
    decide a percentile that falls between two verdicts of similar cost,
    as it does among growth's ten verdicts."""
    return [statistics.median(ts) for ts in zip(*(p["latencies_ms"] for p in passes))]


def end_to_end(passes):
    """Medians over passes; latency percentiles are taken across verdicts."""
    latencies = verdict_latencies(passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "verdict_p50_ms": percentile(latencies, 50),
        "verdict_p99_ms": percentile(latencies, 99),
    }


PROGRAM_UNITS = {"typecheck_s": "s", "sim_steps_per_s": "steps/s"}


def program_figures(passes):
    """Figures only the programs workload has: time in `measures.typecheck`
    and simulator throughput, from untraced passes."""
    return {
        "typecheck_s": statistics.median(p["typecheck_s"] for p in passes),
        "sim_steps_per_s": statistics.median(p["sim_steps"] / p["sim_s"] for p in passes),
    }


def layer_figures(name, plain, traced):
    figs = {}
    for key in traced[0]["layers"]:
        figs[key] = statistics.median(p["layers"][key] for p in traced)
    figs["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain))
    figs["trace.unaccounted_s"] = statistics.median(p["unaccounted_s"] for p in traced)
    if name == "programs":
        figs.update(program_figures(plain))
    return figs


def consistent(passes):
    """Every pass of a workload makes the same operations with the same
    outcomes, and none fails outside the named fault's operations."""
    counts = {(p["attempted"], p["failed"], len(p["latencies_ms"])) for p in passes}
    return len(counts) == 1 and all(p["unexpected"] == 0 for p in passes)


def show(name, figs, units, passes):
    print(f"{name}: {len(passes)} passes, "
          f"{sum(len(p['latencies_ms']) for p in passes)} verdicts, "
          f"{sum(p['attempted'] for p in passes)} operations attempted, "
          f"{sum(p['failed'] for p in passes)} failed")
    for key, value in figs.items():
        print(f"  {name} {key} = {value:.6g} {units.get(key, '')}")
    for problem in passes[0]["problems"]:
        print(f"  {name} failed: {problem}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.isfile(os.path.join(ROOT, "src", "sessionkit", "__init__.py")):
        raise BenchError("no src/sessionkit in this checkout")

    names = WORKLOADS if args.trace else (args.workload,)
    inputs = {n: _python("gen.py", n, str(args.seed), deadline=deadline) for n in names}
    _python("selftest.py", deadline=deadline)

    measure_from = time.monotonic()
    plain = {n: [] for n in names}
    traced = {n: [] for n in names}
    rounds = []
    while True:
        started = time.monotonic()
        for n in names:
            plain[n].append(one_pass(n, inputs[n], False, deadline))
            if args.trace:
                traced[n].append(one_pass(n, inputs[n], True, deadline))
        rounds.append(time.monotonic() - started)
        enough = args.trace or len(plain[names[0]]) >= MIN_PASSES
        # stop before a round that would likely end past --seconds, so a
        # run lasts about as long whatever a pass costs
        if enough and (time.monotonic() - measure_from
                       + statistics.median(rounds) > args.seconds):
            break

    runs = [p for n in names for p in plain[n] + traced[n]]
    if args.trace:
        metrics_spec = spec["per_layer"]
        figs = {}
        for n in names:
            for key, value in layer_figures(n, plain[n], traced[n]).items():
                figs[f"{n}.{key}"] = value
        missing = sorted({h for p in runs for h in p.get("missing_hooks", [])})
        if missing:
            print(f"missing trace hooks (their metrics read 0): {', '.join(missing)}")
    else:
        metrics_spec = spec["end_to_end"]
        figs = end_to_end(plain[args.workload])
    units = {m["name"]: m["unit"] for m in metrics_spec}
    for n in names:
        prefix = n + "." if args.trace else ""
        shown = {k[len(prefix):]: figs.get(k, 0) for k in units if k.startswith(prefix)}
        if n == "programs" and not args.trace:
            shown.update(program_figures(plain[n]))
        show(n, shown, {k[len(prefix):]: u for k, u in units.items()} | PROGRAM_UNITS,
             plain[n] + traced[n])

    result = {
        "correct": all(consistent(plain[n] + traced[n]) for n in names),
        "attempted": sum(p["attempted"] for p in runs),
        "failed": sum(p["failed"] for p in runs),
        "metrics": {m["name"]: {"value": figs.get(m["name"], 0), "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        sys.exit(1)
