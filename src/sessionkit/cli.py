"""The ``kit`` command-line front end.

One binary, one subcommand per toolkit operation.  Exit codes follow a
single contract everywhere: 0 for yes/ok, 1 for no/ill-typed/stuck, 2 for
unknown/budget-exhausted, 3 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures, lts, measures, process, qm, relations, runtime
from . import types as ty

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

_REL_NAMES = {k.removesuffix("sub"): k for k in relations.SUB_KINDS}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(str(e))


class _Usage(Exception):
    pass


def _load_type(path: str, name: str) -> ty.Type:
    return ty.parse_type(_read(path), name)


def _budget(args) -> relations.Budget:
    return relations.Budget(max_pairs=args.max_pairs,
                            max_nodes_per_type=args.max_nodes)


def _budget_flags(p):
    p.add_argument("--max-pairs", type=int, default=2000)
    p.add_argument("--max-nodes", type=int, default=64)


def _emit(args, obj, text: str):
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        print(text)


def _verdict_exit(answer: str) -> int:
    return {"yes": EXIT_YES, "no": EXIT_NO}.get(answer, EXIT_UNKNOWN)


def _print_verdict(args, v: relations.Verdict) -> int:
    text = [f"{v.kind}: {v.answer}"]
    if v.reason:
        text.append(f"  reason: {v.reason}")
    if v.witness is not None:
        text.append(f"  witness ({len(v.witness)} pairs):")
        for a, b in v.witness:
            text.append(f"    {ty.render_inline(a)}  |  {ty.render_inline(b)}")
    if v.trace is not None:
        text.append("  counterexample:")
        for step in v.trace:
            a, b = map(ty.render_inline, step["pair"])
            label = step.get("label")
            text.append(f"    [{step['clause']}{' ' + str(label) if label else ''}] "
                        f"{a}  |  {b}")
            if step.get("note"):
                text.append(f"      note: {step['note']}")
    text.append(f"  stats: {v.stats}")
    for w in v.warnings:
        text.append(f"  warning: {w}")
    _emit(args, v.to_json(), "\n".join(text))
    return _verdict_exit(v.answer)


def cmd_parse(args):
    decls = ty.parse_decls(_read(args.file))
    resolved = ty.resolve_all(decls)
    if args.json:
        print(json.dumps({n: ty.to_json(t) for n, t in resolved.items()}, indent=2))
    else:
        for n, t in resolved.items():
            print(ty.render(t, n))
    return EXIT_YES


def cmd_dual(args):
    t = ty.dual(_load_type(args.file, args.name))
    _emit(args, ty.to_json(t), ty.render(t, f"dual_{args.name}"))
    return EXIT_YES


def cmd_labels(args):
    t = _load_type(args.file, args.name)
    labels = lts.enumerate_labels(t, args.dir, args.mode)
    _emit(args, [str(l) for l in labels], "\n".join(str(l) for l in labels))
    return EXIT_YES


def cmd_step(args):
    t = _load_type(args.file, args.name)
    env = ty.parse_decls(_read(args.file))
    l = lts.parse_label(args.label, env)
    d = lts.derivative(t, l, args.mode)
    if d is None:
        _emit(args, {"enabled": False}, f"{args.label}: not enabled ({args.mode})")
        return EXIT_NO
    _emit(args, {"enabled": True, "type": ty.to_json(d)}, ty.render(d, "step"))
    return EXIT_YES


def cmd_compose(args):
    v = relations.check(_load_type(args.file, args.left),
                        _load_type(args.file, args.right),
                        "compose", _budget(args))
    return _print_verdict(args, v)


def cmd_subtype(args):
    S, T = _load_type(args.file, args.left), _load_type(args.file, args.right)
    try:
        v = relations.check(S, T, _REL_NAMES[args.rel], _budget(args))
    except ValueError as e:  # a first-order relation asked of channel types
        raise _Usage(str(e))
    return _print_verdict(args, v)


def cmd_crosscheck(args):
    r = relations.cross_check_correct_subt(_load_type(args.file, args.left),
                                           _load_type(args.file, args.right),
                                           _budget(args))
    text = (f"compose(S,T):        {r['compose']}\n"
            f"fairsub(S, dual T):  {r['fairsub']}\n"
            f"consistent:          {r['consistent']}")
    _emit(args, r, text)
    return EXIT_YES if r["consistent"] else EXIT_NO


def cmd_typecheck(args):
    src = _read(args.file)
    if args.sig:
        src = _read(args.sig) + "\n" + src
    prog = process.parse_program(src)
    rep = measures.typecheck(prog, assume_cuts=args.assume,
                             budget=relations.Budget(max_pairs=args.budget))
    text = [f"status: {rep.status}"]
    text += [f"  reason: {r}" for r in rep.reasons]
    for ob in rep.obligations:
        text.append(f"  obligation {ob.get('id', '?')}: {ob.get('verdict')}")
    if rep.measures:
        text.append("  measures: " + ", ".join(
            f"{k}={v}" for k, v in sorted(rep.measures.items())))
    _emit(args, rep.to_json(), "\n".join(text))
    return {"WellTyped": EXIT_YES, "IllTyped": EXIT_NO}.get(rep.status, EXIT_UNKNOWN)


def cmd_run(args):
    prog = process.parse_program(_read(args.file))
    if prog.main is None:
        raise _Usage("program has no main term to run")
    if args.scheduler == "random":
        sched = runtime.RandomScheduler(args.seed)
    elif args.scheduler == "fair":
        sched = runtime.RoundRobinFair()
    else:
        mu = {}
        try:
            mu = measures.infer_measures(prog)
        except measures.MeasureError:
            pass
        sched = runtime.MinMeasure(mu)
    res = runtime.run(prog.main, prog.defs, sched, max_steps=args.max_steps,
                      collect_trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w") as fh:
            for entry in res.trace:
                fh.write(json.dumps(entry) + "\n")
    _emit(args, {"outcome": res.outcome, "steps": res.steps},
          f"{res.outcome} after {res.steps} steps")
    return {"DoneReached": EXIT_YES,
            "StuckNotDone": EXIT_NO}.get(res.outcome, EXIT_UNKNOWN)


def cmd_probe(args):
    prog = process.parse_program(_read(args.file))
    if prog.main is None:
        raise _Usage("program has no main term to probe")
    ok = runtime.is_weakly_terminating_probe(prog.main, prog.defs, args.budget)
    _emit(args, {"weakly_terminating": ok},
          {True: "done is reachable", False: "done is not reachable"}.get(
              ok, "done not reached within budget"))
    return {True: EXIT_YES, False: EXIT_NO}.get(ok, EXIT_UNKNOWN)


def _load_machine(path: str) -> qm.QueueMachine:
    try:
        return qm.QueueMachine.from_json(json.loads(_read(path)))
    except ValueError as e:
        raise _Usage(f"bad machine file: {e}")


def cmd_qm_encode(args):
    m = _load_machine(args.machine)
    qt, ct = qm.encode(m, args.input)
    text = ty.render(qt, "Queue") + "\n" + ty.render(ct, "Control")
    _emit(args, {"queue": ty.to_json(qt), "control": ty.to_json(ct)}, text)
    return EXIT_YES


def cmd_qm_sim(args):
    m = _load_machine(args.machine)
    res = qm.simulate(m, args.input, args.max_steps)
    hist = [{"state": q, "queue": w} for q, w in res.history]
    _emit(args, {"outcome": res.outcome, "steps": res.steps, "history": hist},
          f"{res.outcome} after {res.steps} steps "
          f"(final state {res.history[-1][0]}, queue {res.history[-1][1]!r})")
    return {"Accepted": EXIT_YES, "Stuck": EXIT_NO}.get(res.outcome, EXIT_UNKNOWN)


def cmd_corpus(args):
    corp = fixtures.corpus()
    if args.action == "list":
        rows = [{"name": f["name"], "kind": f["kind"],
                 "description": f["description"]} for f in corp]
        _emit(args, rows, "\n".join(
            f"{f['name']:40} [{f['kind']}] {f['description']}" for f in corp))
        return EXIT_YES
    results = [fixtures.run_fixture(f) for f in corp]
    failed = [r for r in results if not r["ok"]]
    lines = [f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}" for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} fixtures passed")
    _emit(args, results, "\n".join(lines))
    return EXIT_YES if not failed else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kit",
                                 description="session type verification toolkit")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse type declarations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("dual", help="print the dual of a declared type")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("labels", help="enumerate enabled transition labels")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--dir", choices=("in", "out"), required=True)
    p.add_argument("--mode", choices=("must", "ind", "full"), default="full")
    p.set_defaults(fn=cmd_labels)

    p = sub.add_parser("step", help="take one labelled transition")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--label", required=True)
    p.add_argument("--mode", choices=("must", "ind", "full"), default="full")
    p.set_defaults(fn=cmd_step)

    p = sub.add_parser("compose", help="check correct composition of two types")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    _budget_flags(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("subtype", help="check one of the subtyping relations")
    p.add_argument("--rel", choices=sorted(_REL_NAMES), required=True)
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    _budget_flags(p)
    p.set_defaults(fn=cmd_subtype)

    p = sub.add_parser("crosscheck",
                       help="compare composition with dualized subtyping")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    _budget_flags(p)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("typecheck", help="type-check a process program")
    p.add_argument("file")
    p.add_argument("--sig", help="extra declarations prepended to the program")
    p.add_argument("--assume", action="append", default=[], metavar="CUT_ID")
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("run", help="execute a program's main term")
    p.add_argument("file")
    p.add_argument("--scheduler", choices=("random", "minmeasure", "fair"),
                   default="minmeasure")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--trace", help="write a JSON-lines trace here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("probe", help="search for a terminating schedule")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("qm-encode", help="encode a queue machine as two types")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_qm_encode)

    p = sub.add_parser("qm-sim", help="simulate a queue machine on a word")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", type=int, default=200)
    p.set_defaults(fn=cmd_qm_sim)

    p = sub.add_parser("corpus", help="list or run the built-in examples")
    p.add_argument("action", choices=("list", "run"))
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (_Usage, ty.TypeError_, process.ProcessError, measures.MeasureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
