import contextlib
import glob
import io
import json
import os
import re
import string
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from sessionkit import cli, fixtures, relations
from sessionkit import types as ty


@pytest.fixture
def sat(tmp_path):
    p = tmp_path / "sat.st"
    p.write_text(fixtures.SATELLITE_TYPES)
    return str(p)


@pytest.fixture
def sw(tmp_path):
    p = tmp_path / "sw.st"
    p.write_text(fixtures.SERVER_WORKER_TYPES)
    return str(p)


@pytest.fixture
def server(tmp_path):
    p = tmp_path / "server.cap"
    p.write_text(fixtures.SERVER_PROGRAM)
    return str(p)


# definitions that call themselves behind outputs, a fork or a cut: the
# runtime would unfold them forever without taking a step
LOOP_PROGRAMS = [
    "type T = +{ a: T, b: end! }\ntype D = &{ a: D, b: end? }\n"
    "sig A(x: T)\nsig B(x: D)\ndef A(x) = x!a.A(x)\n"
    "def B(x) = case x { a: B(x), b: wait x.done }\n"
    "new x : T >< D { A(x) || B(x) }",
    "def A(x) = x!(y) { close y } . A(x)\nnew x : end! >< end? { A(x) || wait x.done }",
    "def A() = new z : end! >< end? { A() || wait z . done }\nA()",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_first_order_relations_refuse_channel_types(capsys, tmp_path):
    p = tmp_path / "ho.st"
    p.write_text("type A = !(end!) . end!")
    for rel, kind in sorted(cli._REL_NAMES.items()):
        code = cli.main(["subtype", "--rel", rel, str(p), "A", "A"])
        out, err = capsys.readouterr()
        if relations.MODES[kind][3]:
            assert (code, out, err) == (3, "", f"error: {kind} is defined for first-order "
                                               "types only\n"), rel
        else:
            assert code == 0 and "yes" in out, rel


def test_subtype_yes_exit_0(capsys, sat):
    code, out = run(capsys, "subtype", "--rel", "fair", sat, "S", "U")
    assert code == 0
    assert "yes" in out and "witness" in out


def test_subtype_no_exit_1(capsys, sat):
    code, out = run(capsys, "subtype", "--rel", "sync", sat, "S", "U")
    assert code == 1
    assert "counterexample" in out


def test_compose_unknown_exit_2(capsys, sw):
    code, out = run(capsys, "compose", sw, "S", "U", "--max-pairs", "2000")
    assert code == 2
    assert "unknown" in out


def test_parse_round_trip(capsys, sat, tmp_path):
    code, out = run(capsys, "parse", sat)
    assert code == 0
    p2 = tmp_path / "again.st"
    p2.write_text(out)
    code2, out2 = run(capsys, "parse", str(p2))
    assert code2 == 0


def test_dual_and_labels(capsys, sat):
    code, out = run(capsys, "dual", sat, "S")
    assert code == 0 and out.startswith("type dual_S")
    code, out = run(capsys, "labels", sat, "S", "--dir", "out", "--mode", "must")
    assert code == 0 and set(out.split()) == {"!cmd", "!stop"}


def test_step(capsys, sat):
    code, _ = run(capsys, "step", sat, "S", "--label", "!cmd")
    assert code == 0
    code, _ = run(capsys, "step", sat, "S", "--label", "?cmd")
    assert code == 1


def test_typecheck_assume(capsys, server):
    code, out = run(capsys, "typecheck", server, "--assume", "cut-y")
    assert code == 2  # conditional: the assumption is recorded, not proved
    assert "assumed" in out


def test_run_and_probe(capsys, server, tmp_path):
    code, out = run(capsys, "run", server, "--scheduler", "minmeasure",
                    "--max-steps", "200")
    assert code == 0 and "DoneReached" in out
    code, _ = run(capsys, "probe", server, "--budget", "500")
    assert code == 0
    code, out = run(capsys, "probe", server, "--budget", "20")
    assert code == 2 and "within budget" in out  # search cut short: unknown
    omega = tmp_path / "omega.cap"
    omega.write_text(fixtures.OMEGA_PROGRAM)
    code, out = run(capsys, "probe", str(omega), "--budget", "20")
    assert code == 1 and "done is not reachable" in out  # explored in full


def test_run_writes_trace(capsys, server, tmp_path):
    trace = tmp_path / "t.jsonl"
    code, _ = run(capsys, "run", server, "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert "rule" in entry


def test_qm_commands(capsys, tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps(fixtures.QM_COUNTDOWN))
    code, out = run(capsys, "qm-sim", str(m), "--input", "aa")
    assert code == 0 and "Accepted" in out
    code, out = run(capsys, "qm-encode", str(m), "--input", "a")
    assert code == 0 and "type" in out


def test_json_mode(capsys, sat):
    code, out = run(capsys, "--json", "subtype", "--rel", "fair", sat, "S", "U")
    assert code == 0
    blob = json.loads(out)
    assert blob["answer"] == "yes"
    assert blob["witness"]


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def test_json_output_is_strict(capsys, sat, sw, server, tmp_path):
    omega = tmp_path / "omega.cap"
    omega.write_text(fixtures.OMEGA_PROGRAM)
    for argv in (["typecheck", str(omega)], ["typecheck", server],
                 ["run", server], ["probe", server],
                 ["subtype", "--rel", "fair", sat, "S", "U"],
                 ["compose", sw, "S", "U"], ["corpus", "run"]):
        code, out = run(capsys, "--json", *argv)
        assert code in (0, 1, 2), argv
        json.loads(out, parse_constant=_strict)
    code, out = run(capsys, "--json", "typecheck", str(omega))
    assert json.loads(out)["measures"] == {"Omega": "Infinity"}


def test_corpus_list(capsys):
    code, out = run(capsys, "corpus", "list")
    assert code == 0
    assert len(out.strip().splitlines()) >= 15
    for name in ("satellite-subtyping", "slot-machine-fair", "failed-variance",
                 "server-worker-compose", "output-anticipation"):
        assert name in out


def test_usage_errors_exit_3(capsys, tmp_path, sat):
    assert cli.main(["bogus"]) == 3
    capsys.readouterr()
    missing = str(tmp_path / "nope.st")
    assert cli.main(["parse", missing]) == 3
    bad = tmp_path / "bad.st"
    bad.write_text("type S = +{")
    assert cli.main(["parse", str(bad)]) == 3
    assert cli.main(["compose", str(bad), "S", "S"]) == 3
    bad_prog = tmp_path / "bad.cap"
    bad_prog.write_text("def A(x) = $")
    for cmd in ("typecheck", "run", "probe"):
        assert cli.main([cmd, str(bad_prog)]) == 3
    err = capsys.readouterr().err
    assert err.count("error: bad character at offset 11") == 3
    for i, src in enumerate(LOOP_PROGRAMS):
        loop = tmp_path / f"loop{i}.cap"
        loop.write_text(src)
        for cmd in ("typecheck", "run", "probe"):
            assert cli.main([cmd, str(loop)]) == 3
    err = capsys.readouterr().err
    assert err.count("error: unguarded invocation cycle through 'A'") == 9
    for label in ("!a@x", "!a@1@2", "!a@-1", "!é"):
        assert cli.main(["step", sat, "S", "--label", label]) == 3
    err = capsys.readouterr().err
    assert err.count("error: ") == 4 and "Traceback" not in err
    good = fixtures.QM_COUNTDOWN
    machines = [[good],  # a list, not an object
                {**good, "delta": {"s,a": []}},
                {**good, "delta": {"s,a": ["s", 5]}},
                {**good, "delta": {"sa": ["s", ""]}}]
    for i, m in enumerate(machines):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(m))
        assert cli.main(["qm-sim", str(path), "--input", "a"]) == 3
    err = capsys.readouterr().err
    assert err.count("error: bad machine file: ") == 4
    assert "object" in err and "'s,a'" in err and "'sa'" in err


def test_deep_types_exit_cleanly(capsys, tmp_path):
    n = 2000
    nested = tmp_path / "nested.st"
    nested.write_text("type T = " + "+{ a: " * n + "end!" + " }" * n)
    chain = tmp_path / "chain.st"
    chain.write_text("".join(f"type T{i} = +{{ a: T{i + 1} }}\n" for i in range(n)))
    assert cli.main(["parse", str(nested)]) == 3
    assert cli.main(["parse", str(chain)]) == 3  # T2000 is never declared
    err = capsys.readouterr().err
    assert f"nested deeper than {ty.MAX_NESTING} levels" in err
    assert "unknown type name 'T2000'" in err
    # programs share the limit: N prefixes x!a. and N parentheses
    prog = tmp_path / "deep.cap"
    head = "type T = +{ a: T, b: end! }\nsig A(x: T)\ndef A(x) = "
    for cmd, body in (("run", "x!a." * 500 + "x!b.close x"),
                      ("typecheck", "x!a." * 1000 + "x!b.close x"),
                      ("typecheck", "(" * 500 + "x!b.close x" + ")" * 500)):
        prog.write_text(head + body + "\n")
        assert cli.main([cmd, str(prog)]) == 3
    err = capsys.readouterr().err
    assert err.count(f"nested deeper than {ty.MAX_NESTING} levels") == 3
    chain.write_text("".join(f"type T{i} = +{{ a: T{(i + 1) % n} }}\n" for i in range(n)))
    code, out = run(capsys, "dual", str(chain), "T0")
    assert code == 0 and out.strip() == "type dual_T0 = &{ a: dual_T0 }"
    code, out = run(capsys, "parse", str(chain))
    assert code == 0
    assert out.splitlines() == [f"type T{i} = +{{ a: T{i} }}" for i in range(n)]
    # 520 levels: the polarity counterexample renders a type that deep
    deep = tmp_path / "deep.st"
    deep.write_text("".join(f"type T{i} = &{{ a: T{i + 1} }}\n" for i in range(520))
                    + "type T520 = end?\n")
    code, out = run(capsys, "compose", str(deep), "T0", "T0", "--max-nodes", "1000")
    assert code == 1 and "counterexample" in out
    assert out.count("&{a: ") == 2 * 520
    # 1500 definitions, each a bare call of the next: unfolded without a step
    calls = tmp_path / "calls.cap"
    calls.write_text("".join(f"def A{i}() = A{i + 1}()\n" for i in range(1500))
                     + "def A1500() = done\nA0()\n")
    code, out = run(capsys, "run", str(calls))
    assert code == 0 and out.strip() == "DoneReached after 0 steps"
    code, out = run(capsys, "probe", str(calls))
    assert code == 0 and out.strip() == "done is reachable"
    # the open chain of 2000 declarations, resolved once, under a main term
    chain.write_text("".join(f"type T{i} = +{{ a: T{i + 1} }}\n" for i in range(n))
                     + f"type T{n} = end!\ndone\n")
    code, out = run(capsys, "run", str(chain))
    assert code == 0 and out.strip() == "DoneReached after 0 steps"


def test_dual_of_long_open_chain(capsys, tmp_path):
    # no two declarations are bisimilar: refinement must split the chain
    # into 2001 classes, one round each under Moore's algorithm
    n = 2000
    chain = tmp_path / "open.st"
    chain.write_text("".join(f"type T{i} = +{{ a: T{i + 1} }}\n" for i in range(n))
                     + f"type T{n} = end!\n")
    code, out = run(capsys, "dual", str(chain), "T0")
    lines = out.splitlines()
    assert code == 0 and len(lines) == n + 1
    assert lines[0].startswith("type dual_T0 = &{ a: ") and lines[-1].endswith("end?")


def test_demos_run():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    demos = sorted(glob.glob(os.path.join(root, "demos", "*.py")))
    assert len(demos) == 5
    for demo in demos:
        done = subprocess.run([sys.executable, demo], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, (demo, done.stderr)


def test_witness_order_ignores_hash_seed(sat, tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    two = tmp_path / "two.st"  # compose answers no after two steps
    two.write_text("type L = +{ a: +{ b: L, c: end! }, d: L }\n"
                   "type R = &{ a: &{ b: R }, d: &{ a: &{ c: end? } } }\n")
    ho = tmp_path / "ho.st"  # ?(P) is pushed past a loop of channel outputs
    ho.write_text("type S = +{ a: !(P) . S, b: ?(P) . end! }\n"
                  "type P = +{ a: P, b: &{ c: end? } }\n")
    machine = tmp_path / "m.json"
    machine.write_text(json.dumps(fixtures.QM_COUNTDOWN))
    measure = tmp_path / "measure.st"  # !go, then !a@1 against !a@2
    measure.write_text("type S = +{ go: +{ a@1: end! } }\n"
                       "type T = +{ go: +{ a@2: end! } }\n")
    slot = tmp_path / "slot.st"
    slot.write_text(fixtures.SLOT_TYPES)
    for argv, code, shown in ((["subtype", "--rel", "fair", sat, "S", "U"], 0, "witness"),
                              (["--json", "corpus", "run"], 0, '"ok": true'),
                              (["compose", str(two), "L", "R"], 1, "counterexample"),
                              (["--json", "qm-encode", str(machine), "--input", "aa"], 0,
                               '"queue"'),
                              (["--json", "step", str(ho), "S", "--label", "?(P)"], 0,
                               '"times"'),
                              # a note and must-output-reachability end a trace
                              (["--json", "subtype", "--rel", "fair", str(measure), "S", "T"],
                               1, '"note": "measure mismatch on tag \'a\': 1 vs 2"'),
                              (["--json", "subtype", "--rel", "bzfair", str(slot), "T", "S"],
                               1, '"clause": "must-output-reachability"')):
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            outs.append(subprocess.run([sys.executable, "-m", "sessionkit.cli", *argv],
                                       env=env, capture_output=True, text=True))
        assert outs[0].returncode == code and shown in outs[0].stdout, argv
        assert outs[0].stdout == outs[1].stdout, argv


_PROGRAMS = [fixtures.SERVER_PROGRAM, fixtures.LINK_SUBSUMPTION_PROGRAM,
             fixtures.DEADLOCK_PROGRAM, fixtures.OMEGA_PROGRAM]


_OPS = ("drop", "copy", "swap", "replace")


def _mutate_tokens(draw, toks, same_kind, ops=_OPS):
    """One to three drops, copies, swaps or replacements, in place.

    A token is replaced by one of the same ``same_kind``.
    """
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(ops))
        if op == "drop":
            del toks[i]
        elif op == "copy":
            toks.insert(i, toks[i])
        elif op == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif op == "replace":  # by a token of the same kind, to get past the parser
            toks[i] = draw(st.sampled_from([t for t in toks
                                            if same_kind(t) == same_kind(toks[i])]))
    return toks


def _type_tokens(src):
    return [m[m.lastindex] for m in ty._TOKEN.finditer(src) if m.lastindex]


@st.composite
def mutated_programs(draw):
    toks = _type_tokens(draw(st.sampled_from(_PROGRAMS)))
    return " ".join(_mutate_tokens(draw, toks, str.isidentifier))


@given(mutated_programs())
@example(LOOP_PROGRAMS[0])
@example(LOOP_PROGRAMS[1])
@example(LOOP_PROGRAMS[2])
@settings(max_examples=100, deadline=None)
def test_cli_survives_mutated_programs(src):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.cap")
        with open(path, "w") as fh:
            fh.write(src)
        for argv in (["typecheck", path, "--budget", "30"],
                     ["run", path, "--max-steps", "30"],
                     ["probe", path, "--budget", "30"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2, 3), argv


_TYPE_FILES = [fixtures.SLOT_TYPES, fixtures.SATELLITE_TYPES, fixtures.ASYNC_TYPES,
               fixtures.VARIANCE_TYPES,
               # channel actions, which the first-order relations refuse
               next(f["types"] for f in fixtures.corpus() if f["name"] == "output-anticipation")]
_MACHINES = [fixtures.QM_COUNTDOWN, fixtures.QM_LOOP]
_JSON_TOKEN = re.compile(r'"[^"]*"|[][{}:,]|[^][{}:,\s"]+')
# renaming a word or a string keeps the syntax, so the commands get past
# the parsers more often; punctuation is only replaced by itself
_RENAMING_OPS = _OPS + ("replace", "replace")


@st.composite
def mutated_types_and_machines(draw):
    """A mutated type file, two names and a label from it, a mutated machine."""
    toks = _type_tokens(draw(st.sampled_from(_TYPE_FILES)))
    toks = _mutate_tokens(draw, toks, lambda t: t.isidentifier() or t, _RENAMING_OPS)
    words = sorted({t for t in toks if t.isidentifier() and t != "type"}) or ["S"]
    left, right = draw(st.sampled_from(words)), draw(st.sampled_from(words))
    label = draw(st.sampled_from(["*", "(end!)", "(end?)"] + words))
    label = draw(st.sampled_from("?!")) + label
    mtoks = _JSON_TOKEN.findall(json.dumps(draw(st.sampled_from(_MACHINES))))
    mtoks = _mutate_tokens(draw, mtoks, lambda t: t.startswith('"') or t, _RENAMING_OPS)
    word = draw(st.sampled_from(["", "a", "aa", "ab", "$"]))
    return " ".join(toks), left, right, label, "".join(mtoks), word


@given(mutated_types_and_machines())
@settings(max_examples=60, deadline=None)
def test_cli_survives_mutated_types_and_machines(case):
    src, left, right, label, machine, word = case
    with tempfile.TemporaryDirectory() as d:
        path, mpath = os.path.join(d, "t.st"), os.path.join(d, "m.json")
        with open(path, "w") as fh:
            fh.write(src)
        with open(mpath, "w") as fh:
            fh.write(machine)
        small = ["--max-pairs", "30", "--max-nodes", "16"]
        for argv in (["parse", path],
                     ["dual", path, left],
                     ["labels", path, left, "--dir", "in"],
                     ["labels", path, left, "--dir", "out", "--mode", "ind"],
                     ["step", path, left, "--label", label],
                     ["compose", path, left, right, *small],
                     *(["subtype", "--rel", rel, path, left, right, *small]
                       for rel in cli._REL_NAMES),
                     ["crosscheck", path, left, right, *small],
                     ["qm-encode", mpath, "--input", word],
                     ["qm-sim", mpath, "--input", word, "--max-steps", "30"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2, 3), argv


@st.composite
def random_texts(draw):
    """Random printable text, alone or put into a type file, a program or a machine."""
    base = draw(st.sampled_from([""] + _TYPE_FILES + _PROGRAMS
                                + [json.dumps(m) for m in _MACHINES]))
    at = draw(st.integers(0, len(base)))
    return base[:at] + draw(st.text(st.sampled_from(string.printable), max_size=80)) + base[at:]


@given(random_texts(), st.sampled_from(["S", "T", "a", "é"]))
@settings(max_examples=100, deadline=None)
def test_cli_survives_random_text(src, name):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.st")
        with open(path, "w") as fh:
            fh.write(src)
        small = ["--max-pairs", "30", "--max-nodes", "16"]
        for argv in (["parse", path],
                     ["dual", path, name],
                     ["compose", path, name, "S", *small],
                     ["subtype", "--rel", "fair", path, "S", name, *small],
                     ["corpus", src],
                     ["typecheck", path, "--budget", "30"],
                     ["run", path, "--max-steps", "30"],
                     ["probe", path, "--budget", "30"],
                     ["qm-encode", path, "--input", "a"],
                     ["qm-sim", path, "--input", "a", "--max-steps", "30"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2, 3), argv


def test_deep_cut_chain_runs_and_probes(capsys, tmp_path):
    # 1500 definitions, each opening a cut around the next one's call: the
    # configuration is a tree of cuts 1500 deep before the first step
    n = 1500
    chain = tmp_path / "cuts.cap"
    chain.write_text("".join(f"def A{i}(u) = new z : end! >< end? {{ A{i + 1}(z) || "
                             f"wait z . close u }}\n" for i in range(n))
                     + f"def A{n}(u) = close u\n"
                     + "new u : end! >< end? { A0(u) || wait u . done }\n")
    assert cli.main(["run", str(chain), "--max-steps", "2000"]) == 0
    assert cli.main(["probe", str(chain), "--budget", "2000"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"DoneReached after {n + 1} steps", "done is reachable"]
    assert "Traceback" not in out + err
