import itertools
import math
import os
import random
import runpy

import pytest

from sessionkit import cli, fixtures, measures, process

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_server_measures_exact():
    prog = process.parse_program(fixtures.SERVER_PROGRAM)
    mu = measures.infer_measures(prog)
    assert mu["Gather"] == 2
    assert mu["Split"] == 4
    assert mu["Worker"] == 2
    assert mu["Server"] == 6
    assert mu["C"] == 1


def test_zeroed_worker_diverges():
    src = fixtures.SERVER_PROGRAM.replace("task@1", "task")
    prog = process.parse_program(src)
    mu = measures.infer_measures(prog)
    assert math.isinf(mu["Worker"])
    # Split can still bail out via its stop branch, so it stays finite
    assert mu["Split"] == 4


def test_micro_equation():
    # m = 1 + min(1 + m, 3): the loop costs more than bailing out, so the
    # least solution is 1 + 3 = 4
    prog = process.parse_program(
        "type TM = +{ a: TM, b: +{ b: end! } }\n"
        "sig M(x: TM)\n"
        "def M(x) = x!a.M(x) (+) x!b.x!b.close x")
    assert measures.infer_measures(prog)["M"] == 4


def test_case_measure_uses_type_branches():
    # the type says only 'a' can arrive; the dead 'b' branch would diverge
    # if it were counted
    prog = process.parse_program(
        "type T = &{ a: end? }\n"
        "sig B(x: T)\n"
        "def B(x) = case x { a: wait x.done, b: B(x) }")
    assert measures.infer_measures(prog)["B"] == 0


def test_measure_discounts_annotations():
    prog = process.parse_program(
        "type S = +{ go@3: end! }\nsig A(x: S)\ndef A(x) = x!go.close x")
    # select pays 1 + the annotation it spends
    assert measures.infer_measures(prog)["A"] == 5


def test_typecheck_server_conditional():
    prog = process.parse_program(fixtures.SERVER_PROGRAM)
    rep = measures.typecheck(prog)
    assert rep.status == "Conditional"
    verdicts = {o["id"]: o["verdict"] for o in rep.obligations}
    assert verdicts["cut-x"] == "yes"
    assert verdicts["cut-y"] == "unknown"


def test_typecheck_assume_cut():
    prog = process.parse_program(fixtures.SERVER_PROGRAM)
    rep = measures.typecheck(prog, assume_cuts=("cut-y",))
    verdicts = {o["id"]: o["verdict"] for o in rep.obligations}
    assert verdicts["cut-y"] == "assumed"


def test_typecheck_deadlock_ill_typed():
    prog = process.parse_program(fixtures.DEADLOCK_PROGRAM)
    rep = measures.typecheck(prog)
    assert rep.status == "IllTyped"


def test_typecheck_no_finite_measure():
    prog = process.parse_program(fixtures.OMEGA_PROGRAM)
    rep = measures.typecheck(prog)
    assert rep.status == "IllTyped"
    assert any("measure" in r for r in rep.reasons)


def test_typecheck_well_typed_simple():
    prog = process.parse_program(
        "new x : +{ a: end! } >< &{ a: end? } "
        "{ x!a.close x || case x { a: wait x.done } }")
    rep = measures.typecheck(prog)
    assert rep.status == "WellTyped"


def test_typecheck_bad_compose_is_ill_typed():
    prog = process.parse_program(
        "new x : +{ a@1: end! } >< &{ a@2: end? } "
        "{ x!a.close x || case x { a: wait x.done } }")
    rep = measures.typecheck(prog)
    assert rep.status == "IllTyped"


def test_typecheck_link_obligation():
    prog = process.parse_program(fixtures.LINK_SUBSUMPTION_PROGRAM)
    rep = measures.typecheck(prog)
    assert rep.status == "Conditional"
    kinds = {o.get("kind") for o in rep.obligations}
    assert "link" in kinds or any("link" in str(o).lower() for o in rep.obligations)


def test_case_branch_missing_in_type():
    # a definition that does not type-check has no measure; the second input
    # breaks linearity (x is never closed)
    for src in ("type T = &{ a: end?, b: end? }\nsig A(x: T)\n"
                "def A(x) = case x { a: wait x.done }",
                "sig A(x: end!)\ndef A(x) = done"):
        prog = process.parse_program(src)
        with pytest.raises(measures.MeasureError) as err:
            measures.infer_measures(prog)
        rep = measures.typecheck(prog)
        assert rep.status == "IllTyped"
        assert rep.reasons == [str(err.value)]  # reported once, located
        assert rep.reasons[0].startswith("def A: ")
        assert rep.measures == {}


def test_deep_unrolled_chain_has_finite_measures(capsys, tmp_path):
    # 1200 definitions in a call chain: each settles in the first callee-first
    # round, where a round per link would need more than ROUND_LIMIT of them
    n = 1200
    src = runpy.run_path(os.path.join(PERFBENCH, "gen.py"))["unrolled_program"](n)
    rep = measures.typecheck(process.parse_program(src), assume_cuts=["cut-y"])
    assert rep.status == "Conditional" and rep.reasons == []
    assert rep.measures["Split1200"] == 2403 and rep.measures["Server"] == 2 * n + 5
    assert rep.measures == runpy.run_path(
        os.path.join(PERFBENCH, "checks.py"))["unrolled_measures"](n)
    path = tmp_path / "unrolled.cap"
    path.write_text(src)
    assert cli.main(["typecheck", str(path), "--assume", "cut-y"]) == 2
    assert "status: Conditional" in capsys.readouterr().out


DIVERGENT_DEPENDENCY = """
type T = +{ a: T }
type Z = &{ go: Z }
type Y = &{ t@2000: end? }
sig A(x: T, z: Z)
sig B(x: T, z: Z, y: Y)
def A(x, z) = case z { go: x!a.A(x, z) }
def B(x, z, y) = case y { t: wait y . A(x, z) }
"""


def test_a_definition_waiting_on_a_divergent_one_diverges():
    # B = max(0, A - 2000) and A = 1 + A: A is still below 2000 when the round
    # limit runs out, so B diverges only once A is widened to Infinity
    prog = process.parse_program(DIVERGENT_DEPENDENCY)
    assert measures.infer_measures(prog) == {"A": math.inf, "B": math.inf}
    rep = measures.typecheck(prog)
    assert rep.status == "IllTyped"
    assert rep.reasons == ["def A: no finite measure", "def B: no finite measure"]


# Reference solver: Jacobi rounds, every value computed from the previous
# round's, until a round changes nothing (None if ``rounds`` run out first).
def _jacobi(equations, rounds=None):
    mu = {name: 0 for name in equations}
    for _ in itertools.count() if rounds is None else range(rounds):
        nxt = {name: measures._cap(k(mu)) for name, k in equations.items()}
        if nxt == mu:
            return mu
        mu = nxt
    return None


def _system(rng):
    """Random equations in the shapes of ``measures._walk``'s closures, and the
    callees of each: calls to itself, to the one before (chains) or to any."""
    n = rng.randint(1, 10)
    names = [f"D{i}" for i in range(n)]
    calls = {name: [] for name in names}
    cap = measures._cap

    def term(i, depth):
        shape = rng.choice(("const", "call", "call", "select", "case", "choice", "sum")
                           if depth else ("const", "call"))
        if shape == "const":
            c = rng.randint(0, 3)
            return lambda mu: c
        if shape == "call":
            name = names[rng.choice((i, max(i - 1, 0), max(i - 1, 0), rng.randrange(n)))]
            calls[names[i]].append(name)
            return lambda mu: mu.get(name, 0)
        if shape == "select":
            m, k = rng.randint(0, 2), term(i, depth - 1)
            return lambda mu: cap(1 + m + k(mu))
        if shape == "case":
            arms = [(rng.randint(0, 4), term(i, depth - 1)) for _ in range(rng.randint(1, 3))]
            return lambda mu: cap(max([0, *(k(mu) - m for m, k in arms)]))
        kl, kr = term(i, depth - 1), term(i, depth - 1)
        if shape == "choice":
            return lambda mu: cap(1 + min(kl(mu), kr(mu)))
        return lambda mu: cap(kl(mu) + kr(mu))  # a cut, or a fork without its 1

    return {name: term(i, 3) for i, name in enumerate(names)}, calls


def test_solver_matches_jacobi_rounds_where_they_converge():
    converged = 0
    for seed in range(300):
        equations, calls = _system(random.Random(seed))
        want = _jacobi(equations, measures.ROUND_LIMIT + 1)
        if want is not None:
            converged += 1
            assert measures._solve(equations, calls) == want, seed
    assert converged > 100


def test_solver_is_never_below_the_least_fixed_point(monkeypatch):
    # with a small cap the unbounded reference ends; with a small round limit
    # the solver widens cycles that are still climbing
    monkeypatch.setattr(measures, "CAP", 24)
    monkeypatch.setattr(measures, "ROUND_LIMIT", 4)
    widened = 0
    for seed in range(1000):
        equations, calls = _system(random.Random(seed))
        got, least = measures._solve(equations, calls), _jacobi(equations)
        assert all(got[name] >= v for name, v in least.items()), seed
        if _jacobi(equations, measures.ROUND_LIMIT + 1) is not None:
            assert got == least, seed
        widened += got != least
    assert widened > 20
