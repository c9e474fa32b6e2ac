import math

import pytest

from sessionkit import fixtures, measures, process


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
