"""The five subtyping relations disagree in instructive ways.

The slot machine is the classic example: a machine that only ever loses is a
synchronous subtype of the fair one, and even an asynchronous subtype — but
fairness-aware refinement rejects it, because a client of the fair machine
may rely on eventually winning.
"""

from sessionkit import fixtures, relations
from sessionkit import types as ty

T = ty.parse_type(fixtures.SLOT_TYPES, "T")  # can only lose
S = ty.parse_type(fixtures.SLOT_TYPES, "S")  # may win or lose

print("slot machine: T (always loses) vs S (fair):")
for kind in ("syncsub", "asyncsub", "bzfairsub", "fairsub"):
    v = relations.check(T, S, kind)
    extra = f"  ({v.reason})" if v.reason else ""
    print(f"  {kind:10} -> {v.answer}{extra}")

# fairsub comes back unknown rather than yes: the relation does hold
# semantically, but every witness set is infinite, so the bounded game
# cannot close.  bzfairsub says no outright: T has a must-output (!lose)
# that S's clients never have to be ready for... and vice versa the
# must-output-reachability clause finds the discrepancy in finite time.

print()
print("satellite protocol: witness extraction")
sat_s = ty.parse_type(fixtures.SATELLITE_TYPES, "S")
sat_u = ty.parse_type(fixtures.SATELLITE_TYPES, "U")
v = relations.check(sat_s, sat_u, "fairsub")
print(f"  fairsub -> {v.answer}, witness of {len(v.witness)} pairs:")
for a, b in v.witness:
    print(f"    {ty.render_inline(a)}   |   {ty.render_inline(b)}")
ok, _ = relations.validate_witness("fairsub", v.witness)
print(f"  independent validation: {ok}")

print()
print("failed variance: counterexample trace")
var_s = ty.parse_type(fixtures.VARIANCE_TYPES, "S")
var_t = ty.parse_type(fixtures.VARIANCE_TYPES, "T")
v = relations.check(var_s, var_t, "fairsub")
print(f"  fairsub -> {v.answer} ({v.reason})")
for step in v.trace:
    a, b = map(ty.render_inline, step["pair"])
    print(f"    [{step['clause']}] {a}  |  {b}")
