"""The package's records are immutable named tuples.  Those with invariants
check them on every construction, positional or by keyword, and survive a
deep copy and a pickle round trip."""

import copy
import pickle

import pytest

from rhoslice.almodule import AlexanderModule, ModuleError, Summand, alexander_module
from rhoslice.blanchfield import FormError, LinkingForm, blanchfield_form
from rhoslice.obstruction import (
    Companion,
    FamilyMember,
    FamilySpec,
    InfectedKnot,
    ObstructionError,
    verify_obstructed,
)
from rhoslice.polyalg import LaurentPoly
from rhoslice.seifert import PatternKnot, SeifertError, pattern_9_46, trefoil_right
from rhoslice.signatures import SignatureError, SignatureFunction, signature_function

from conftest import rho_of, symbol

S = LaurentPoly.var("s")


def knot():
    return InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion("rA", symbol("rA")),
        "beta": Companion("rB", rho_of(1))})


def summand(label):
    return Summand(2 * S - 1, 2 * S - 1, 1, label)


def bad_records():
    pattern = pattern_9_46()
    module = alexander_module(pattern)
    form = blanchfield_form(pattern)[0]
    return [
        (lambda: AlexanderModule("s", 1, (summand("a"), summand("a"))),
         ModuleError, "generator labels must be unique"),
        (lambda: AlexanderModule(variable="s", complexity=1, summands=(
            Summand(S - 2, 2 * S - 1, 1, "a"),)),
         ModuleError, "annihilator must be base^mult"),
        (lambda: LinkingForm(module, form.gram[:1]),
         FormError, "Gram matrix shape does not match the module"),
        (lambda: LinkingForm(module=module, gram=((form.gram[0][0],),) * 2),
         FormError, "Gram matrix shape does not match the module"),
        (lambda: FamilyMember(knot(), 0),
         ObstructionError, "multiplicities must be nonzero"),
        (lambda: FamilyMember(knot=knot(), multiplicity=0, with_reverse=False),
         ObstructionError, "multiplicities must be nonzero"),
        (lambda: FamilySpec(()),
         ObstructionError, "family must have at least one member"),
        (lambda: FamilySpec(members=(FamilyMember(knot(), 1),), names=("a", "b")),
         ObstructionError, "one name per member"),
        (lambda: PatternKnot(pattern.seifert, pattern.curves * 2),
         SeifertError, "curve names must be unique"),
        (lambda: PatternKnot(seifert=pattern.seifert, curves=(
            ("alpha", pattern.curves[0][1][:1]),)),
         SeifertError, "curve 'alpha' has 1 coordinates, expected 2"),
        (lambda: SignatureFunction((), (0, 2)),
         SignatureError, "arc/jump count mismatch"),
        (lambda: SignatureFunction(roots=(), arc_values=(2,)),
         SignatureError, "signature must vanish near w = 1"),
    ]


@pytest.mark.parametrize("case", range(len(bad_records())))
def test_checked_records_reject_bad_data(case):
    build, error, message = bad_records()[case]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def valid_records():
    pattern = pattern_9_46()
    spec = FamilySpec((FamilyMember(knot(), 2), FamilyMember(knot(), -1)),
                      ("K1", "K2"))
    return [alexander_module(pattern), blanchfield_form(pattern)[0],
            spec.members[0], spec, pattern,
            signature_function(trefoil_right()), verify_obstructed(spec, 2)]


@pytest.mark.parametrize("case", range(len(valid_records())))
def test_records_survive_deepcopy_and_pickle(case):
    record = valid_records()[case]
    for twin in (copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_records_are_immutable():
    spec = FamilySpec((FamilyMember(knot(), 1),))
    with pytest.raises(AttributeError):
        spec.members = ()
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec._replace(names=("K",)) == FamilySpec(spec.members, ("K",))
