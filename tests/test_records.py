"""The immutable result records (`typing.NamedTuple` classes) keep the
behaviour callers rely on: construction by position or keyword with
defaults, value equality and hashing, no attribute assignment, `_replace`,
their repr, their truth values, and the validation of the one record that
checks its input."""

import pytest
from references import PermutationSpec, ProcedureValidation

from monadlab.distlaws import DistLaw
from monadlab.hierarchy import TableMismatch, VerdictTable
from monadlab.monads import monad_for
from monadlab.nogo import (
    Applicability,
    CheckRecord,
    NoGoVerdict,
    PositiveEntry,
    RefutationTrace,
)
from monadlab.terms import (
    EqResult,
    EqStatus,
    Equation,
    Presentation,
    Var,
    parse_term,
    signature,
)
from monadlab.theories import (
    BoomFlags,
    PropertyCertificate,
    PropertyId,
    PropertyStatus,
)

_SIG = signature(("mul", 2))
_X = Var("x")

# record class, its required fields by position, a field to change and the
# new value, whether the record hashes (dict and list fields never did)
RECORDS = [
    (Equation, (_X, parse_term("mul(x,x)", _SIG)), "name", "idem", True),
    (Presentation, ("p", _SIG, (Equation(_X, _X),)), "name", "q", True),
    (EqResult, (EqStatus.EQUAL, 0, 1), "capped", True, True),
    (BoomFlags, (True, True, False, False), "comm", True, True),
    (PropertyCertificate, (PropertyId.S1, PropertyStatus.HOLDS, "m"), "prop",
     PropertyId.P2, True),
    (ProcedureValidation, ("monoid", 3, 2, [], []), "class_count", 3, False),
    (PermutationSpec, (2, (2, 1)), "mapping", (1, 2), True),
    (CheckRecord, ("S", "S1", True, "ok"), "passed", False, True),
    (Applicability, ("Plotkin1", "s", "t", ()), "theorem", "Plotkin2", True),
    (PositiveEntry, (("mm-nel-1",), "cite"), "law_ids", (), True),
    (NoGoVerdict, ("s", "t", "Unknown"), "status", "Exists", True),
    (RefutationTrace, ("v", ("u",), (), (), ("u",)), "survivors", (), True),
    (TableMismatch, ("T", "L", "N", "Y"), "got", "?", True),
    (VerdictTable, ("original", ("T",), {}), "variant", "full", False),
    (DistLaw, ("id", monad_for("list"), monad_for("powerset"), repr), "law_id",
     "other", True),
]


@pytest.mark.parametrize("cls,args,field,new,hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, args, field, new, hashable):
    rec = cls(*args)
    required = cls._fields[:len(args)]
    assert cls(**dict(zip(required, args))) == rec
    assert tuple(rec)[:len(args)] == args
    for name, default in cls._field_defaults.items():
        assert getattr(rec, name) == default
    assert set(cls._field_defaults) == set(cls._fields[len(args):])

    again = cls(*args)
    assert again == rec and again is not rec
    if hashable:
        assert hash(again) == hash(rec)
    else:
        with pytest.raises(TypeError):
            hash(rec)

    with pytest.raises(AttributeError):
        setattr(rec, field, new)
    with pytest.raises(AttributeError):
        rec.extra = 1

    changed = rec._replace(**{field: new})
    assert type(changed) is cls
    assert getattr(changed, field) == new and getattr(rec, field) != new
    assert all(getattr(changed, f) == getattr(rec, f) for f in cls._fields if f != field)


def test_record_repr_is_pinned():
    assert repr(CheckRecord("S", "S1", True, "ok")) == (
        "CheckRecord(side='S', requirement='S1', passed=True, evidence='ok')"
    )
    assert repr(PermutationSpec.swap()) == "PermutationSpec(size=2, mapping=(2, 1))"


def test_record_truth_values():
    assert EqResult(EqStatus.EQUAL, 0, 1)
    assert not EqResult(EqStatus.UNKNOWN, None, 7, True)
    for status in PropertyStatus:
        cert = PropertyCertificate(PropertyId.S1, status, "m")
        assert bool(cert) is (status is PropertyStatus.HOLDS)


def test_validated_records_reject_bad_input():
    for size, mapping in [(2, (1, 1)), (3, (1, 2)), (0, ()), (2, (2, 3))]:
        with pytest.raises(ValueError):
            PermutationSpec(size, mapping)
        with pytest.raises(ValueError):
            PermutationSpec(size=size, mapping=mapping)
