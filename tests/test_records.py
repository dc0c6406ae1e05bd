"""Record semantics of the hashed and keyed records: value equality within
one class, equal hashes for equal values, no equality with the plain tuple
of the fields, refused assignment, the old validations and the repr text."""

from fractions import Fraction

import pytest

from stratsys.apq import TubeLabel, TubePoint, tube_lambda
from stratsys.linalg import RationalMatrix
from stratsys.modules import ModuleRef, ref_plain, ref_preproj, ref_root, ref_tube
from stratsys.quiver import Arrow, Quiver, canonical_apq, kronecker
from stratsys.reps import Representation, make_rep, minimal_presentation, projective


def _twins():
    """(record class, the values of its fields) for each record kind."""
    q = canonical_apq(2, 3)
    rep = make_rep(kronecker(2), [1, 1], {"a1": [[1]], "a2": [[Fraction(1, 2)]]})
    return [
        (RationalMatrix, (2, 2, ((1, 0), (3, 1)), 2)),
        (Arrow, (2, 1, "a1")),
        (Quiver, (q.vertices, q.arrows)),
        (TubeLabel, ("lambda", Fraction(3))),
        (TubePoint, (TubeLabel("infty"), 2, 3)),
        (Representation, (rep.quiver, rep.dims, rep.maps)),
        (ModuleRef, (q, "tauP", 1, 2, None, None, None, None)),
        (ModuleRef, (rep.quiver, "plain", None, 0, None, None, rep, None)),
        (ModuleRef, (q, "tube", None, 0, (2, 3), TubePoint(TubeLabel("zero"), 1, 2), None,
                     None)),
        (ModuleRef, (q, "root", None, 0, None, None, None, (1, 1, 1, 1, 1))),
    ]


@pytest.mark.parametrize("cls, values", _twins(), ids=lambda v: getattr(v, "__name__", ""))
def test_equal_values_are_equal_records_with_equal_hashes(cls, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1


@pytest.mark.parametrize("cls, values", _twins(), ids=lambda v: getattr(v, "__name__", ""))
def test_a_record_is_not_the_tuple_of_its_fields(cls, values):
    record = cls(*values)
    assert record != values and values != record
    assert not isinstance(record, tuple)


@pytest.mark.parametrize("cls, values", _twins(), ids=lambda v: getattr(v, "__name__", ""))
def test_assignment_to_a_field_raises(cls, values):
    record = cls(*values)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert cls(*values) == record


def test_records_of_different_values_or_classes_differ():
    q = canonical_apq(2, 3)
    assert RationalMatrix(1, 1, ((1,),), 1) != RationalMatrix(1, 1, ((1,),), 2)
    assert Arrow(2, 1, "a1") != Arrow(1, 2, "a1")
    assert TubeLabel("infty") != TubeLabel("zero")
    assert TubePoint(TubeLabel("infty"), 1, 1) != TubePoint(TubeLabel("infty"), 1, 2)
    assert ref_preproj(q, 1) != ref_preproj(q, 1, 1)
    assert ref_tube(2, 3, TubeLabel("infty"), 1) != ref_root(q, (1,) * q.n)


def test_invalid_shapes_and_tube_parameters_raise():
    with pytest.raises(ValueError):
        RationalMatrix(-1, 0, (), 1)
    with pytest.raises(ValueError):
        RationalMatrix(1, 1, ((1,),), 0)
    with pytest.raises(ValueError):
        RationalMatrix(2, 1, ((1,),), 1)
    with pytest.raises(ValueError):
        RationalMatrix(1, 2, ((1,),), 1)
    q = kronecker(2)
    one = RationalMatrix(1, 1, ((1,),), 1)
    with pytest.raises(ValueError):
        Representation(q, (1,), (one, one))
    with pytest.raises(ValueError):
        Representation(q, (1, -1), (one, one))
    with pytest.raises(ValueError):
        Representation(q, (1, 1), (one,))
    with pytest.raises(ValueError, match="expected"):
        Representation(q, (1, 2), (one, one))
    with pytest.raises(ValueError):
        TubeLabel("tube")
    with pytest.raises(ValueError):
        TubeLabel("lambda")
    with pytest.raises(ValueError):
        tube_lambda(0)
    with pytest.raises(ValueError):
        TubeLabel("zero", Fraction(1))
    with pytest.raises(ValueError):
        TubePoint(TubeLabel("zero"), 0, 1)
    with pytest.raises(ValueError):
        TubePoint(TubeLabel("zero"), 1, 0)


def test_cached_state_is_no_part_of_eq_hash_or_repr():
    q = canonical_apq(2, 3)
    fresh = Quiver(q.vertices, q.arrows)
    assert q.context is not None and fresh._context is None
    assert q == fresh and hash(q) == hash(fresh) == hash((q.vertices, q.arrows))
    assert repr(q) == repr(fresh) == f"Quiver(vertices={q.vertices!r}, arrows={q.arrows!r})"
    p = projective(q, 0)
    twin = Representation(p.quiver, p.dims, p.maps)
    minimal_presentation(p)
    assert p._presentation is not None and twin._presentation is None
    assert p == twin and hash(p) == hash(twin)
    assert "_presentation" not in repr(p)


def test_the_repr_text_names_each_field():
    assert repr(Arrow(2, 1, "a1")) == "Arrow(src=2, tgt=1, label='a1')"
    assert repr(RationalMatrix(1, 2, ((1, 3),), 2)) == (
        "RationalMatrix(rows=1, cols=2, nums=((1, 3),), den=2)")
    assert repr(TubePoint(tube_lambda(2), 1, 4)) == (
        "TubePoint(tube=TubeLabel(kind='lambda', lam=Fraction(2, 1)), index=1, level=4)")
    q = kronecker(2)
    rep = make_rep(q, [1, 0], {})
    assert repr(ref_plain(rep)) == (
        f"ModuleRef(quiver={q!r}, kind='plain', vertex=None, power=0, apq=None, point=None, "
        f"rep_obj={rep!r}, dims=None)")


def test_a_tube_label_keeps_its_hash_out_of_eq_and_repr():
    label = tube_lambda(3)
    assert label._fields == ("kind", "lam")
    assert hash(label) == label._hash == hash(("lambda", Fraction(3)))
    assert repr(label) == "TubeLabel(kind='lambda', lam=Fraction(3, 1))"
    assert label == TubeLabel("lambda", Fraction(3)) != TubeLabel("infty")


def test_a_tube_point_keeps_its_hash_out_of_eq_and_repr():
    point = TubePoint(TubeLabel("zero"), 2, 5)
    assert point._fields == ("tube", "index", "level")
    assert hash(point) == point._hash == hash((TubeLabel("zero"), 2, 5))
    assert "_hash" not in repr(point)
    assert point == TubePoint(TubeLabel("zero"), 2, 5) != TubePoint(TubeLabel("zero"), 2, 4)
