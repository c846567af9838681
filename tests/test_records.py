"""jsonio.Record against dataclasses, the reference it replaces.

Every record class gets a frozen dataclass twin made from its field table:
the same names in the same order, the same defaults and the same repr
flags. On the catalog instances of test_codec.EXAMPLES and on drawn field
values, a record and its twin must agree on construction, ==, hash, repr
and the AttributeError that assignment raises. dataclasses is imported here
only, as the reference.
"""

import dataclasses
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import jsonio
from test_codec import EXAMPLES

for _module in ("scalar_sets", "operators", "constructions", "density", "criteria", "winding"):
    importlib.import_module(f"orbitlab.{_module}")


def _records():
    found, stack = [], list(jsonio.Record.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("orbitlab."):
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


RECORDS = _records()


def _twin(cls):
    specs = []
    for f in cls.fields:
        default = {} if f.default is jsonio.MISSING else {"default": f.default}
        specs.append((f.name, object, dataclasses.field(repr=f.repr, **default)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _bare(cls, values):
    """A record of cls holding values, made without its __init__ (whose
    checks the drawn values need not pass)."""
    obj = cls.__new__(cls)
    vars(obj).update(zip((f.name for f in cls.fields), values))
    return obj


def _values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _refusal(obj, action, name):
    with pytest.raises(AttributeError) as exc:
        action(obj, name)
    return str(exc.value)


def _assert_same(record, twin):
    """record and twin, holding the same values, agree on everything but their type."""
    assert [getattr(record, f.name) for f in type(record).fields] == _values(twin)
    assert hash(record) == hash(twin)
    assert repr(record) == repr(twin)
    for name in [f.name for f in type(record).fields] + ["not_a_field"]:
        for action in (lambda o, n: setattr(o, n, 0), delattr):
            assert _refusal(record, action, name) == _refusal(twin, action, name)


def test_every_record_class_is_covered():
    assert len(RECORDS) > 40
    assert {type(x) for root in EXAMPLES for x in EXAMPLES[root]} <= set(RECORDS)


@pytest.mark.parametrize(
    "example", [x for root in EXAMPLES for x in EXAMPLES[root]], ids=lambda x: type(x).__name__
)
def test_catalog_instances_match_their_twins(example):
    cls = type(example)
    values = [getattr(example, f.name) for f in cls.fields]
    twin = TWINS[cls](*values)
    _assert_same(example, twin)
    assert cls(*values) == example and not example != cls(*values)
    assert example != twin


# hashable field values of many types, NaN included
_VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.complex_numbers()
    | st.text(max_size=3)
    | st.tuples(st.integers(), st.floats(allow_nan=False))
)


@st.composite
def _cases(draw, cls):
    """(values, other): field values for cls, and the same values with one
    field replaced by a drawn value (the same list when cls has no fields)."""
    values = draw(st.lists(_VALUES, min_size=len(cls.fields), max_size=len(cls.fields)))
    other = list(values)
    if values:
        other[draw(st.integers(0, len(values) - 1))] = draw(_VALUES)
    return values, other


def _uses_record_init(cls):
    return cls.__init__ is jsonio.Record.__init__ and not hasattr(cls, "__post_init__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_drawn_records_match_their_twins(cls, data):
    values, other = data.draw(_cases(cls))
    twin = TWINS[cls]
    a, b, a_again = _bare(cls, values), _bare(cls, other), _bare(cls, values)
    ta, tb = twin(*values), twin(*other)
    _assert_same(a, ta)
    _assert_same(b, tb)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert (a == a_again) == (ta == twin(*values))
    assert a != ta and not a == ta  # a twin is another class
    if _uses_record_init(cls):
        names = [f.name for f in cls.fields]
        _assert_same(cls(*values), ta)
        _assert_same(cls(**dict(zip(names, values))), ta)
        required = [v for f, v in zip(cls.fields, values) if f.default is jsonio.MISSING]
        _assert_same(cls(*required), twin(*required))
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*values, None)
            if required:
                with pytest.raises(TypeError):
                    make(*required[:-1])
