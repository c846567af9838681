"""The record JSON codec: every variant round-trips, and no JSON tree
placed where a config expects a variant makes the CLI exit 2."""

import hashlib
import importlib.util
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import cli, jsonio, operators, scalar_sets
from orbitlab._exact import X2
from orbitlab.criteria import Traces
from orbitlab.density import Ball, Miss
from orbitlab.operators import (
    BackwardShift,
    DirectSum,
    ForwardShift,
    OperatorSpec,
    ScalarMultiple,
    ScalarOnC,
    WeightedBackward,
    SeqVector,
    WeightedForward,
    doubling_weights,
)
from orbitlab.scalar_sets import (
    AngleSpec,
    Annulus,
    Arc,
    Circle,
    CircleProduct,
    FinitePoints,
    Geometric,
    LogSpiral,
    ScalarSet,
    Scaled,
    Sector,
    Union,
)
from orbitlab.winding import (
    CircleCurve,
    ConcatCurve,
    ConstantCurve,
    ParamSegment,
    SampledCurve,
    winding_number,
)

IRR = AngleSpec.irrational(1.0, "one radian")

# one instance of every variant, by family root
EXAMPLES = {
    ScalarSet: [
        FinitePoints([1.0, 2j]),
        Circle(1.5),
        Annulus(1.0, 2.0),
        Arc(2.0, 0.1, 0.7),
        Sector(0.5, math.inf, 0.0, 1.0),
        LogSpiral(0.5, AngleSpec.rational_pi(3, 7)),
        Geometric(0.5 + 0.25j),
        Union(Circle(1.0), Geometric(2.0)),
        Scaled(5j, Circle(1.0)),
        CircleProduct(LogSpiral(2.0, IRR)),
    ],
    OperatorSpec: [
        BackwardShift(),
        ForwardShift(),
        WeightedBackward(doubling_weights()),
        WeightedForward(doubling_weights().inverse_shifted()),
        ScalarOnC(0.5 - 1j),
        ScalarMultiple(2.0, BackwardShift()),
        DirectSum(ScalarOnC(1j), ForwardShift()),
    ],
    CircleCurve: [
        SampledCurve([1, 1j, -1, -1j, 1]),
        ParamSegment(2.0, 2.0, 1.0),
        ConstantCurve(1.0 - 1j),
        ConcatCurve(ConstantCurve(1.0), ParamSegment(1.5, 1.5, 1.0)),
    ],
}
_VARIANTS = [x for root in EXAMPLES for x in EXAMPLES[root]]


def _concrete_subclasses(root):
    found = set()
    stack = list(root.__subclasses__())
    while stack:
        cls = stack.pop()
        # classes defined in tests (say, an unknown variant) are not catalog members
        if cls.__module__.startswith("orbitlab."):
            found.add(cls)
        stack.extend(cls.__subclasses__())
    return found


@pytest.mark.parametrize("root", list(EXAMPLES), ids=lambda r: r.__name__)
def test_kind_table_round_trips_every_variant(root):
    examples = EXAMPLES[root]
    assert set(root.kinds.values()) == _concrete_subclasses(root)
    assert {type(x) for x in examples} == set(root.kinds.values())
    for x in examples:
        blob = json.loads(jsonio.dumps(x))
        assert next(iter(blob)) == "kind" and root.kinds[blob["kind"]] is type(x)
        assert jsonio.decode(root, blob, "x") == x


# ---------------------------------------------------------------------------
# behaviour methods

_VECTORS = {"uni": SeqVector.basis(2), "bi": SeqVector.basis(-1, "bi"), "scalar": 0.5 + 1j}


def _vector(dom):
    return tuple(map(_vector, dom)) if isinstance(dom, tuple) else _VECTORS[dom]


_PART = st.floats(-4.0, 4.0)
_ON = {
    "scalar": st.builds(complex, _PART, _PART),
    "uni": st.dictionaries(st.integers(0, 6), st.builds(complex, _PART, _PART), max_size=3).map(
        lambda d: SeqVector.make("uni", d)),
    "bi": st.dictionaries(st.integers(-6, 6), st.builds(complex, _PART, _PART), max_size=3).map(
        lambda d: SeqVector.make("bi", d)),
}
# every shape: numbers, sequence vectors of both domains, and tuples of them
_ANY_SHAPE = st.recursive(
    st.one_of(*_ON.values(), _PART, st.none()),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)


def _on(dom):
    """Vectors on the operator_domain() dom."""
    return st.tuples(*map(_on, dom)) if isinstance(dom, tuple) else _ON[dom]


def _fits(v, dom):
    """The domain rule spelled out, as the reference for operators.on_domain."""
    if isinstance(dom, tuple):
        return type(v) is tuple and len(v) == len(dom) and all(map(_fits, v, dom))
    if dom == "scalar":
        return type(v) is complex
    return type(v) is SeqVector and v.domain == dom


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXAMPLES[OperatorSpec]), st.data())
def test_on_domain_holds_for_exactly_the_vectors_apply_takes(op, data):
    dom = op.operator_domain()
    v = data.draw(st.one_of(_on(dom), _ANY_SHAPE))
    try:
        op.apply(v)
        taken = True
    except operators.DomainMismatchError:
        taken = False
    assert operators.on_domain(v, dom) == taken == _fits(v, dom)


def _xc(x):
    return None if x is None else (x.re, x.im)


def _check_scalar_set(s):
    assert s.contains(1.0) in (True, False)
    assert s.modulus_set() == scalar_sets.modulus_set(s)
    assert 1 <= len(s.scalar_grid(5)) <= 5
    stripped = s.strip_zero()
    assert stripped is None or isinstance(stripped, ScalarSet)
    assert s.is_rotation_invariant() in (True, False)
    assert isinstance(s.rotate(0.5), ScalarSet)
    assert isinstance(s._group_product(0.5, 3), ScalarSet)
    s._coverage_leaves(0.0, 1.0, [])
    assert scalar_sets.is_dense_in_plane(s) in (True, False)
    for bound in (-3.0, 0.0, 3.0):
        assert _xc(s._pick(bound, True)) == _xc(scalar_sets.pick_modulus_at_least(s, bound))
        assert _xc(s._pick(bound, False)) == _xc(scalar_sets.pick_modulus_at_most(s, bound))


def _check_operator(op):
    v = _vector(op.operator_domain())
    assert op.apply(v) == operators.apply(op, v)
    assert op._power(3, v, ()) == operators.power_apply(op, 3, v)
    assert op.power_norm_bound(2) == operators.power_norm_bound(op, 2)
    assert math.isclose(2.0 ** op.log2_norm_bound(2), op.power_norm_bound(2), rel_tol=1e-9)
    chain, inner = op.dyadic_chain(), op
    while type(inner) is ScalarMultiple:
        inner = inner.inner
    assert type(chain) is (operators.DyadicChain if type(inner) in (BackwardShift, ForwardShift)
                           else type(None))
    assert op.adjoint_point_spectrum() == operators.adjoint_point_spectrum(op)


def _check_curve(curve):
    walk = curve._walk()
    assert math.isfinite(walk.total_turn) and walk.min_modulus > 0
    assert curve.reverse().reverse() == curve
    assert winding_number(curve.reverse()).index == -winding_number(curve).index


_BEHAVIOUR = {ScalarSet: _check_scalar_set, OperatorSpec: _check_operator,
              CircleCurve: _check_curve}


@pytest.mark.parametrize("variant", _VARIANTS, ids=lambda x: type(x).__name__)
def test_every_variant_answers_its_family_methods(variant):
    """Each catalog variant answers every behaviour method of its family, and
    each module-level entry point returns what the method returns."""
    root = next(r for r in EXAMPLES if isinstance(variant, r))
    _BEHAVIOUR[root](variant)


def test_encode_maps_the_irregular_fields():
    assert json.loads(jsonio.dumps(Sector(0.0, math.inf, 0.0, 0.0)))["radius_hi"] is None
    assert json.loads(jsonio.dumps(ParamSegment(2.0, 2.0, 1.0))) == {
        "kind": "param_segment", "b": 2.0, "from": 2.0, "to": 1.0,
    }


@pytest.mark.parametrize(
    "root, obj, message",
    [
        (ScalarSet,
         {"kind": "union", "members": [{"kind": "circle", "radius": 1}, {"kind": "circle"}]},
         "set.members[1].radius: missing field"),
        (ScalarSet, {"kind": "circle", "radius": True}, "set.radius: expected a number"),
        (ScalarSet, {"kind": "circle", "radius": "1.5"}, "set.radius: expected a number"),
        (ScalarSet, {"kind": "circle", "radius": None}, "set.radius: expected a number"),
        (ScalarSet, {"kind": "circle", "radius": 10**400}, "set.radius: number too large"),
        (ScalarSet, {"kind": "circle", "radius": -1.0}, "set: circle radius must be positive"),
        (ScalarSet, {"kind": "geometric", "base": [0.5]}, "set.base: expected an [re, im] pair"),
        (ScalarSet, {"kind": "finite_points", "points": [[1.5e308, 1.5e308]]},
         "set.points[0]: modulus too large"),
        (ScalarSet, {"kind": "log_spiral", "base": 2.0, "rate": {"pi_rational": [1, 2.5]}},
         "set.rate.pi_rational[1]: expected an integer"),
        (ScalarSet, {"kind": "disc"}, "set.kind: unknown kind 'disc'"),
        (OperatorSpec, {"kind": "weighted_forward", "weights": {"breakpoints": [1], "values": []}},
         "set.weights: need exactly"),
    ],
)
def test_decode_errors_name_their_path(root, obj, message):
    with pytest.raises(ValueError) as exc:
        jsonio.decode(root, obj, "set")
    assert str(exc.value).startswith(message)


# ---------------------------------------------------------------------------
# decode fuzzing through the CLI

_KEYS = sorted(
    {"kind", "from", "to", "pi_rational", "irrational", "tag", "breakpoints", "values"}
    | {f.name for root in EXAMPLES for cls in root.kinds.values() for f in cls.fields}
)
_KINDS = sorted({k for root in EXAMPLES for k in root.kinds})

_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_KINDS)
    | st.text(max_size=4)
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=12,
)


def _slots(tree):
    """Every (container, key) in the JSON tree, depth first."""
    if isinstance(tree, dict):
        items = tree.items()
    else:
        items = enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield tree, key
        yield from _slots(value)


@st.composite
def _broken(draw, examples):
    """A valid object with one field, at any depth, dropped or retyped."""
    tree = json.loads(jsonio.dumps(draw(st.sampled_from(examples))))
    owner, key = draw(st.sampled_from(list(_slots(tree))))
    if isinstance(owner, dict) and draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = draw(_trees)
    return tree


def _criterion(operator, right_inverse):
    uni = {"domain": "uni", "entries": [[1, 1.0, 0.0]]}
    return {"command": "criterion", "operator": operator, "right_inverse": right_inverse,
            "decay_vectors": [uni], "target_vectors": [uni], "indices": {"upto": 3}}


_VALID_OP = {"kind": "scalar_multiple", "factor": [2.0, 0.0], "inner": {"kind": "backward_shift"}}
_PLACEMENTS = {
    "set": (EXAMPLES[ScalarSet], lambda t: {"command": "classify", "set": t}),
    "curve": (EXAMPLES[CircleCurve], lambda t: {"command": "winding", "curve": t}),
    "rate": ([IRR, AngleSpec.rational_pi(3, 7)],
             lambda t: {"command": "spiral", "base": 2.0, "rate": t}),
    "operator": (EXAMPLES[OperatorSpec], lambda t: _criterion(t, _VALID_OP)),
    "right_inverse": (EXAMPLES[OperatorSpec], lambda t: _criterion(_VALID_OP, t)),
}


@pytest.mark.parametrize("place", list(_PLACEMENTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_variant_exits_zero_or_one_never_two(place, data):
    examples, make_config = _PLACEMENTS[place]
    cfg = make_config(data.draw(_trees | _broken(examples)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([cfg["command"], "--config", path, "--out", tmp])
    assert code in (0, 1), cfg


# ---------------------------------------------------------------------------
# top-level config fields

_CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
_SHIPPED = sorted(f for f in os.listdir(_CONFIG_DIR) if f.endswith(".json"))
# fields a command may go without; every other field of a shipped config is required
_OPTIONAL = {"targets", "target", "s_range", "step", "tolerance", "phase_grid"}
# plain objects whose own keys are fields too (variants are fuzzed above)
_PLAIN = {"targets", "ball", "indices"}
_JSON_VALUES = ["x", 7, 2.5, True, None, [], {}]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _field_cases():
    """(config name, broken config, field) for every field of every shipped
    config: dropped when required, else replaced by a value of another JSON type."""
    for name in _SHIPPED:
        with open(os.path.join(_CONFIG_DIR, name)) as fh:
            cfg = json.load(fh)
        fields = [((key,), value) for key, value in cfg.items() if key != "command"]
        fields += [((key, sub), v) for key, value in cfg.items() if key in _PLAIN
                   for sub, v in value.items()]
        for keys, value in fields:
            field = ".".join(keys)
            if keys[-1] not in _OPTIONAL:
                broken = json.loads(json.dumps(cfg))
                owner = broken if len(keys) == 1 else broken[keys[0]]
                del owner[keys[-1]]
                yield name, broken, field
            for wrong in _JSON_VALUES:
                if _json_type(wrong) != _json_type(value):
                    broken = json.loads(json.dumps(cfg))
                    owner = broken if len(keys) == 1 else broken[keys[0]]
                    owner[keys[-1]] = wrong
                    yield name, broken, field


def _run_main(cfg, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([cfg.get("command", "classify"), "--config", path, "--out", tmp])
    return code, capsys.readouterr().err


def test_every_shipped_field_is_decoded(capsys):
    """A dropped or mistyped top-level field exits 1 naming the field, never 2."""
    cases = list(_field_cases())
    assert len(cases) > 100
    for name, cfg, field in cases:
        code, err = _run_main(cfg, capsys)
        assert code == 1 and f"precondition violated: {field}" in err, (name, cfg, err)


def test_empty_classify_config_names_set(capsys):
    assert _run_main({}, capsys) == (1, "precondition violated: set: missing field\n")


# ---------------------------------------------------------------------------
# the report encoder against its plain recursive form


def _reference_encode(obj, parts, level):
    """One recursive call per value, with the indent re-derived each time."""
    pad = "  " * level
    inner = pad + "  "
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(jsonio.format_int(obj))
    elif isinstance(obj, float):
        parts.append(jsonio.format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.encoder.encode_basestring_ascii(obj))
    elif isinstance(obj, complex):
        _reference_encode([obj.real, obj.imag], parts, level)
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        _reference_encode(obj._asdict(), parts, level)
    elif hasattr(obj, "to_json"):
        _reference_encode(obj.to_json(), parts, level)
    elif isinstance(obj, jsonio.Record):
        fields = {"kind": obj.kind} if isinstance(obj, jsonio.Family) else {}
        for f in obj.fields:
            if f.omit:
                continue
            value = getattr(obj, f.name)
            fields[f.key] = None if f.null is not None and value == f.null else value
        _reference_encode(fields, parts, level)
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.encoder.encode_basestring_ascii(key)}: ")
            _reference_encode(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(inner)
            _reference_encode(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def _reference_dumps(obj):
    parts = []
    _reference_encode(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


class _Float(float):
    pass


class _Str(str):
    pass


class _Fields(jsonio.Record):
    """A record with one field per Field rule: renamed, null standing for 0, omitted."""

    start: object = jsonio.Field(key="from")
    top: object = jsonio.Field(null=0)
    scratch: object = jsonio.Field(omit=True)


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(lambda e, s: s * 10**e, st.integers(0, 4400), st.sampled_from([1, -1])),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e16 - 2, 1e16 + 2, 9999999999999998.0]),
    st.text(),
    st.builds(_Float, st.floats(allow_nan=False)),
    st.builds(_Str, st.text(max_size=4)),
    st.complex_numbers(),
    st.sampled_from([1j, b"x", frozenset(), SeqVector.basis(2), X2.pow2(-3)]),
    st.sampled_from(_VARIANTS),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Miss, inner, inner),
        st.builds(Ball, inner, inner),
        st.builds(Traces, inner, inner, inner),
        st.builds(_Fields, inner, inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(0, 3)), inner, max_size=4),
    ),
    max_leaves=24,
)


def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_dumps_matches_the_plain_recursive_encoder(obj):
    # the same text, or the same first error: a non-finite float, an int
    # past str()'s digit limit, a non-string key or a value of no JSON type
    assert _outcome(jsonio.dumps, obj) == _outcome(_reference_dumps, obj)


def _plain_format_float(x):
    """The report's float text, as first written: ".1f" for an integral
    value below 1e16 in size, keeping the ".0" that reads back as a float,
    else 17 significant digits."""
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.nextafter(2.0**-1022, 0.0), -1e-310,
    *(x for c in (1e16, -1e16) for x in (c, math.nextafter(c, 0.0), math.nextafter(c, 2 * c))),
    *(float(s * (2**53 + d)) for s in (1, -1) for d in (-1, 0, 1, 2)),
    math.nextafter(2.0**53, 0.0), 0.5, -2.5, 1e308, -1.7976931348623157e308,
]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS)),
    st.sampled_from([float, _Float]),
)
def test_format_float_matches_the_plain_formula(x, kind):
    x = kind(x)
    assert jsonio.format_float(x) == _plain_format_float(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, _Float("nan"), _Float("-inf")])
def test_format_float_refuses_a_non_finite_float(x):
    with pytest.raises(jsonio.PreconditionError) as info:
        jsonio.format_float(x)
    assert str(info.value) == f"non-finite float {x!r} cannot appear in a report"


# ---------------------------------------------------------------------------
# float texts shared within one call of dumps


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_keep_their_texts_in_either_order(first, second):
    obj = [first, second, complex(first, second), Miss((complex(second, first),), first), second]
    assert jsonio.dumps(obj) == _reference_dumps(obj)
    assert jsonio.dumps([first, second]) == f"[\n  {first},\n  {second}\n]\n"


def test_repeated_floats_in_complex_numbers_and_named_tuples():
    x, y = 0.1, 1e16 + 2
    obj = {
        "floats": [x, y, x, -x, y],
        "complex": [complex(x, x), complex(y, -x), complex(x, y)],
        "miss": Miss((complex(x, y), complex(y, y)), x),
        "ball": Ball((complex(-x, x),), y),
        "mixed": [1, True, 1.0, _Float(x), x, 0, 0.0],  # ints and bools equal to floats
    }
    assert jsonio.dumps(obj) == _reference_dumps(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap", [float, lambda v: complex(v, 0.5), lambda v: complex(0.5, v), lambda v: Miss((0.5j,), v)]
)
def test_a_non_finite_float_after_repeated_ones_is_refused(bad, wrap):
    with pytest.raises(jsonio.PreconditionError) as info:
        jsonio.dumps([0.5, 0.5, complex(0.5, 0.5), wrap(bad), 0.5])
    assert str(info.value) == f"non-finite float {bad!r} cannot appear in a report"


# a few floats, drawn again and again, as the ball grid's coordinates are
_FEW_FLOATS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.1, 1.0, 1e16, 1e16 + 2, 5e-324, math.inf])
_REPEATED_TREES = st.recursive(
    st.one_of(
        _FEW_FLOATS,
        st.builds(complex, _FEW_FLOATS, _FEW_FLOATS),
        st.builds(_Float, _FEW_FLOATS),
        st.sampled_from([0, 1, True, False]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.builds(Miss, inner, inner),
        st.builds(Ball, inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_REPEATED_TREES)
def test_dumps_of_repeated_floats_matches_a_writer_formatting_each_afresh(obj):
    # _reference_dumps calls format_float on every float it meets
    assert _outcome(jsonio.dumps, obj) == _outcome(_reference_dumps, obj)


def _assert_rewrites_itself(obj):
    # what dumps writes reads back as plain JSON values that dumps writes
    # to the same text
    text = jsonio.dumps(obj)
    assert jsonio.dumps(json.loads(text)) == text


@pytest.mark.parametrize("variant", _VARIANTS, ids=lambda x: type(x).__name__)
def test_every_variant_rewrites_to_the_same_text(variant):
    _assert_rewrites_itself(variant)


@pytest.mark.parametrize("name", _SHIPPED)
def test_every_shipped_result_rewrites_to_the_same_text(name):
    with open(os.path.join(_CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    handler, _ = cli._HANDLERS[cfg["command"]]
    _assert_rewrites_itself(handler(cfg, cli._Output(None, False)))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_builtin_sha256_matches_hashlib(blob):
    assert jsonio._sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()


def test_hashlib_is_the_sha256_without_a_builtin_module():
    assert jsonio.find_sha256(("no_such_sha_module",)) is hashlib.sha256
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert jsonio.find_sha256() is not hashlib.sha256


@pytest.mark.parametrize("fallback", [False, True], ids=["builtin", "hashlib"])
@pytest.mark.parametrize("name", _SHIPPED)
def test_config_hash_is_the_sha256_of_the_canonical_text(name, fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(jsonio, "_sha256", jsonio.find_sha256(("no_such_sha_module",)))
    with open(os.path.join(_CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    want = hashlib.sha256(jsonio.dumps(cfg).encode("utf-8")).hexdigest()
    assert jsonio.config_hash(cfg) == want
