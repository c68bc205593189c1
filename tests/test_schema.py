import json
import re
import time

import pytest

from sdohkit.corpus import Event, TextSpan
from sdohkit.schema import (
    ArgumentDef,
    EventTypeDef,
    SchemaError,
    default_schema,
    load_schema,
    validate_event,
    write_schema,
)

MINIMAL = """
{
  "version": "t1",
  "event_types": [
    {"name": "LivingArrangement",
     "arguments": [{"name": "Status", "required": true, "subtypes": ["past", "current"]}]}
  ]
}
"""


def test_load_minimal():
    s = load_schema(MINIMAL)
    assert [et.name for et in s.event_types] == ["LivingArrangement"]
    et = s.event_type("LivingArrangement")
    assert et.argument("Status").required
    assert et.argument("Status").subtypes == ("past", "current")
    assert et.report_group == "LivingArrangement"


def test_duplicate_event_type_named_in_error():
    doubled = MINIMAL.replace(
        '"event_types": [',
        '"event_types": [{"name": "Employment", "arguments": []},'
        '{"name": "Employment", "arguments": []},',
    )
    with pytest.raises(SchemaError, match="Employment"):
        load_schema(doubled)


def test_empty_subtypes_rejected():
    with pytest.raises(SchemaError, match="Status"):
        load_schema(MINIMAL.replace('["past", "current"]', "[]"))


def test_duplicate_subtype_rejected():
    with pytest.raises(SchemaError, match="Status"):
        load_schema(MINIMAL.replace('["past", "current"]', '["past", "past"]'))


def test_bad_json_is_parse_error():
    with pytest.raises(SchemaError, match="JSON"):
        load_schema("{not json")
    with pytest.raises(SchemaError, match="JSON"):  # nested too deeply for the parser
        load_schema("[" * 100_000)


def test_identifiers_reject_whitespace():
    with pytest.raises(SchemaError):
        load_schema(MINIMAL.replace("LivingArrangement", "Living Arrangement"))


def test_argument_names_reject_a_dot():
    with pytest.raises(SchemaError, match="argument name 'Sta.tus' must not contain '.'"):
        load_schema(MINIMAL.replace('"Status"', '"Sta.tus"'))
    load_schema(MINIMAL.replace("LivingArrangement", "Living.Arrangement"))  # types may


def _two_types(first: str, first_arg: str, second: str, second_arg: str) -> str:
    def entry(name, arg):
        return f'{{"name": "{name}", "arguments": [{{"name": "{arg}", "required": true, "subtypes": ["x"]}}]}}'
    return f'{{"version": "t", "event_types": [{entry(first, first_arg)}, {entry(second, second_arg)}]}}'


@pytest.mark.parametrize("order", [0, 1])
def test_event_type_may_not_share_the_key_of_an_argument(order):
    # guide key "Food.Status": the event type, and argument Status of Food
    types = [("Food", "Status"), ("Food.Status", "Kind")][:: 1 if order == 0 else -1]
    with pytest.raises(SchemaError, match="'Food.Status' and argument 'Status' of event type 'Food'"):
        load_schema(_two_types(*types[0], *types[1]))
    # a dotted type whose suffix names no argument of its prefix type is fine
    ok = load_schema(_two_types("Food", "Status", "Food.Insecurity", "Status"))
    assert [et.name for et in ok.event_types] == ["Food", "Food.Insecurity"]


def test_argument_keys_from_two_readings_cannot_be_loaded():
    # (A.B, C) and (A, B.C) would both report as "A.B.C"
    with pytest.raises(SchemaError, match="argument name 'B.C' must not contain '.'"):
        load_schema(_two_types("A.B", "C", "A", "B.C"))


def test_duplicate_argument_error_names_the_first_declared_repeat():
    args = tuple(ArgumentDef(n, True, ("x",)) for n in ("A", "B", "B", "A"))
    with pytest.raises(SchemaError, match="^event type 'T' has duplicate argument 'A'$"):
        EventTypeDef("T", args)


def test_load_schema_is_linear_in_the_argument_count():
    # 20,000 arguments of one type and 8,000 dotted type names whose owner is
    # that type; a linear argument lookup per check took 8-12 s here.
    args = [{"name": f"a{i}", "required": False, "subtypes": ["x"]} for i in range(20_000)]
    types = [{"name": "T", "arguments": args}]
    types += [{"name": f"T.b{i}"} for i in range(8_000)]
    text = json.dumps({"version": "big", "event_types": types})
    start = time.perf_counter()
    schema = load_schema(text)
    elapsed = time.perf_counter() - start
    assert schema.event_type("T").argument("a19999").name == "a19999"
    assert schema.event_type("T").argument("b0") is None
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_write_schema_round_trip_and_stability():
    s = load_schema(MINIMAL)
    text = write_schema(s)
    assert text.endswith("\n")
    assert load_schema(text) == s
    assert write_schema(load_schema(text)) == text


def test_default_schema_contents():
    s = default_schema()
    assert len(s.event_types) == 10
    for name in ("Alcohol", "Drug", "Tobacco"):
        assert s.event_type(name).report_group == "SubstanceUse"
    la = s.event_type("LivingArrangement")
    assert la.argument("Type").required
    residence = la.argument("Residence")
    assert not residence.required
    assert "home" in residence.subtypes
    status = s.event_type("Alcohol").argument("Status")
    assert {"past", "current"} <= set(status.subtypes)


def test_default_schema_round_trip():
    s = default_schema()
    assert load_schema(write_schema(s)) == s


def test_write_schema_round_trip_random_schemas():
    import random

    from sdohkit.schema import EventTypeDef, Schema

    rng = random.Random(11)
    pool = ["alpha", "beta", "gamma", "delta", "high", "low"]
    for trial in range(25):
        types = []
        for t in range(rng.randint(1, 5)):
            args = tuple(
                ArgumentDef(
                    f"Arg{a}", rng.random() < 0.5, tuple(rng.sample(pool, rng.randint(1, 4)))
                )
                for a in range(rng.randint(0, 3))
            )
            group = rng.choice(["", "GroupX", f"Type{t}"])
            types.append(EventTypeDef(f"Type{t}", args, group))
        s = Schema(f"v{trial}", tuple(types))
        assert load_schema(write_schema(s)) == s
        assert write_schema(load_schema(write_schema(s))) == write_schema(s)


def test_argument_def_invariants():
    with pytest.raises(SchemaError):
        ArgumentDef("Status", True, ())
    with pytest.raises(SchemaError):
        ArgumentDef("Status", True, ("a", "a"))
    with pytest.raises(SchemaError):
        ArgumentDef("Status", True, ("a", ""))


def test_validate_event_ok(schema):
    ev = Event(
        "LivingArrangement",
        TextSpan(0, 5, "lives"),
        {"Type": "family", "Status": "current"},
    )
    assert validate_event(schema, ev) == []


def test_validate_event_missing_required(schema):
    ev = Event("LivingArrangement", TextSpan(0, 5, "lives"), {"Status": "current"})
    violations = validate_event(schema, ev)
    assert any("missing required argument Type" in v for v in violations)


def test_validate_event_unknown_subtype(mini_schema):
    ev = Event("LivingArrangement", TextSpan(0, 5, "lives"), {"Status": "frequently"})
    violations = validate_event(mini_schema, ev)
    assert any("unknown subtype" in v for v in violations)


def test_validate_event_unknown_type_and_argument(schema):
    assert validate_event(schema, Event("Zzz", TextSpan(0, 1, "x"), {}))
    ev = Event("Alcohol", TextSpan(0, 1, "x"), {"Status": "current", "Qty": "lots"})
    assert any("unknown argument" in v for v in validate_event(schema, ev))


def test_validate_event_total_on_garbage(schema):
    class Junk:
        event_type = "Alcohol"
        arguments = "not-a-dict"

    assert validate_event(schema, Junk())  # reports a violation, never raises
    assert validate_event(schema, Event(None, None, {}))


@pytest.mark.parametrize("value", ["5", "null", "true", '"Status"'])
def test_arguments_that_are_not_a_list_name_the_event_type(value):
    text = MINIMAL.replace(
        '[{"name": "Status", "required": true, "subtypes": ["past", "current"]}]', value
    )
    with pytest.raises(SchemaError, match="LivingArrangement"):
        load_schema(text)


def _one_type(event_type) -> str:
    return json.dumps({"version": "v", "event_types": [event_type]})


def _one_argument(argument) -> str:
    return _one_type({"name": "Food", "arguments": [argument]})


@pytest.mark.parametrize("text, message", [
    ("[]", "schema file must contain a JSON object at top level"),
    ('{"event_types": []}', "schema 'version' must be a string"),
    ('{"version": "v", "event_types": {}}', "schema 'event_types' must be a list"),
    (_one_type("Food"), "each event type must be a JSON object"),
    (_one_type({"name": 3}), "event type missing string 'name'"),
    (_one_type({"name": "Food", "arguments": {}}), "event type 'Food': 'arguments' must be a list"),
    (_one_argument("Status"), "event type 'Food': arguments must be objects"),
    (_one_argument({"required": True, "subtypes": ["a"]}),
     "event type 'Food': argument missing string 'name'"),
    (_one_argument({"name": "Status", "required": 1, "subtypes": ["a"]}),
     "event type 'Food', argument 'Status': 'required' must be a bool"),
    (_one_argument({"name": "Status", "required": True, "subtypes": "a"}),
     "event type 'Food', argument 'Status': 'subtypes' must be a list"),
    (_one_type({"name": "Food", "report_group": 7}),
     "event type 'Food': 'report_group' must be a string"),
])
def test_load_schema_structural_messages(text, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_schema(text)


@pytest.mark.parametrize(
    "required, subtypes, message",
    [
        (False, ("None", "shelter"), "reads as the answer 'none'"),
        (True, ("shelter", "Shelter"), "duplicate subtype 'Shelter'"),
        (False, ("SHELTER", "shelter"), "duplicate subtype 'shelter'"),
        (True, ("None", "shelter"), None),  # a required argument has no "none" answer
    ],
)
def test_subtypes_must_be_distinct_answers(required, subtypes, message):
    if message is None:
        assert ArgumentDef("Kind", required, subtypes).subtypes == subtypes
    else:
        with pytest.raises(SchemaError, match=message):
            ArgumentDef("Kind", required, subtypes)


@pytest.mark.parametrize("build, message", [
    (lambda: EventTypeDef(3, ()), "event type name must be a non-empty string, got 3"),
    (lambda: ArgumentDef(None, True, ("x",)), "argument name must be a non-empty string, got None"),
    (lambda: load_schema('{"version": "v", "event_types": [{"name": ""}]}'),
     "event type name must be a non-empty string, got ''"),
])
def test_names_must_be_non_empty_strings(build, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        build()
