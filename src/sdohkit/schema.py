"""Declarative event schema: event types, argument requirements, subtype vocabularies.

Every other module consults a loaded ``Schema`` for which event types exist,
which arguments they take, whether an argument is required, and which subtype
labels are legal. Schemas are plain data loaded from a JSON file so that the
label inventory can be swapped without code changes; the bundled default file
covers the ten social-history event types, two of which (``ProvisionalEventA``,
``ProvisionalEventB``) are placeholders rather than settled guideline content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .corpus import Event


class SchemaError(ValueError):
    """Malformed or invalid schema file."""


def _check_identifier(name: str, what: str) -> None:
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{what} name must be a non-empty string, got {name!r}")
    if not name.isascii() or any(c.isspace() for c in name):
        raise SchemaError(f"{what} name {name!r} must be ASCII without whitespace")


@dataclass(frozen=True)
class ArgumentDef:
    """One argument slot of an event type and its closed subtype vocabulary."""

    name: str
    required: bool
    subtypes: tuple[str, ...]

    def __post_init__(self):
        _check_identifier(self.name, "argument")
        if not self.subtypes:
            raise SchemaError(f"argument {self.name!r} has an empty subtype list")
        seen = set()
        for s in self.subtypes:
            if not isinstance(s, str) or not s:
                raise SchemaError(f"argument {self.name!r} has an empty subtype label")
            if s in seen:
                raise SchemaError(f"argument {self.name!r} has duplicate subtype {s!r}")
            seen.add(s)


@dataclass(frozen=True)
class EventTypeDef:
    """An event type: its name, argument slots, and reporting group."""

    name: str
    arguments: tuple[ArgumentDef, ...]
    report_group: str = ""

    def __post_init__(self):
        _check_identifier(self.name, "event type")
        if not self.report_group:
            # every event type always has a reporting row
            object.__setattr__(self, "report_group", self.name)
        names = [a.name for a in self.arguments]
        for n in names:
            if names.count(n) > 1:
                raise SchemaError(f"event type {self.name!r} has duplicate argument {n!r}")

    def argument(self, name: str) -> ArgumentDef | None:
        for a in self.arguments:
            if a.name == name:
                return a
        return None

    @property
    def required_arguments(self) -> tuple[ArgumentDef, ...]:
        return tuple(a for a in self.arguments if a.required)

    @property
    def optional_arguments(self) -> tuple[ArgumentDef, ...]:
        return tuple(a for a in self.arguments if not a.required)


@dataclass(frozen=True)
class Schema:
    """Immutable registry of event types; safe to share across threads."""

    version: str
    event_types: tuple[EventTypeDef, ...]
    _by_name: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        by_name = {}
        for et in self.event_types:
            if et.name in by_name:
                raise SchemaError(f"duplicate event type {et.name!r}")
            by_name[et.name] = et
        object.__setattr__(self, "_by_name", by_name)

    def event_type(self, name: str) -> EventTypeDef | None:
        return self._by_name.get(name)

    @property
    def event_type_names(self) -> list[str]:
        return [et.name for et in self.event_types]


def load_schema(source: str) -> Schema:
    """Parse and validate a schema from JSON text.

    Raises SchemaError naming the offending entity on duplicate names,
    empty subtype lists, or structural problems.
    """
    try:
        raw = json.loads(source)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("schema file must contain a JSON object at top level")
    version = raw.get("version")
    if not isinstance(version, str):
        raise SchemaError("schema 'version' must be a string")
    raw_types = raw.get("event_types")
    if not isinstance(raw_types, list):
        raise SchemaError("schema 'event_types' must be a list")

    event_types = []
    for obj in raw_types:
        if not isinstance(obj, dict):
            raise SchemaError("each event type must be a JSON object")
        name = obj.get("name")
        if not isinstance(name, str):
            raise SchemaError("event type missing string 'name'")
        args = []
        for a in obj.get("arguments", []):
            if not isinstance(a, dict):
                raise SchemaError(f"event type {name!r}: arguments must be objects")
            if not isinstance(a.get("name"), str):
                raise SchemaError(f"event type {name!r}: argument missing string 'name'")
            if not isinstance(a.get("required"), bool):
                raise SchemaError(
                    f"event type {name!r}, argument {a.get('name')!r}: 'required' must be a bool"
                )
            subtypes = a.get("subtypes")
            if not isinstance(subtypes, list):
                raise SchemaError(
                    f"event type {name!r}, argument {a['name']!r}: 'subtypes' must be a list"
                )
            args.append(ArgumentDef(a["name"], a["required"], tuple(subtypes)))
        group = obj.get("report_group", "")
        if group and not isinstance(group, str):
            raise SchemaError(f"event type {name!r}: 'report_group' must be a string")
        event_types.append(EventTypeDef(name, tuple(args), group or ""))
    return Schema(version, tuple(event_types))


def load_schema_file(path) -> Schema:
    with open(path, encoding="utf-8") as f:
        return load_schema(f.read())


def write_schema(schema: Schema) -> str:
    """Emit a schema as byte-stable JSON: declaration-order keys, 2-space indent,
    trailing newline. ``load_schema(write_schema(s)) == s`` for any valid schema."""
    obj = {
        "version": schema.version,
        "event_types": [
            {
                "name": et.name,
                "report_group": et.report_group,
                "arguments": [
                    {"name": a.name, "required": a.required, "subtypes": list(a.subtypes)}
                    for a in et.arguments
                ],
            }
            for et in schema.event_types
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def default_schema() -> Schema:
    """The bundled default schema (ten event types)."""
    text = resources.files("sdohkit.data").joinpath("default_schema.json").read_text("utf-8")
    return load_schema(text)


def validate_event(schema: Schema, event: "Event") -> list[str]:
    """Check one event against the schema; returns a list of violations.

    Total over arbitrary events: never raises, an empty list means the event
    conforms. Reported violations: unknown event type, unknown argument name,
    subtype outside the argument's vocabulary, missing required argument.
    """
    violations: list[str] = []
    et = schema.event_type(getattr(event, "event_type", None))
    if et is None:
        violations.append(f"unknown event type {getattr(event, 'event_type', None)!r}")
        return violations
    arguments = getattr(event, "arguments", None)
    if not isinstance(arguments, dict):
        violations.append(f"event {et.name!r} arguments must be a mapping")
        return violations
    for arg_name, subtype in arguments.items():
        adef = et.argument(arg_name)
        if adef is None:
            violations.append(f"unknown argument {arg_name!r} for event type {et.name!r}")
            continue
        if subtype not in adef.subtypes:
            violations.append(
                f"unknown subtype {subtype!r} for argument {et.name}.{arg_name}"
            )
    for adef in et.required_arguments:
        if adef.name not in arguments:
            violations.append(f"missing required argument {adef.name}")
    return violations
