"""Property schema: what can be annotated, on which graph elements, and how.

A schema is a collection of property specifications grouped by the kind of
graph element they attach to.  Properties may be conditionally revealed
("gated") on a binary parent property answered by the same annotator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

# element kinds a property can attach to
PREDICATE_NODE = "predicate-node"
ARGUMENT_NODE = "argument-node"
PRED_ARG_EDGE = "predicate-argument-edge"
DOCUMENT_EDGE = "document-edge"

ATTACH_POINTS = (PREDICATE_NODE, ARGUMENT_NODE, PRED_ARG_EDGE, DOCUMENT_EDGE)

# classification group implied by each attach point
GROUP_FOR_ATTACH = {
    PREDICATE_NODE: "event",
    ARGUMENT_NODE: "entity",
    PRED_ARG_EDGE: "role",
    DOCUMENT_EDGE: "rel",
}
# the classification groups, each with its own type count
GROUPS = tuple(GROUP_FOR_ATTACH.values())

BINARY = "binary"
CATEGORICAL = "categorical"
ORDINAL = "ordinal"
TEMPORAL = "temporal-tuple"

DURATION_LEVELS = 12

# argument supersenses treated as event-referring
EVENTIVE_SUPERSENSES = frozenset({"event", "state", "process"})


class SchemaError(ValueError):
    """Raised when a schema or a reference into it is inconsistent."""


@dataclass(frozen=True)
class PropertySpec:
    name: str
    subspace: str
    attaches_to: str
    response: str
    n_categories: int = 0      # categorical only
    n_levels: int = 0          # ordinal only
    gate: Optional[tuple[str, bool]] = None  # (parent property, revealing value)

    def __post_init__(self):
        if self.attaches_to not in ATTACH_POINTS:
            raise SchemaError(f"unknown attach point {self.attaches_to!r}")
        if self.response not in (BINARY, CATEGORICAL, ORDINAL, TEMPORAL):
            raise SchemaError(f"unknown response type {self.response!r}")
        if self.response == CATEGORICAL and self.n_categories < 2:
            raise SchemaError(f"{self.name}: categorical needs >= 2 categories")
        if self.response == ORDINAL and self.n_levels < 2:
            raise SchemaError(f"{self.name}: ordinal needs >= 2 levels")

    @property
    def group(self) -> str:
        return GROUP_FOR_ATTACH[self.attaches_to]

    @property
    def gated(self) -> bool:
        return self.gate is not None

    def to_obj(self) -> dict:
        obj = {
            "name": self.name,
            "subspace": self.subspace,
            "attaches_to": self.attaches_to,
            "response": self.response,
        }
        if self.response == CATEGORICAL:
            obj["n_categories"] = self.n_categories
        if self.response == ORDINAL:
            obj["n_levels"] = self.n_levels
        if self.gate is not None:
            obj["gate"] = [self.gate[0], self.gate[1]]
        return obj

    @staticmethod
    def from_obj(obj: dict, entry: str) -> "PropertySpec":
        """A property from its entry in a schema file, laid out as to_obj
        writes it; raise SchemaError naming entry and a field that is
        missing or not of its JSON type."""
        if not isinstance(obj, dict):
            raise SchemaError(f"{entry} is not an object")
        if type(obj.get("name")) is str:
            entry = f"{entry} ({obj['name']})"

        def need(key, what):
            return SchemaError(f"{entry}: {key} {obj[key]!r} is not {what}")

        for key in ("name", "subspace", "attaches_to", "response"):
            if key not in obj:
                raise SchemaError(f"{entry} lacks {key}")
            if type(obj[key]) is not str:
                raise need(key, "a string")
        for key in ("n_categories", "n_levels"):
            if type(obj.get(key, 0)) is not int:
                raise need(key, "an integer")
        gate = obj.get("gate")
        if gate is not None and not (
                isinstance(gate, list) and len(gate) == 2
                and type(gate[0]) is str and type(gate[1]) is bool):
            raise need("gate", "a [parent property, boolean] pair")
        return PropertySpec(
            name=obj["name"],
            subspace=obj["subspace"],
            attaches_to=obj["attaches_to"],
            response=obj["response"],
            n_categories=obj.get("n_categories", 0),
            n_levels=obj.get("n_levels", 0),
            gate=tuple(gate) if gate is not None else None,
        )


@dataclass(frozen=True)
class Schema:
    properties: tuple[PropertySpec, ...]
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        by_name = {}
        for p in self.properties:
            if p.name in by_name:
                raise SchemaError(f"duplicate property name {p.name!r}")
            by_name[p.name] = p
        for p in self.properties:
            if p.gate is None:
                continue
            parent = by_name.get(p.gate[0])
            if parent is None:
                raise SchemaError(f"{p.name}: unknown gate parent {p.gate[0]!r}")
            if parent.attaches_to != p.attaches_to:
                raise SchemaError(
                    f"{p.name}: gate parent {parent.name} attaches to a "
                    f"different element kind")
            if parent.response != BINARY:
                raise SchemaError(f"{p.name}: gate parent must be binary")
        object.__setattr__(self, "_by_name", by_name)

    def __iter__(self):
        return iter(self.properties)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> PropertySpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown property {name!r}") from None

    def group(self, group: str) -> list[PropertySpec]:
        """Properties of one classification group: event, entity, role, rel."""
        return [p for p in self.properties if p.group == group]

    def for_attach(self, attaches_to: str) -> list[PropertySpec]:
        return [p for p in self.properties if p.attaches_to == attaches_to]

    def to_obj(self) -> list:
        return [p.to_obj() for p in self.properties]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_obj(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def from_obj(objs: list) -> "Schema":
        if not isinstance(objs, list):
            raise SchemaError("schema is not a list of property entries")
        return Schema(tuple(PropertySpec.from_obj(o, f"schema entry {i}")
                            for i, o in enumerate(objs)))

    @staticmethod
    def load(path) -> "Schema":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"not valid JSON: {exc}") from None
        return Schema.from_obj(obj)


def default_schema() -> Schema:
    """Event-structure schema: subevent, endpoint, entity genericity,
    role, and event-event relation properties, with the 12-level
    duration scale on duration questions."""
    return Schema((
        # event properties (predicate nodes)
        PropertySpec("natural_parts", "subevent", PREDICATE_NODE, BINARY),
        PropertySpec("telic", "subevent", PREDICATE_NODE, BINARY),
        PropertySpec("part_similarity", "subevent", PREDICATE_NODE, BINARY,
                     gate=("natural_parts", True)),
        PropertySpec("part_duration", "subevent", PREDICATE_NODE, ORDINAL,
                     n_levels=DURATION_LEVELS, gate=("natural_parts", True)),
        PropertySpec("dynamic", "subevent", PREDICATE_NODE, BINARY,
                     gate=("natural_parts", False)),
        PropertySpec("situation_duration", "subevent", PREDICATE_NODE, ORDINAL,
                     n_levels=DURATION_LEVELS, gate=("natural_parts", False)),
        # entity properties (argument nodes)
        PropertySpec("particular", "genericity", ARGUMENT_NODE, BINARY),
        PropertySpec("kind", "genericity", ARGUMENT_NODE, BINARY),
        PropertySpec("abstract", "genericity", ARGUMENT_NODE, BINARY),
        # role properties (predicate-argument edges)
        PropertySpec("distributive", "event-entity", PRED_ARG_EDGE, BINARY),
        PropertySpec("instigation", "protoroles", PRED_ARG_EDGE, BINARY),
        PropertySpec("change_of_state", "protoroles", PRED_ARG_EDGE, BINARY),
        # relation properties (document edges)
        PropertySpec("contains_forward", "event-event", DOCUMENT_EDGE, BINARY),
        PropertySpec("contains_backward", "event-event", DOCUMENT_EDGE, BINARY),
        PropertySpec("temporal_relation", "time", DOCUMENT_EDGE, TEMPORAL),
    ))
