"""JSON schemas for instances, distributions, and solver results.

Rationals travel as strings ("7/2") or bare integers; floats are rejected to
keep every value exact.  Parse errors name the offending JSON path, which is
formatted only when there is an error.  A bare integer becomes a
``Fraction`` at once and is not coerced again; the instance's integer view
is built from these fields on first use (:func:`goalpost.model.integer_grid`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Union

from .errors import InstanceParseError
from .learning import GroupMixture, PositionDistribution
from .model import Agent, CapacityModel, Instance, rational


def _parse_rational(value: Any, path: str, *where: Any) -> Fraction:
    """``value`` as an exact rational.  An error names the JSON path
    ``path.format(*where)``."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, (bool, float)):
        try:
            return rational(value)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InstanceParseError(
        f"{path.format(*where)}: expected an integer or \"num/den\" string, "
        f"got {value!r}"
    )


def _expect_object(value: Any, path: str, *where: Any) -> dict:
    if not isinstance(value, dict):
        raise InstanceParseError(f"{path.format(*where)}: expected an object")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InstanceParseError(f"{path}: expected an array")
    return value


def parse_instance(payload: Any) -> Instance:
    """Instance from the documented JSON object; see README for the schema."""
    obj = _expect_object(payload, "$")
    raw_agents = _expect_list(obj.get("agents", []), "agents")
    agents = []
    for idx, entry in enumerate(raw_agents):
        record = _expect_object(entry, "agents[{}]", idx)
        position = _parse_rational(record.get("position"), "agents[{}].position", idx)
        capacity = _parse_rational(record.get("capacity"), "agents[{}].capacity", idx)
        group = record.get("group", 0)
        if not isinstance(group, int) or isinstance(group, bool):
            raise InstanceParseError(f"agents[{idx}].group: expected an integer")
        agents.append(Agent(position, capacity, group))
    default_groups = max((a.group for a in agents), default=0) + 1
    num_groups = obj.get("num_groups", default_groups)
    if not isinstance(num_groups, int) or isinstance(num_groups, bool):
        raise InstanceParseError("num_groups: expected an integer")
    model_name = obj.get("capacity_model", "individualized")
    try:
        model = CapacityModel(model_name)
    except ValueError:
        raise InstanceParseError(
            f"capacity_model: expected \"common\" or \"individualized\", "
            f"got {model_name!r}"
        ) from None
    return Instance(tuple(agents), num_groups, model)


def load_instance(path: str) -> Instance:
    return parse_instance(_load_json(path))


def parse_distribution(
    payload: Any,
) -> Union[PositionDistribution, GroupMixture]:
    """Distribution (or mixture of them) from the documented JSON object."""
    obj = _expect_object(payload, "$")
    if "components" in obj:
        raw = _expect_list(obj["components"], "components")
        components = []
        for idx, entry in enumerate(raw):
            record = _expect_object(entry, "components[{}]", idx)
            weight = _parse_rational(record.get("weight"), "components[{}].weight", idx)
            dist = _parse_single_distribution(
                record.get("dist"), f"components[{idx}].dist"
            )
            components.append((weight, dist))
        return GroupMixture(tuple(components))
    return _parse_single_distribution(obj, "$")


def _parse_single_distribution(payload: Any, path: str) -> PositionDistribution:
    obj = _expect_object(payload, "{}", path)
    capacity = _parse_rational(obj.get("capacity"), "{}.capacity", path)
    raw = _expect_list(obj.get("support", []), f"{path}.support")
    support = []
    for idx, entry in enumerate(raw):
        record = _expect_object(entry, "{}.support[{}]", path, idx)
        position = _parse_rational(
            record.get("position"), "{}.support[{}].position", path, idx
        )
        probability = _parse_rational(
            record.get("probability"), "{}.support[{}].probability", path, idx
        )
        support.append((position, probability))
    return PositionDistribution(tuple(support), capacity)


def load_distribution(path: str) -> Union[PositionDistribution, GroupMixture]:
    return parse_distribution(_load_json(path))


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: invalid JSON, bytes that are not UTF-8, or an integer
        # literal past Python's digit limit; RecursionError: deep nesting.
        raise InstanceParseError(f"{path}: invalid JSON ({exc})") from None
