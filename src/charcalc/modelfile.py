"""Strict JSON reader for reduction-data model files.

The file is a single JSON object:

    {
      "relative_dimension": 1,
      "generic_euler": 0,
      "fibers": [
        {
          "prime": 5,
          "components": [{"id": "C1", "multiplicity": 1}, ...],
          "strata": [{"components": ["C1"], "chi_closed": 2}, ...]
        }
      ]
    }

All numbers are exact integers (floats and booleans are rejected — every
input is an Euler characteristic, a multiplicity, or a prime), unknown
fields are errors, and the parsed model is validated and normalized (both
characteristics on every stratum) before it is returned.
"""

from __future__ import annotations

import json
from pathlib import Path

from .conductor import (
    ArithmeticModel,
    Component,
    FiberModel,
    Stratum,
    validate_model,
)


class ModelParseError(ValueError):
    """Malformed model file (bad JSON, wrong types, or unknown fields)."""


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelParseError(f"{where}: expected an exact integer, got {value!r}")
    return value


def _optional_int(data: dict, key: str, where: str) -> int | None:
    return _require_int(data[key], f"{where}.{key}") if key in data else None


def _require_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ModelParseError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _require_object(value, where: str, required: set, optional: set = frozenset()) -> dict:
    if not isinstance(value, dict):
        raise ModelParseError(f"{where}: expected an object, got {type(value).__name__}")
    unknown = set(value) - required - set(optional)
    if unknown:
        raise ModelParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(value)
    if missing:
        raise ModelParseError(f"{where}: missing fields {sorted(missing)}")
    return value


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ModelParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _parse_component(raw, where: str) -> Component:
    data = _require_object(raw, where, {"id", "multiplicity"}, {"chi_open"})
    return Component(
        id=_require_str(data["id"], f"{where}.id"),
        multiplicity=_require_int(data["multiplicity"], f"{where}.multiplicity"),
        chi_open=_optional_int(data, "chi_open", where),
    )


def _parse_stratum(raw, where: str) -> Stratum:
    data = _require_object(raw, where, {"components"}, {"chi_closed", "chi_open"})
    ids = _require_list(data["components"], f"{where}.components")
    members = frozenset(_require_str(v, f"{where}.components[{i}]") for i, v in enumerate(ids))
    if len(members) != len(ids):
        raise ModelParseError(f"{where}.components: repeated component id in {ids}")
    chi = {key: _optional_int(data, key, where) for key in ("chi_closed", "chi_open")}
    return Stratum(components=members, **chi)


def _parse_fiber(raw, where: str) -> FiberModel:
    data = _require_object(raw, where, {"prime", "components", "strata"})
    components = tuple(
        _parse_component(c, f"{where}.components[{i}]")
        for i, c in enumerate(_require_list(data["components"], f"{where}.components"))
    )
    strata = tuple(
        _parse_stratum(s, f"{where}.strata[{i}]")
        for i, s in enumerate(_require_list(data["strata"], f"{where}.strata"))
    )
    return FiberModel(
        prime=_require_int(data["prime"], f"{where}.prime"),
        components=components,
        strata=strata,
    )


def parse_model(text: str, source: str = "<model>") -> ArithmeticModel:
    """Parse a model document and return it validated and normalized.

    Raises ModelParseError (with line/column for JSON syntax problems, and
    for integer literals too long to convert or nesting too deep to decode)
    or ModelValidationError for structurally invalid data.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ModelParseError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelParseError(f"{source}: invalid JSON: nested too deeply") from exc
    data = _require_object(raw, source, {"relative_dimension", "fibers"}, {"generic_euler"})
    generic_euler = _optional_int(data, "generic_euler", source)
    fibers = tuple(
        _parse_fiber(f, f"{source}.fibers[{i}]")
        for i, f in enumerate(_require_list(data["fibers"], f"{source}.fibers"))
    )
    model = ArithmeticModel(
        relative_dimension=_require_int(
            data["relative_dimension"], f"{source}.relative_dimension"
        ),
        fibers=fibers,
        generic_euler=generic_euler,
    )
    return validate_model(model)


def load_model(path) -> ArithmeticModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelParseError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_model(text, source=str(path))
