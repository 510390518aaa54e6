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
input is an Euler characteristic, a multiplicity, or a prime), unknown and
repeated fields are errors, and the parsed model is validated and
normalized (both characteristics on every stratum) before it is returned.

A file may hold thousands of strata, so each component and stratum record
is accepted by one check of its shape: an object with allowed fields and
the required ones, non-empty string ids, exact integers.  A record that
passes is handed on as the plain triple (id, multiplicity, chi_open) or
(components, chi_closed, chi_open): validation reads records by position,
and normalization builds the one Component or Stratum of each.  Only a
record that fails the check is read again field by field, to name the first
fault at its location (``m.json.fibers[0].strata[2].chi_closed``); no
location is built for a record that passes.  A repeated key is named with
the start of the object that holds it.  Every record of every fiber is read
before any fiber is validated, so a malformed record is reported before
invalid data in an earlier fiber.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

from .conductor import ArithmeticModel, FiberModel, validate_model


class ModelParseError(ValueError):
    """Malformed model file (bad JSON, wrong types, or unknown or repeated fields)."""


_PREVIEW_CHARS = 80


def _preview(pairs: list) -> str:
    """The JSON object of ``pairs`` up to its first _PREVIEW_CHARS characters,
    encoded no further than the piece that reaches them."""
    # iterencode yields the text piece by piece; json.dumps would encode all of it
    encode = json.JSONEncoder(ensure_ascii=False).iterencode

    def pieces():
        for i, (key, value) in enumerate(pairs):
            yield f"{', ' if i else '{'}{json.dumps(key, ensure_ascii=False)}: "
            yield from encode(value)
        yield "}"

    text = ""
    for piece in pieces():
        text += piece
        if len(text) > _PREVIEW_CHARS:
            return text[:_PREVIEW_CHARS] + "..."
    return text


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refused when a key repeats (``json``
    alone would keep the last value without a word)."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ModelParseError(f"repeated key {repeated!r} in {_preview(pairs)}")
    return data


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


def _parse_component(raw, where: str) -> tuple:
    data = _require_object(raw, where, {"id", "multiplicity"}, {"chi_open"})
    return (
        _require_str(data["id"], f"{where}.id"),
        _require_int(data["multiplicity"], f"{where}.multiplicity"),
        _optional_int(data, "chi_open", where),
    )


def _parse_stratum(raw, where: str) -> tuple:
    data = _require_object(raw, where, {"components"}, {"chi_closed", "chi_open"})
    ids = _require_list(data["components"], f"{where}.components")
    members = frozenset(_require_str(v, f"{where}.components[{i}]") for i, v in enumerate(ids))
    if len(members) != len(ids):
        raise ModelParseError(f"{where}.components: repeated component id in {ids}")
    return (
        members,
        _optional_int(data, "chi_closed", where),
        _optional_int(data, "chi_open", where),
    )


_COMPONENT_FIELDS = frozenset({"id", "multiplicity", "chi_open"})
_STRATUM_FIELDS = frozenset({"components", "chi_closed", "chi_open"})


def _component(raw) -> tuple | None:
    """The (id, multiplicity, chi_open) a well-formed record declares, else None."""
    if (
        type(raw) is dict
        and raw.keys() <= _COMPONENT_FIELDS
        and type(cid := raw.get("id")) is str
        and cid
        and type(multiplicity := raw.get("multiplicity")) is int
        and type(raw.get("chi_open", 0)) is int
    ):
        return cid, multiplicity, raw.get("chi_open")
    return None


def _stratum(raw) -> tuple | None:
    """The (components, chi_closed, chi_open) a well-formed record declares, else None."""
    if (
        type(raw) is dict
        and raw.keys() <= _STRATUM_FIELDS
        and type(ids := raw.get("components")) is list
        and set(map(type, ids)) == {str}
        and len(members := frozenset(ids)) == len(ids)
        and "" not in members
        and type(raw.get("chi_closed", 0)) is int
        and type(raw.get("chi_open", 0)) is int
    ):
        return members, raw.get("chi_closed"), raw.get("chi_open")
    return None


def _parse_records(raws, where: str, quick, careful) -> tuple:
    """Each record of the list ``raws``: ``quick`` accepts a well-formed one, and
    ``careful`` reads any other field by field and names its first fault,
    under its location in ``where``."""
    return tuple(
        quick(raw) or careful(raw, f"{where}[{i}]")
        for i, raw in enumerate(_require_list(raws, where))
    )


def _parse_fiber(raw, where: str) -> FiberModel:
    data = _require_object(raw, where, {"prime", "components", "strata"})
    components = _parse_records(
        data["components"], f"{where}.components", _component, _parse_component
    )
    strata = _parse_records(data["strata"], f"{where}.strata", _stratum, _parse_stratum)
    return FiberModel(
        prime=_require_int(data["prime"], f"{where}.prime"),
        components=components,
        strata=strata,
    )


def parse_model(text: str, source: str = "<model>") -> ArithmeticModel:
    """Parse a model document and return it validated and normalized.

    Raises ModelParseError (with line/column for JSON syntax problems, and
    for repeated keys, integer literals too long to convert or nesting too
    deep to decode) or ModelValidationError for structurally invalid data.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # a repeated key, or an integer past the int-to-str digit limit
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
    """The model in the file at ``path``, read by :func:`parse_model` with the
    cyclic garbage collector paused: reading makes a few objects per record and
    no cycles, so a collection during it would only walk them."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelParseError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    collecting = gc.isenabled()
    gc.disable()
    try:
        return parse_model(text, source=str(path))
    finally:
        if collecting:
            gc.enable()
