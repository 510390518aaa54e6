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
is read by one loop that checks one rule at a time and stops at the first
that fails.  The rules come in a fixed order: the record is an object, has
no unknown fields and has its required ones; then each field in turn has
its type (a non-empty string id, a list of distinct non-empty string ids,
exact integers).  Each field is read once, and the value its type check
passes is the one handed on.  An absent field reads as None and fails its
type check; only then is its key looked for.  An absent optional field
passes as None, an explicit null does not, and a missing required field is
named as missing rather than as mistyped.  Only a record that fails builds
the location its refusal names (``m.json.fibers[0].strata[2].chi_closed``).
A record that passes is handed on as the plain triple (id, multiplicity,
chi_open) or (components, chi_closed, chi_open): validation reads records by
position and returns the one Component or Stratum of each.  A
repeated key is named with the start of the object that holds it.  Every
record of every fiber is read before any fiber is validated, so a malformed
record is reported before invalid data in an earlier fiber.
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


def _shape_fault(raw, fields: frozenset, required: frozenset) -> str | None:
    """What keeps ``raw`` from being an object with the allowed ``fields`` and
    the ``required`` ones, as the text that follows its location, else None."""
    if type(raw) is not dict:
        return f": expected an object, got {type(raw).__name__}"
    if unknown := raw.keys() - fields:
        return f": unknown fields {sorted(unknown)}"
    if missing := required - raw.keys():
        return f": missing fields {sorted(missing)}"
    return None


def _int_fault(field: str, value) -> str | None:
    if type(value) is not int:
        return f".{field}: expected an exact integer, got {value!r}"
    return None


def _list_fault(field: str, value) -> str | None:
    if type(value) is not list:
        return f".{field}: expected a list, got {type(value).__name__}"
    return None


def _str_fault(field: str, value) -> str | None:
    if type(value) is not str or not value:
        return f".{field}: expected a non-empty string, got {value!r}"
    return None


_MODEL_FIELDS = frozenset({"relative_dimension", "fibers", "generic_euler"})
_MODEL_REQUIRED = frozenset({"relative_dimension", "fibers"})
_FIBER_FIELDS = frozenset({"prime", "components", "strata"})
_COMPONENT_FIELDS = frozenset({"id", "multiplicity", "chi_open"})
_COMPONENT_REQUIRED = frozenset({"id", "multiplicity"})
_STRATUM_FIELDS = frozenset({"components", "chi_closed", "chi_open"})
_STRATUM_REQUIRED = frozenset({"components"})
_STR_TYPES = frozenset({str})


def _components(raws, where: str) -> tuple:
    """The (id, multiplicity, chi_open) of each component record of the fiber at
    ``where``, or the refusal of the first record that breaks a rule."""
    if fault := _list_fault("components", raws):
        raise ModelParseError(f"{where}{fault}")
    records = []
    for i, raw in enumerate(raws):
        if type(raw) is not dict or not raw.keys() <= _COMPONENT_FIELDS:
            fault = None  # a fault of shape, named below
        elif type(cid := raw.get("id")) is not str or not cid:
            fault = _str_fault("id", cid)
        elif type(multiplicity := raw.get("multiplicity")) is not int:
            fault = _int_fault("multiplicity", multiplicity)
        elif type(chi_open := raw.get("chi_open")) is not int and "chi_open" in raw:
            fault = _int_fault("chi_open", chi_open)
        else:
            records.append((cid, multiplicity, chi_open))
            continue
        # a missing field fails its type check, but is named as missing
        fault = _shape_fault(raw, _COMPONENT_FIELDS, _COMPONENT_REQUIRED) or fault
        raise ModelParseError(f"{where}.components[{i}]{fault}")
    return tuple(records)


def _strata(raws, where: str) -> tuple:
    """The (components, chi_closed, chi_open) of each stratum record of the fiber
    at ``where``, or the refusal of the first record that breaks a rule."""
    if fault := _list_fault("strata", raws):
        raise ModelParseError(f"{where}{fault}")
    records = []
    for i, raw in enumerate(raws):
        if type(raw) is not dict or not raw.keys() <= _STRATUM_FIELDS:
            fault = None  # a fault of shape, named below
        elif type(ids := raw.get("components")) is not list:
            fault = _list_fault("components", ids)
        elif not _STR_TYPES.issuperset(map(type, ids)) or "" in (members := frozenset(ids)):
            fault = next(f for j, v in enumerate(ids) if (f := _str_fault(f"components[{j}]", v)))
        elif len(members) != len(ids):
            fault = f".components: repeated component id in {ids}"
        elif type(chi_closed := raw.get("chi_closed")) is not int and "chi_closed" in raw:
            fault = _int_fault("chi_closed", chi_closed)
        elif type(chi_open := raw.get("chi_open")) is not int and "chi_open" in raw:
            fault = _int_fault("chi_open", chi_open)
        else:
            records.append((members, chi_closed, chi_open))
            continue
        fault = _shape_fault(raw, _STRATUM_FIELDS, _STRATUM_REQUIRED) or fault
        raise ModelParseError(f"{where}.strata[{i}]{fault}")
    return tuple(records)


def _parse_fiber(raw, where: str) -> FiberModel:
    if fault := _shape_fault(raw, _FIBER_FIELDS, _FIBER_FIELDS):
        raise ModelParseError(f"{where}{fault}")
    components = _components(raw["components"], where)
    strata = _strata(raw["strata"], where)
    if fault := _int_fault("prime", raw["prime"]):
        raise ModelParseError(f"{where}{fault}")
    return FiberModel(prime=raw["prime"], components=components, strata=strata)


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
    fault = (
        _shape_fault(raw, _MODEL_FIELDS, _MODEL_REQUIRED)
        or _int_fault("generic_euler", raw.get("generic_euler", 0))
        or _list_fault("fibers", raw["fibers"])
    )
    if fault:
        raise ModelParseError(f"{source}{fault}")
    fibers = tuple(_parse_fiber(f, f"{source}.fibers[{i}]") for i, f in enumerate(raw["fibers"]))
    if fault := _int_fault("relative_dimension", raw["relative_dimension"]):
        raise ModelParseError(f"{source}{fault}")
    model = ArithmeticModel(raw["relative_dimension"], fibers, raw.get("generic_euler"))
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
