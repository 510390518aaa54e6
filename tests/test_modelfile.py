"""Strict model-file parsing."""

import json

import pytest

from charcalc.conductor import ModelValidationError
from charcalc.modelfile import ModelParseError, load_model, parse_model


def i2_document():
    return {
        "relative_dimension": 1,
        "generic_euler": 0,
        "fibers": [
            {
                "prime": 5,
                "components": [
                    {"id": "C1", "multiplicity": 1},
                    {"id": "C2", "multiplicity": 1},
                ],
                "strata": [
                    {"components": ["C1"], "chi_closed": 2},
                    {"components": ["C2"], "chi_closed": 2},
                    {"components": ["C1", "C2"], "chi_closed": 2},
                ],
            }
        ],
    }


def open_side_document():
    """The I2 document with chi_open declared instead of chi_closed."""
    doc = i2_document()
    opened = {("C1",): 1, ("C2",): 1, ("C1", "C2"): 2}
    doc["fibers"][0]["strata"] = [
        {"components": list(J), "chi_open": chi} for J, chi in opened.items()
    ]
    return doc


def parse(doc):
    return parse_model(json.dumps(doc))


def test_parse_well_formed_document():
    model = parse(i2_document())
    assert model.relative_dimension == 1
    assert model.generic_euler == 0
    fiber = model.fibers[0]
    assert fiber.prime == 5
    assert {c.id for c in fiber.components} == {"C1", "C2"}
    assert len(fiber.strata) == 3


def test_parse_returns_normalized_fibers():
    for doc in (i2_document(), open_side_document()):
        for fiber in parse(doc).fibers:
            assert all(s.chi_closed is not None and s.chi_open is not None for s in fiber.strata)
            assert all(c.chi_open is not None for c in fiber.components)


def test_generic_euler_is_optional():
    doc = i2_document()
    del doc["generic_euler"]
    assert parse(doc).generic_euler is None


def test_unknown_top_level_field_rejected():
    doc = i2_document()
    doc["discriminant"] = 5
    with pytest.raises(ModelParseError, match="unknown fields"):
        parse(doc)


def test_unknown_nested_field_rejected():
    doc = i2_document()
    doc["fibers"][0]["components"][0]["color"] = "blue"
    with pytest.raises(ModelParseError, match=r"components\[0\]"):
        parse(doc)


def test_floats_rejected():
    doc = i2_document()
    doc["generic_euler"] = 0.0
    with pytest.raises(ModelParseError, match="exact integer"):
        parse(doc)
    doc = i2_document()
    doc["fibers"][0]["strata"][0]["chi_closed"] = 2.5
    with pytest.raises(ModelParseError, match="exact integer"):
        parse(doc)


def test_booleans_rejected():
    doc = i2_document()
    doc["fibers"][0]["prime"] = True
    with pytest.raises(ModelParseError, match="exact integer"):
        parse(doc)


def test_missing_required_field():
    doc = i2_document()
    del doc["fibers"][0]["prime"]
    with pytest.raises(ModelParseError, match="missing fields"):
        parse(doc)


def test_json_syntax_error_is_position_annotated():
    with pytest.raises(ModelParseError, match="line 1"):
        parse_model("{not json}")


def test_repeated_component_in_stratum_rejected():
    doc = i2_document()
    doc["fibers"][0]["strata"][2]["components"] = ["C1", "C1"]
    with pytest.raises(ModelParseError, match="repeated"):
        parse(doc)


def test_referential_integrity_enforced():
    doc = i2_document()
    doc["fibers"][0]["strata"][2]["components"] = ["C1", "ghost"]
    with pytest.raises(ModelValidationError, match="undeclared"):
        parse(doc)


def test_stratum_without_chi_rejected():
    doc = i2_document()
    del doc["fibers"][0]["strata"][0]["chi_closed"]
    with pytest.raises(ModelValidationError, match="no Euler characteristic"):
        parse(doc)


def test_depth_bound_enforced_at_parse():
    doc = i2_document()
    doc["relative_dimension"] = 0
    with pytest.raises(ModelValidationError, match="d\\+1"):
        parse(doc)


def test_empty_id_rejected():
    doc = i2_document()
    doc["fibers"][0]["components"][0]["id"] = ""
    with pytest.raises(ModelParseError, match="non-empty string"):
        parse(doc)


def test_component_chi_open_accepted():
    doc = i2_document()
    doc["fibers"][0]["components"][0]["chi_open"] = 0
    model = parse(doc)
    assert model.fibers[0].components[0].chi_open == 0


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelParseError, match="cannot read"):
        load_model(tmp_path / "absent.json")


def test_load_model_from_disk(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(i2_document()), encoding="utf-8")
    model = load_model(path)
    assert model.fibers[0].prime == 5


# Files that used to escape the loader as a ValueError, RecursionError or
# UnicodeDecodeError traceback: (bytes, message the ModelParseError carries).
HOSTILE_MODELS = {
    "long-integer": (
        b'{"relative_dimension": ' + b"9" * 5000 + b', "fibers": []}',
        "invalid JSON: Exceeds the limit",
    ),
    "deep-nesting": (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: nested too deeply"),
    "not-utf8": (
        b'{"relative_dimension": 1, "fibers": [], "x": "\xff\xfe"}',
        "not UTF-8 text: invalid start byte at byte 46",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_MODELS))
def test_hostile_file_is_parse_error(tmp_path, case):
    content, message = HOSTILE_MODELS[case]
    path = tmp_path / f"{case}.json"
    path.write_bytes(content)
    with pytest.raises(ModelParseError, match=message):
        load_model(path)


# every literal parses, but C1's open value 9*10^4299 - (-9*10^4299) has 4,301 digits
AT_DIGIT_LIMIT = 9 * 10**4299
DERIVED_PAST_DIGIT_LIMIT = {
    "relative_dimension": 1,
    "fibers": [{
        "prime": 5,
        "components": [{"id": "C1", "multiplicity": 1, "chi_open": 1},
                       {"id": "C2", "multiplicity": 1}],
        "strata": [
            {"components": ["C1"], "chi_closed": AT_DIGIT_LIMIT},
            {"components": ["C2"], "chi_closed": AT_DIGIT_LIMIT},
            {"components": ["C1", "C2"], "chi_closed": -AT_DIGIT_LIMIT},
        ],
    }],
}
DERIVED_PAST_DIGIT_LIMIT_MESSAGE = (
    "fiber at p=5: component C1 declares chi_open=1 but its singleton stratum "
    "gives ~1.800e+4300"
)


def test_mismatch_past_the_digit_limit_is_validation_error():
    with pytest.raises(ModelValidationError) as info:
        parse_model(json.dumps(DERIVED_PAST_DIGIT_LIMIT))
    assert str(info.value) == DERIVED_PAST_DIGIT_LIMIT_MESSAGE
    # the reader still refuses a literal of 4,301 digits
    text = json.dumps(DERIVED_PAST_DIGIT_LIMIT).replace(str(AT_DIGIT_LIMIT), "1" + "0" * 4300, 1)
    with pytest.raises(ModelParseError, match="invalid JSON: Exceeds the limit"):
        parse_model(text)
