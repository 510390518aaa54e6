"""Strict model-file parsing."""

import gc
import json

import pytest

from charcalc.cli import main
from charcalc.conductor import ModelValidationError
from charcalc.modelfile import ModelParseError, _unique_keys, load_model, parse_model


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


# A key repeated at each level of the document: (text of i2_document() it
# replaces, the text with the key twice).  ``json`` alone keeps the last value.
REPEATED_KEYS = {
    "top-level": ('"generic_euler": 0', '"generic_euler": 0, "generic_euler": 2'),
    "fiber": ('"prime": 5', '"prime": 5, "prime": 7'),
    "component": ('"multiplicity": 1}', '"multiplicity": 1, "multiplicity": 2}'),
    "stratum": ('"chi_closed": 2}', '"chi_closed": 2, "chi_closed": 2}'),
}
# The message names the object that holds the repeat, cut after 80 characters.
REPEATED_KEY_MESSAGES = {
    "top-level": "repeated key 'generic_euler' in {\"relative_dimension\": 1, \"generic_euler\": 0, "
    "\"generic_euler\": 2, \"fibers\": [{\"p...",
    "fiber": "repeated key 'prime' in {\"prime\": 5, \"prime\": 7, \"components\": "
    "[{\"id\": \"C1\", \"multiplicity\": 1}, {\"id\": ...",
    "component": "repeated key 'multiplicity' in "
    "{\"id\": \"C1\", \"multiplicity\": 1, \"multiplicity\": 2}",
    "stratum": "repeated key 'chi_closed' in {\"components\": [\"C1\"], \"chi_closed\": 2, "
    "\"chi_closed\": 2}",
}


def repeated_key_text(case):
    old, new = REPEATED_KEYS[case]
    text = json.dumps(i2_document())
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_key_rejected(case):
    with pytest.raises(ModelParseError) as info:
        parse_model(repeated_key_text(case), source="m.json")
    assert str(info.value) == f"m.json: invalid JSON: {REPEATED_KEY_MESSAGES[case]}"


def test_repeated_key_preview_is_bounded():
    # the object holding the repeat has 10^5 numbers; the preview reads the first few

    class Counted(list):
        read = 0

        def __iter__(self):
            for self.read, item in enumerate(super().__iter__(), 1):
                yield item

    numbers = Counted([12345] * 10**5)
    with pytest.raises(ModelParseError) as info:
        _unique_keys([("a", 1), ("a", 2), ("big", numbers)])
    assert str(info.value) == (
        'repeated key \'a\' in {"a": 1, "a": 2, "big": '
        "[12345, 12345, 12345, 12345, 12345, 12345, 12345, 12345,..."
    )
    assert numbers.read < 20


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


@pytest.mark.parametrize("collecting", [True, False])
def test_load_model_restores_the_collector(tmp_path, collecting):
    good, bad = tmp_path / "model.json", tmp_path / "bad.json"
    good.write_text(json.dumps(i2_document()), encoding="utf-8")
    bad.write_text('{"relative_dimension": 1.5, "fibers": []}', encoding="utf-8")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        load_model(good)
        assert gc.isenabled() is collecting
        with pytest.raises(ModelParseError):
            load_model(bad)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


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


# -- every refusal of the reader, by record, with its exact text ------------

DROP = object()  # an edit value that deletes the field
FIBER = ("fibers", 0)
COMPONENT = FIBER + ("components", 0)
STRATUM = FIBER + ("strata", 0)
EDGE = FIBER + ("strata", 2)  # the stratum {C1, C2}
BAD_INTS = {"true": True, "float": 1.0, "null": None}


def edited(*edits):
    """i2_document() with each (path, value) edit applied in turn; the empty
    path replaces the whole document."""
    doc = i2_document()
    for path, value in edits:
        if not path:
            doc = value
            continue
        *head, last = path
        target = doc
        for step in head:
            target = target[step]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return doc


def _int_refusals(record, path, where, fields):
    return {
        f"{record}/{field}-{name}": (
            [(path + (field,), value)],
            f"{where}.{field}: expected an exact integer, got {value!r}",
        )
        for field in fields
        for name, value in BAD_INTS.items()
    }


AT_FIBER = "m.json.fibers[0]"
AT_COMPONENT = f"{AT_FIBER}.components[0]"
AT_STRATUM = f"{AT_FIBER}.strata[0]"
AT_EDGE = f"{AT_FIBER}.strata[2]"

# case -> (edits of i2_document(), the exact ModelParseError text)
REFUSALS = {
    "model/not-object": ([((), [1])], "m.json: expected an object, got list"),
    "model/unknown": ([(("discriminant",), 5)], "m.json: unknown fields ['discriminant']"),
    "model/missing": ([(("fibers",), DROP)], "m.json: missing fields ['fibers']"),
    "model/fibers-not-list": ([(("fibers",), {})], "m.json.fibers: expected a list, got dict"),
    **_int_refusals("model", (), "m.json", ("generic_euler", "relative_dimension")),
    "fiber/not-object": ([(FIBER, "p5")], f"{AT_FIBER}: expected an object, got str"),
    "fiber/unknown": ([(FIBER + ("name",), "x")], f"{AT_FIBER}: unknown fields ['name']"),
    "fiber/missing": ([(FIBER + ("strata",), DROP)], f"{AT_FIBER}: missing fields ['strata']"),
    "fiber/components-not-list": (
        [(FIBER + ("components",), "C1")],
        f"{AT_FIBER}.components: expected a list, got str",
    ),
    "fiber/strata-not-list": (
        [(FIBER + ("strata",), None)],
        f"{AT_FIBER}.strata: expected a list, got NoneType",
    ),
    **_int_refusals("fiber", FIBER, AT_FIBER, ("prime",)),
    "component/not-object": ([(COMPONENT, ["C1", 1])], f"{AT_COMPONENT}: expected an object, got list"),
    "component/unknown": (
        [(COMPONENT + ("color",), "blue"), (COMPONENT + ("chi",), 1)],
        f"{AT_COMPONENT}: unknown fields ['chi', 'color']",
    ),
    "component/missing": (
        [(COMPONENT + ("multiplicity",), DROP)],
        f"{AT_COMPONENT}: missing fields ['multiplicity']",
    ),
    "component/empty": ([(COMPONENT, {})], f"{AT_COMPONENT}: missing fields ['id', 'multiplicity']"),
    "component/id-empty": (
        [(COMPONENT + ("id",), "")],
        f"{AT_COMPONENT}.id: expected a non-empty string, got ''",
    ),
    "component/id-not-string": (
        [(COMPONENT + ("id",), 1)],
        f"{AT_COMPONENT}.id: expected a non-empty string, got 1",
    ),
    **_int_refusals("component", COMPONENT, AT_COMPONENT, ("multiplicity", "chi_open")),
    "stratum/not-object": ([(STRATUM, 2)], f"{AT_STRATUM}: expected an object, got int"),
    "stratum/unknown": ([(STRATUM + ("chi",), 2)], f"{AT_STRATUM}: unknown fields ['chi']"),
    "stratum/missing": (
        [(STRATUM + ("components",), DROP)],
        f"{AT_STRATUM}: missing fields ['components']",
    ),
    "stratum/components-not-list": (
        [(STRATUM + ("components",), "C1")],
        f"{AT_STRATUM}.components: expected a list, got str",
    ),
    "stratum/id-empty": (
        [(EDGE + ("components",), ["C1", ""])],
        f"{AT_EDGE}.components[1]: expected a non-empty string, got ''",
    ),
    "stratum/id-not-string": (
        [(EDGE + ("components",), ["C1", None])],
        f"{AT_EDGE}.components[1]: expected a non-empty string, got None",
    ),
    "stratum/id-a-list": (
        [(EDGE + ("components",), [["C1"], "C2"])],
        f"{AT_EDGE}.components[0]: expected a non-empty string, got ['C1']",
    ),
    "stratum/id-repeated": (
        [(EDGE + ("components",), ["C1", "C1"])],
        f"{AT_EDGE}.components: repeated component id in ['C1', 'C1']",
    ),
    **_int_refusals("stratum", STRATUM, AT_STRATUM, ("chi_closed", "chi_open")),
    # two faults: the one the reader meets first is named
    "two/unknown-and-missing": (
        [(STRATUM + ("chi",), 2), (STRATUM + ("components",), DROP)],
        f"{AT_STRATUM}: unknown fields ['chi']",
    ),
    "two/component-unknown-and-missing": (
        [(COMPONENT + ("color",), "blue"), (COMPONENT + ("multiplicity",), DROP)],
        f"{AT_COMPONENT}: unknown fields ['color']",
    ),
    "two/fiber-unknown-and-missing": (
        [(FIBER + ("name",), "x"), (FIBER + ("strata",), DROP)],
        f"{AT_FIBER}: unknown fields ['name']",
    ),
    "two/model-unknown-and-missing": (
        [(("discriminant",), 5), (("fibers",), DROP)],
        "m.json: unknown fields ['discriminant']",
    ),
    "two/unknown-and-components-not-list": (
        [(STRATUM + ("chi",), 2), (STRATUM + ("components",), "C1")],
        f"{AT_STRATUM}: unknown fields ['chi']",
    ),
    "two/id-a-list-and-repeated-id": (
        [(EDGE + ("components",), [["C1"], "C1", "C1"])],
        f"{AT_EDGE}.components[0]: expected a non-empty string, got ['C1']",
    ),
    "two/id-and-multiplicity": (
        [(COMPONENT + ("multiplicity",), 1.0), (COMPONENT + ("id",), "")],
        f"{AT_COMPONENT}.id: expected a non-empty string, got ''",
    ),
    "two/multiplicity-and-chi-open": (
        [(COMPONENT + ("chi_open",), True), (COMPONENT + ("multiplicity",), None)],
        f"{AT_COMPONENT}.multiplicity: expected an exact integer, got None",
    ),
    "two/chi-closed-and-chi-open": (
        [(STRATUM + ("chi_open",), 1.0), (STRATUM + ("chi_closed",), True)],
        f"{AT_STRATUM}.chi_closed: expected an exact integer, got True",
    ),
    "two/members-and-chi": (
        [(EDGE + ("chi_closed",), None), (EDGE + ("components",), [1, 1])],
        f"{AT_EDGE}.components[0]: expected a non-empty string, got 1",
    ),
    "two/empty-and-repeated-id": (
        [(EDGE + ("components",), ["C1", "C1", ""])],
        f"{AT_EDGE}.components[2]: expected a non-empty string, got ''",
    ),
    "two/component-then-stratum": (
        [(STRATUM + ("chi_closed",), True), (COMPONENT + ("id",), 5)],
        f"{AT_COMPONENT}.id: expected a non-empty string, got 5",
    ),
    "two/later-component-then-strata-list": (
        [(FIBER + ("strata",), "all"), (FIBER + ("components", 1, "color"), "red")],
        f"{AT_FIBER}.components[1]: unknown fields ['color']",
    ),
    "two/stratum-then-prime": (
        [(FIBER + ("prime",), True), (EDGE + ("chi_closed",), 1.0)],
        f"{AT_EDGE}.chi_closed: expected an exact integer, got 1.0",
    ),
    "two/invalid-prime-then-malformed-stratum": (
        [(FIBER + ("prime",), 4), (STRATUM + ("chi_open",), None)],
        f"{AT_STRATUM}.chi_open: expected an exact integer, got None",
    ),
    "two/generic-euler-then-fiber": (
        [(FIBER + ("prime",), None), (("generic_euler",), 0.0)],
        "m.json.generic_euler: expected an exact integer, got 0.0",
    ),
    "two/stratum-then-relative-dimension": (
        [(("relative_dimension",), True), (STRATUM + ("chi_closed",), None)],
        f"{AT_STRATUM}.chi_closed: expected an exact integer, got None",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_the_first_fault(case):
    edits, message = REFUSALS[case]
    with pytest.raises(ModelParseError) as info:
        parse_model(json.dumps(edited(*edits)), source="m.json")
    assert str(info.value) == message


def test_stratum_of_no_components_is_refused_by_validation(tmp_path, capsys):
    # an empty members list is well formed; the empty stratum is invalid data
    doc = edited((EDGE + ("components",), []))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelValidationError) as info:
        load_model(path)
    assert str(info.value) == "fiber at p=5: stratum with empty component set"
    assert main(["conductor", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


# case -> (edits of i2_document(), the exact ModelValidationError text)
VALIDATION_REFUSALS = {
    "no-components": ([(FIBER + ("components",), [])], "fiber at p=5: fiber has no components"),
    "duplicate-ids": (
        [(FIBER + ("components", 1, "id"), "C1")],
        "fiber at p=5: duplicate component ids",
    ),
    "multiplicity-zero": (
        [(COMPONENT + ("multiplicity",), 0)],
        "fiber at p=5: component C1 has multiplicity 0 < 1",
    ),
    "negative-dimension": ([(("relative_dimension",), -1)], "relative_dimension must be non-negative"),
    # the open side is declared, so the closed value on {C2} is checked: 1 + 2 = 3
    "open-side-closed-disagrees": (
        [(FIBER + ("strata",), [
            {"components": ["C1"], "chi_open": 1},
            {"components": ["C2"], "chi_open": 1, "chi_closed": 4},
            {"components": ["C1", "C2"], "chi_open": 2},
        ])],
        "fiber at p=5: stratum ['C2'] declares chi_closed=4 but the open strata sum to 3",
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_REFUSALS))
def test_validation_refusal_names_the_fault(tmp_path, capsys, case):
    edits, message = VALIDATION_REFUSALS[case]
    text = json.dumps(edited(*edits))
    with pytest.raises(ModelValidationError) as info:
        parse_model(text, source="m.json")
    assert str(info.value) == message
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    assert main(["conductor", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_later_malformed_record_outranks_an_earlier_invalid_fiber():
    # every record of every fiber is read before any fiber is validated
    doc = edited((FIBER + ("prime",), 4))
    later = i2_document()["fibers"][0]
    later["prime"] = 7
    later["strata"][0]["chi_open"] = None
    doc["fibers"].append(later)
    with pytest.raises(ModelParseError) as info:
        parse_model(json.dumps(doc), source="m.json")
    assert str(info.value) == "m.json.fibers[1].strata[0].chi_open: expected an exact integer, got None"
    del later["strata"][0]["chi_open"]
    with pytest.raises(ModelValidationError) as info:
        parse_model(json.dumps(doc), source="m.json")
    assert str(info.value) == "fiber at p=4: 4 is not a prime"
