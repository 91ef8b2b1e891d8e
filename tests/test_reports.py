import json

import pytest

from beliefkit import emit_report

SAMPLE = {
    "frame": "{yes,no}",
    "message": "BANANA",
    "mass": {"{no}": "2/3", "{yes,no}": "1/3"},
}


def test_text_lines():
    assert emit_report("derive", SAMPLE, "text") == (
        "frame = {yes,no}\n"
        "message = BANANA\n"
        "m({no}) = 2/3\n"
        "m({yes,no}) = 1/3\n"
    )


def test_machine_reparses_to_payload_exactly():
    payload = {"seed": 7, "accepted": 33, "frequency": {"{no}": 0.667427}}
    doc = json.loads(emit_report("simulate", payload, "machine"))
    assert doc == {"kind": "simulate", **payload}


def test_boolean_rendering():
    payload = {"one_to_one": True, "equivalent": False}
    assert emit_report("williams", payload, "text") == "one_to_one = true\nequivalent = false\n"


def test_float_rendering_uses_six_places():
    payload = {"frequency": {"{no}": 0.5}}
    assert emit_report("simulate", payload, "text") == "freq({no}) = 0.500000\n"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report("derive", SAMPLE, "yaml")


def test_default_format_is_text():
    assert emit_report("derive", SAMPLE).startswith("frame = ")
