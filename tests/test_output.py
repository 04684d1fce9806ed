"""CSV/JSON emission of the CLI: exact float round-trip, determinism."""

import json
import math

import pytest

from oscspec.cli import _cell, _render
from conftest import parse_cell, parse_csv


AWKWARD_FLOATS = [
    math.pi,
    0.1,
    1e300,
    -1.5e-17,
    2.0 / 3.0,
    5.0,
    math.inf,
    0.30000000000000004,
]


def test_float_cells_roundtrip_exactly():
    for x in AWKWARD_FLOATS:
        back = parse_cell(_cell(x))
        assert back == x


def test_typed_cells():
    assert parse_cell(_cell(7)) == 7
    assert parse_cell(_cell(True)) is True
    assert parse_cell(_cell(False)) is False
    assert parse_cell(_cell(None)) is None
    assert parse_cell(_cell("even")) == "even"


def test_csv_roundtrip():
    rows = [
        {"level": 0, "energy": 1.0603620975, "parity": "even", "note": None},
        {"level": 1, "energy": 3.7996730297, "parity": "odd", "note": "x"},
        {"level": 2, "energy": math.pi * 1e10, "parity": "even", "note": None},
    ]
    header, parsed = parse_csv(_render("csv", {}, rows))
    assert header == ["level", "energy", "parity", "note"]
    assert parsed == rows


def test_csv_header_is_the_ordered_union_of_row_keys():
    rows = [{"kind": "drift", "alpha": 1.5}, {"kind": "contraction", "epsilon": 0.5}]
    header, parsed = parse_csv(_render("csv", {}, rows))
    assert header == ["kind", "alpha", "epsilon"]
    assert parsed[0]["epsilon"] is None and parsed[1]["alpha"] is None


def test_csv_deterministic():
    rows = [{"a": 0.1, "b": 3}]
    assert _render("csv", {}, rows) == _render("csv", {}, rows)


def test_json_roundtrip_floats():
    document = {"values": AWKWARD_FLOATS[:-2], "nested": {"x": 2.0 / 3.0}}
    loaded = json.loads(_render("json", document, []))
    assert loaded["values"] == AWKWARD_FLOATS[:-2]
    assert loaded["nested"]["x"] == 2.0 / 3.0


def test_json_refuses_nan():
    # NaN and infinities are not JSON: a document holding one is a fault, never output
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _render("json", {"x": value}, [])
