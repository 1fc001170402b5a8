import json
import math

import numpy as np
import pytest

from flmlab.serialize import (
    dumps,
    emit_csv,
    emit_levels_csv,
    emit_replicates_csv,
    format_float,
    parse_levels_csv,
    parse_replicates_csv,
)


def test_floats_printed_with_17_significant_digits():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(2.5) == "2.5"
    text = dumps({"x": 0.1})
    assert "0.10000000000000001" in text


def test_float_formatting_round_trips_exactly():
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1e6, 1e6, size=200):
        assert float(format_float(float(x))) == float(x)
    for x in (1e-300, 1e300, math.pi, 5e-324):
        assert float(format_float(x)) == x


def test_dumps_is_valid_json():
    doc = {
        "name": "run with \"quotes\"\n",
        "values": [1, 2.5, None, True, False],
        "nested": {"empty_list": [], "empty_dict": {}},
        "array": np.array([0.25, 0.5]),
    }
    parsed = json.loads(dumps(doc))
    assert parsed["values"] == [1, 2.5, None, True, False]
    assert parsed["array"] == [0.25, 0.5]
    assert parsed["name"] == 'run with "quotes"\n'


def test_dumps_strings_round_trip_through_json():
    for text in [chr(cp) for cp in range(0x80)] + ["\u2028", "\u2029", "level:\f3", "a\bb\"c\\"]:
        assert json.loads(dumps(text)) == text
        assert json.loads(dumps({text: [text]})) == {text: [text]}


def test_dumps_takes_numpy_scalars_and_arrays():
    doc = {"flag": np.bool_(False), "hits": np.array([True, False]), "t": np.array([3, 4], dtype=np.int64)}
    assert json.loads(dumps(doc)) == {"flag": False, "hits": [True, False], "t": [3, 4]}
    assert dumps(np.float64(0.1)) == dumps(0.1) == "0.10000000000000001\n"


@pytest.mark.parametrize(
    "array",
    [
        np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1 / 3, 5e-324, -1e300]),
        np.array([0.5, math.nan, -0.0], dtype=np.float32),
        np.array([0, -7, 2**62, -(2**63)], dtype=np.int64),
        np.array([3, 255], dtype=np.uint8),
        np.array([2**64 - 1, 0], dtype=np.uint64),
        np.array([True, False, True]),
        np.array([], dtype=float),
        np.array([], dtype=bool),
    ],
    ids=["float64", "float32", "int64", "uint8", "uint64", "bool", "empty-float", "empty-bool"],
)
def test_dumps_one_dimensional_array_matches_the_element_wise_writer(array):
    # a list of numpy scalars and a list of Python scalars both go through
    # the element-wise writer, one element at a time
    text = dumps({"a": array})
    assert text == dumps({"a": list(array)}) == dumps({"a": array.tolist()})


def test_dumps_arrays_of_other_shapes_and_kinds_take_the_element_wise_writer():
    grid = np.arange(6.0).reshape(2, 3)
    assert dumps(grid) == dumps([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]) == "[[0, 1, 2], [3, 4, 5]]\n"
    assert dumps(np.array(["a", "b"])) == '["a", "b"]\n'
    with pytest.raises(TypeError):
        dumps(np.array([1 + 2j]))


def test_emit_csv_cell_rules():
    rows = [
        (np.bool_(True), True, np.int64(7), 7),
        (np.bool_(False), False, np.float64(0.1), 0.1),
        ("word", "", np.float32(0.5), float("inf")),
    ]
    text = emit_csv(("a", "b", "c", "d"), rows)
    assert text == "a,b,c,d\ntrue,true,7,7\nfalse,false,0.1,0.1\nword,,0.5,inf\n"
    assert emit_csv(("only",), []) == "only\n"


def test_dumps_special_floats_match_json_module():
    assert json.loads(dumps({"a": math.inf}))["a"] == math.inf
    assert math.isnan(json.loads(dumps({"a": math.nan}))["a"])


def test_replicate_csv_round_trip():
    runtimes = np.array([5, 0, 123], dtype=np.int64)
    hits = np.array([True, True, False])
    text = emit_replicates_csv(runtimes, hits)
    assert text.splitlines()[0] == "replicate,runtime,hit_optimum"
    parsed_runtimes, parsed_hits = parse_replicates_csv(text)
    assert np.array_equal(parsed_runtimes, runtimes)
    assert np.array_equal(parsed_hits, hits)
    assert emit_replicates_csv(parsed_runtimes, parsed_hits) == text


def test_levels_csv_round_trip():
    levels = np.arange(3)
    visit = np.array([1.0, 0.5, 1 / 3])
    leave = np.array([0.125, 0.0625, 0.0])
    sojourn = np.array([8.0, 16.5, 0.0])
    text = emit_levels_csv(levels, visit, leave, sojourn)
    assert text.splitlines()[0] == "level,visit_freq,leave_rate,mean_sojourn"
    parsed = parse_levels_csv(text)
    assert np.array_equal(parsed["visit_freq"], visit)
    assert np.array_equal(parsed["leave_rate"], leave)
    assert emit_levels_csv(parsed["level"], parsed["visit_freq"], parsed["leave_rate"], parsed["mean_sojourn"]) == text


def test_parsers_reject_foreign_headers():
    with pytest.raises(ValueError):
        parse_replicates_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_levels_csv("x\n1\n")
