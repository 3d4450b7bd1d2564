"""Property tests of the config parser and of CLI-style overrides over the
real keys with arbitrary values."""

from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from lmlp.config import SECTIONS, RunConfig, apply_overrides, parse_config, serialize_config
from lmlp.tensor import UsageError

SECTION_OF = {key: section for section, keys in SECTIONS.items() for key in keys}
FIELD_TYPES = [(f.name, f.type) for f in fields(RunConfig)]
ANY_VALUE = st.text(max_size=12)
VALUE_OF_TYPE = {
    "int": st.integers(-2, 70).map(str) | st.integers().map(str),
    "float": st.floats().map(repr) | st.sampled_from(["1e308", "-0.0", "1", "0x10"]),
    "str": st.sampled_from(["F2", "a3", "TRANSFORMER", "ZZ", "none", "first_stage",
                            "linear", "conv3x3_postprocess", ""]),
}
# (key, value, whether the key's own section header goes before it); a key
# given twice is refused before its value is read, so none is drawn twice
LINES = st.lists(
    st.sampled_from(FIELD_TYPES).flatmap(
        lambda field: st.tuples(st.just(field[0]), VALUE_OF_TYPE[field[1]] | ANY_VALUE,
                                st.booleans())),
    max_size=6, unique_by=lambda line: line[0])
PADDING = st.sampled_from(["", " ", "\t", "  "])
# (key, value) of one override, the value possibly padded as a shell can pass it
OVERRIDES = st.sampled_from(FIELD_TYPES).flatmap(
    lambda field: st.tuples(st.just(field[0]), st.tuples(
        PADDING, VALUE_OF_TYPE[field[1]] | ANY_VALUE, PADDING).map("".join)))


def assert_round_trips(config):
    once = serialize_config(config)
    assert parse_config(once) == config
    assert serialize_config(parse_config(once)) == once


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(LINES)
def test_parse_config_gives_a_config_or_a_usage_error(lines):
    text = "\n".join((f"[{SECTION_OF[key]}]\n" if header else "") + f"{key} = {value}"
                     for key, value, header in lines)
    try:
        config = parse_config(text)
    except UsageError:
        return
    assert isinstance(config, RunConfig)
    assert_round_trips(config)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(OVERRIDES)
def test_an_override_gives_a_usage_error_or_a_config_that_round_trips(override):
    key, value = override
    try:
        config = apply_overrides(RunConfig(), {key: value})
    except UsageError:
        return
    assert_round_trips(config)
