"""Property test of the config parser over the real keys with arbitrary values."""

from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from lmlp.cli import USAGE_ERRORS
from lmlp.config import SECTIONS, RunConfig, parse_config, serialize_config

SECTION_OF = {key: section for section, keys in SECTIONS.items() for key in keys}
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
    st.sampled_from([(f.name, f.type) for f in fields(RunConfig)]).flatmap(
        lambda field: st.tuples(st.just(field[0]), VALUE_OF_TYPE[field[1]] | ANY_VALUE,
                                st.booleans())),
    max_size=6, unique_by=lambda line: line[0])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(LINES)
def test_parse_config_gives_a_config_or_a_usage_error(lines):
    text = "\n".join((f"[{SECTION_OF[key]}]\n" if header else "") + f"{key} = {value}"
                     for key, value, header in lines)
    try:
        config = parse_config(text)
    except USAGE_ERRORS:
        return
    assert isinstance(config, RunConfig)
    once = serialize_config(config)
    assert parse_config(once) == config
    assert serialize_config(parse_config(once)) == once
