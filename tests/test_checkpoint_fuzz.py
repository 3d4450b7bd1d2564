"""Property test of the checkpoint reader over corrupted golden files."""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from lmlp.checkpoint import CheckpointError, load_checkpoint

GOLDEN = {tag: (Path(__file__).parent / "data" / f"golden_{tag}.lmlp").read_bytes()
          for tag in ("f2", "a3", "transformer", "b2_conv")}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(GOLDEN)), st.lists(st.integers(min_value=0), max_size=3),
       st.none() | st.integers(min_value=0))
@example("f2", [7868 * 8 + 7], None)  # final_norm.gain's rank 1 becomes 129
def test_corrupt_golden_file_loads_or_raises_checkpoint_error(tmp_path_factory, tag,
                                                              bits, cut):
    """Flip up to three bits of a golden file, then maybe cut it short: it
    either loads or raises ``CheckpointError``, never another error."""
    raw = bytearray(GOLDEN[tag])
    for bit in bits:
        bit %= 8 * len(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
    if cut is not None:
        raw = raw[:cut % len(raw)]
    path = tmp_path_factory.getbasetemp() / "corrupt.lmlp"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
