"""Analytic block cost model and instrumented measurement.

``macs`` counts every matmul contraction of one forward pass; ``macs_param``
counts only contractions against trainable weights, which drops the
parameter-free attention score/value products of the self-attention block
(for MLP blocks the two coincide). Parameter counts keep leading terms only:
biases and norm affines are omitted, matching how such tables are usually
quoted. The measured side counts M*K*N per matmul actually executed and
enumerates every trainable scalar, so rounding in fractional hidden widths
is the only legitimate gap from the formulas.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Block, parameter_count

REFERENCE_SEQ_LEN = 334   # (32/2)^2 image tokens + 77 text tokens + 1 time token
REFERENCE_EMBED = 512

CSV_HEADER = "name,L,D,s,macs,params,mp_ratio"


@dataclass
class BlockCost:
    """Analytic cost of one block at a given (L, D, s)."""

    macs: float
    macs_param: float
    params: float

    @property
    def mp_ratio(self) -> float:
        """MACs per parameter using the weight-projection MAC convention."""
        if not self.params:
            raise T.UsageError("mp_ratio needs a positive parameter count")
        return self.macs_param / self.params


def transformer_cost(seq_len: int, embed_dim: int, scale: float) -> BlockCost:
    """Self-attention block: (4+2s)LD^2 weight MACs plus 2L^2D attention MACs."""
    _check_args(seq_len, embed_dim, scale)
    l, d, s = float(seq_len), float(embed_dim), float(scale)
    weight_macs = (4.0 + 2.0 * s) * l * d * d
    return BlockCost(
        macs=weight_macs + 2.0 * l * l * d,
        macs_param=weight_macs,
        params=(4.0 + 2.0 * s) * d * d,
    )


def lmlp_cost(seq_len: int, embed_dim: int, scale: float) -> BlockCost:
    """Two-branch block (linear first stage, projection, channel MLP):
    (2+2s)LD^2 + L^2D MACs, all against weights; (2+2s)D^2 + L^2 parameters."""
    _check_args(seq_len, embed_dim, scale)
    l, d, s = float(seq_len), float(embed_dim), float(scale)
    macs = (2.0 + 2.0 * s) * l * d * d + l * l * d
    return BlockCost(macs=macs, macs_param=macs,
                     params=(2.0 + 2.0 * s) * d * d + l * l)


def _check_args(seq_len: int, embed_dim: int, scale: float) -> None:
    if seq_len < 0 or embed_dim < 0:
        raise T.UsageError("extents must be non-negative")
    if not 0 < scale < np.inf:
        raise T.UsageError("scale must be a positive finite number")


_ANALYTIC = {"transformer": transformer_cost, "lmlp": lmlp_cost}
ANALYTIC_KINDS = tuple(_ANALYTIC)   # block kinds with a cost formula


def analytic_cost(kind: str, seq_len: int, embed_dim: int, scale: float) -> BlockCost:
    if kind not in _ANALYTIC:
        raise T.UsageError(f"no analytic cost formula for kind {kind!r}")
    return _ANALYTIC[kind](seq_len, embed_dim, scale)


def measure(block: Block, seq_len: int, embed_dim: int) -> tuple[int, int]:
    """Run one forward pass; return (executed matmul MACs, trainable scalars)."""
    _, weight = next(block.named_parameters())
    x = T.Tensor(np.ones((1, seq_len, embed_dim), dtype=weight.dtype))
    with T.no_grad(), T.count_macs() as counter:
        block.forward(x)
    return counter.total, parameter_count(block)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def reference_rows() -> list[tuple[str, int, int, float, str]]:
    """The three block configurations at the reference operating point."""
    return [
        ("transformer-s4", REFERENCE_SEQ_LEN, REFERENCE_EMBED, 4.0, "transformer"),
        ("lmlp-s5.2", REFERENCE_SEQ_LEN, REFERENCE_EMBED, 5.2, "lmlp"),
        ("lmlp-s4", REFERENCE_SEQ_LEN, REFERENCE_EMBED, 4.0, "lmlp"),
    ]


def cost_table(rows: list[tuple[str, int, int, float, str]]) -> tuple[str, str]:
    """Render (aligned text, CSV) cost tables for (name, L, D, s, kind) rows.

    CSV columns: name,L,D,s,macs,params,mp_ratio with macs the full analytic
    MAC count; the text table additionally shows the weight-only MAC column
    that the M/P ratio is based on.
    """
    header = ("name", "L", "D", "s", "macs", "weight_macs", "params", "m/p")
    cells = [header]
    csv_lines = [CSV_HEADER]
    for name, seq_len, embed_dim, scale, kind in rows:
        cost = analytic_cost(kind, seq_len, embed_dim, scale)
        cells.append((
            name, str(seq_len), str(embed_dim), f"{scale:g}",
            f"{cost.macs:.4e}", f"{cost.macs_param:.4e}",
            f"{cost.params:.0f}", f"{cost.mp_ratio:.2f}",
        ))
        csv_lines.append(
            f"{name},{seq_len},{embed_dim},{scale:g},{cost.macs:.10g},"
            f"{cost.params:.10g},{cost.mp_ratio:.6g}"
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    text = io.StringIO()
    for index, row in enumerate(cells):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        print(line.rstrip(), file=text)
        if index == 0:
            print("-" * (sum(widths) + 2 * (len(widths) - 1)), file=text)
    return text.getvalue(), "\n".join(csv_lines) + "\n"


__all__ = [
    "ANALYTIC_KINDS",
    "BlockCost",
    "CSV_HEADER",
    "REFERENCE_EMBED",
    "REFERENCE_SEQ_LEN",
    "analytic_cost",
    "cost_table",
    "lmlp_cost",
    "measure",
    "reference_rows",
    "transformer_cost",
]
