"""Span tracer for the benchmark's traced runs.

The tracer wraps lmlp's public callables from outside the package: the tensor
ops named in ``lmlp.tensor.__all__``, the ``__call__``/``forward`` methods of
the module classes, and the public functions of the diffusion, optim,
checkpoint, dataset and train layers. Every wrapped call becomes a span
(kind, name, parent id, start ns, end ns, value) kept in memory; spans are
written out when the run ends and reduced to per-layer metrics here.

Two views of time come out of one trace:

* module self time: a module or function span minus its child module and
  function spans. Tensor ops inside a module stay in that module's self
  time, so ``blocks.self_ms`` carries the block's permutes, merge and
  residual adds;
* op time: the outermost tensor-op spans, summed per op name.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

from lmlp import backbone, blocks, checkpoint, dataset, diffusion, optim, train
from lmlp import tensor as T

OP, MOD, FN = 0, 1, 2

# Ops reported by name. ``permute`` also covers ``permute_last_two``: both
# copy a transposed array, and the latter is a thin wrapper of the former.
REPORTED_OPS = ("matmul", "gelu", "layer_norm", "add", "mul", "permute",
                "reshape", "concat", "narrow", "gather_rows")
OP_ALIASES = {"permute_last_two": "permute"}
# Public names in tensor.__all__ that are not ops, or that the benchmark
# must not depend on.
NOT_OPS = {"count_macs", "no_grad", "deterministic_mode", "reset_tape", "tape_size"}

BLOCK_PARTS = ("norm_l", "fnn_l", "norm_r", "fnn_r", "merge_proj", "norm_2", "fnn_c")
BLOCK_MAC_PARTS = ("fnn_l", "fnn_r", "merge_proj", "fnn_c")
BACKBONE_PARTS = ("patch_embed", "time_embed", "final_norm", "head")
BACKBONE_MAC_PARTS = ("patch_embed", "time_embed", "head")
# Spans that run once per set-up or training run; their metrics are per call.
PER_CALL = ("checkpoint.save", "checkpoint.load", "dataset.generate_arrays")

MODULE_METHODS = (
    (blocks.LinearLayer, "__call__"),
    (blocks.LayerNorm, "__call__"),
    (blocks.MlpLayer, "__call__"),
    (blocks.BranchNet, "__call__"),
    (blocks.LmlpBlock, "forward"),
    (blocks.TransformerBlock, "forward"),
    (blocks.MixerBlock, "forward"),
    (blocks.GmlpBlock, "forward"),
    (backbone.UlMlpModel, "forward"),
)
MODULE_CLASSES = tuple(cls for cls, _ in MODULE_METHODS)

# (module, function name, span name)
LAYER_FUNCTIONS = (
    (diffusion, "training_loss", "diffusion.training_loss"),
    (diffusion, "sample", "diffusion.sample"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (dataset, "generate_arrays", "dataset.generate_arrays"),
    (train, "run_training", "train.run_training"),
)


def _op_names() -> list[str]:
    return [name for name in T.__all__
            if name not in NOT_OPS and inspect.isfunction(getattr(T, name))]


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` scopes them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.paths: dict[int, str] = {}
        self.roots: list = []          # keeps registered ids from being reused
        self.in_op = False
        self._patched: list[tuple[object, str, object]] = []

    # -- module registry ----------------------------------------------------
    def register(self, root, named_parameters, root_path: str) -> None:
        """Key every module object under ``root`` to its named_parameters path.

        A module's path is the model-level parameter name of its first
        parameter with the module-local name stripped, so spans carry exactly
        the prefixes ``named_parameters`` uses.
        """
        names = {id(p): name for name, p in named_parameters}
        self.roots.append(root)
        self.paths[id(root)] = root_path
        pending = [root]
        while pending:
            obj = pending.pop()
            for value in vars(obj).values():
                for child in value if isinstance(value, list) else (value,):
                    if not isinstance(child, MODULE_CLASSES):
                        continue
                    local_name, first = next(iter(child.named_parameters()))
                    full = names[id(first)]
                    self.paths[id(child)] = full[: len(full) - len(local_name)].rstrip(".")
                    pending.append(child)

    # -- wrappers -----------------------------------------------------------
    def _wrap_op(self, name, fn):
        spans, stack, clock, tensor_cls = self.spans, self.stack, time.perf_counter_ns, T.Tensor

        def op(*args, **kwargs):
            if self.in_op:
                return fn(*args, **kwargs)
            self.in_op = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.in_op = False
            t1 = clock()
            is_tensor = isinstance(out, tensor_cls)
            spans.append((OP, name, stack[-1], t0, t1,
                          out.data.nbytes if is_tensor else 0,
                          is_tensor and out.requires_grad))
            return out

        return op

    def _wrap_method(self, fn):
        spans, stack, clock, paths = self.spans, self.stack, time.perf_counter_ns, self.paths
        count_macs = T.count_macs

        def method(obj, *args, **kwargs):
            name = paths.get(id(obj))
            if name is None:
                if not isinstance(obj, backbone.UlMlpModel):
                    return fn(obj, *args, **kwargs)
                # models are built inside run_training; key them on first use
                self.register(obj, obj.named_parameters(), "backbone")
                name = "backbone"
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            rows = args[0].shape[0] if args and hasattr(args[0], "shape") else 0
            with count_macs() as counter:
                t0 = clock()
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[sid] = (MOD, name, parent, t0, t1, counter.total, rows)

        return method

    def _wrap_function(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def function(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                value = 0
                if name == "checkpoint.save" and args and os.path.exists(args[0]):
                    value = os.path.getsize(args[0])
                spans[sid] = (FN, name, parent, t0, t1, value, 0)

        return function

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every lmlp namespace that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lmlp" and not mod_name.startswith("lmlp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for name in _op_names():
            fn = getattr(T, name)
            self._rebind(fn, self._wrap_op(OP_ALIASES.get(name, name), fn))
        for cls, attr in MODULE_METHODS:
            fn = cls.__dict__[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap_method(fn))
        step = optim.AdamW.step
        self._patched.append((optim.AdamW, "step", step))
        optim.AdamW.step = self._wrap_function("optim.step", step)
        for module, fn_name, span_name in LAYER_FUNCTIONS:
            fn = getattr(module, fn_name)
            self._rebind(fn, self._wrap_function(span_name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        """One JSON array per span: id, kind, name, parent id, start_ns, end_ns,
        value (MACs, bytes or file size), then rows or the recorded flag."""
        with open(path, "w") as out:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    out.write(json.dumps([sid, *span]) + "\n")


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _block_part(name: str):
    """'blocks.<i>.<part>' -> part, 'blocks.<i>' -> '', else None."""
    parts = name.split(".")
    if parts[0] != "blocks":
        return None
    return parts[2] if len(parts) == 3 else ("" if len(parts) == 2 else None)


def _children(spans: list) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        if span is not None and span[0] != OP and span[2] >= 0:
            kids[span[2]].append(sid)
    return kids


def layer_metrics(spans: list, units: int) -> dict[str, float]:
    """Per-layer metrics from one trace, normalized per unit of work.

    ``units`` is the workload's unit (optimizer step, denoising step or grid
    pass). Checkpoint and dataset values are per call instead: they run once
    per set-up or per training run, not per unit.
    """
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    kids = _children(spans)
    for sid, span in enumerate(spans):
        if span is None:
            continue
        if span[0] == OP:
            _, name, _, t0, t1, nbytes, recorded = span
            totals[f"tensor.{name}.calls"] += 1
            totals[f"tensor.{name}.ms"] += (t1 - t0) * 1e-6
            totals["tensor.out_bytes"] += nbytes
            if name == "permute":
                totals["tensor.permute.bytes"] += nbytes
            totals["tensor.recorded_ops"] += recorded
            continue
        _, name, parent, t0, t1, value, rows = span
        dur_ms = (t1 - t0) * 1e-6
        self_ms = dur_ms - sum(spans[k][4] - spans[k][3] for k in kids[sid]) * 1e-6
        parent_name = spans[parent][1] if parent >= 0 else None
        part = _block_part(name)
        if part is not None and parent_name != name:
            if part == "":
                totals["blocks.self_ms"] += self_ms
            elif part in BLOCK_PARTS:
                totals[f"blocks.{part}.fwd_ms"] += dur_ms
                if part in BLOCK_MAC_PARTS:
                    totals[f"blocks.{part}.macs"] += value
        elif name in BACKBONE_PARTS and parent_name == "backbone":
            totals[f"backbone.{name}.fwd_ms"] += dur_ms
            if name in BACKBONE_MAC_PARTS:
                totals[f"backbone.{name}.macs"] += value
        elif name == "backbone":
            totals["backbone.forward.ms"] += dur_ms
            totals["backbone.forward.calls"] += 1
            totals["backbone.forward.rows"] += rows
            totals["backbone.self_ms"] += self_ms
        elif name in ("diffusion.training_loss", "diffusion.sample"):
            totals[f"{name}.self_ms"] += self_ms
        elif name == "optim.step":
            totals["optim.step.ms"] += dur_ms
        elif name in PER_CALL:
            calls[name] += 1
            totals[f"{name}.ms"] += dur_ms
            if name == "checkpoint.save":
                totals["checkpoint.save.bytes"] += value
    out = {}
    for name, total in totals.items():
        layer = name.rsplit(".", 1)[0] if name.endswith((".ms", ".bytes")) else None
        if layer in PER_CALL:
            out[name] = total / calls[layer]
        else:
            out[name] = total / max(units, 1)
    return out


def mac_checks(spans: list, expected: dict[str, int]) -> tuple[int, list[str]]:
    """Exact MAC attribution checks; returns (checks made, failure messages).

    * every backbone forward: the named modules' MACs (patch_embed,
      time_embed, head and each block's fnn_l, fnn_r, merge_proj, fnn_c) sum
      to the ``count_macs`` total around the forward;
    * every lateralized block: its four parts sum to the block's total;
    * every span named in ``expected``: its total equals the given count.
    """
    kids = _children(spans)
    made, failures = 0, []

    def part_sum(sid, parts):
        return sum(spans[k][5] for k in kids[sid]
                   if spans[k][1].rsplit(".", 1)[-1] in parts)

    for sid, span in enumerate(spans):
        if span is None or span[0] != MOD:
            continue
        name, total = span[1], span[5]
        if name == "backbone":
            found = part_sum(sid, BACKBONE_MAC_PARTS) + sum(
                part_sum(k, BLOCK_MAC_PARTS) for k in kids[sid]
                if _block_part(spans[k][1]) == "")
            made += 1
            if found != total:
                failures.append(f"backbone forward: modules sum to {found} MACs, "
                                f"count_macs total is {total}")
        elif _block_part(name) == "" and any(
                _block_part(spans[k][1]) in BLOCK_MAC_PARTS for k in kids[sid]):
            found = part_sum(sid, BLOCK_MAC_PARTS)
            made += 1
            if found != total:
                failures.append(f"{name}: parts sum to {found} MACs, block total {total}")
        if name in expected:
            made += 1
            if total != expected[name]:
                failures.append(f"{name}: {total} MACs, analytic {expected[name]}")
    return made, failures
