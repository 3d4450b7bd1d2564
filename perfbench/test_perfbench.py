"""Self-tests of the benchmark: a tiny run of every workload reports every
metric BENCHMARK.json names, with its unit; failures are counted; and the
command refuses to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import workloads  # noqa: E402
from lmlp import diffusion  # noqa: E402
from lmlp.tensor import Tensor  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(warmup_steps=2, timed_steps=12, loss_window=4, batch_size=8,
                       num_samples=64, embed_dim=16, depth=2, learning_rate=3e-3,
                       lr_warmup=1, sample_steps=2, ref_seq_len=12, ref_embed=64,
                       setup_repeats=1, min_ref_passes=2, probe_ref_passes=1)


def tiny_run(workload, trace, tmp_path):
    return workloads.run(workload, 3, 0.0, trace, ROOT, tmp_path, sizes=TINY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload, tmp_path):
    record = tiny_run(workload, False, tmp_path)
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    named = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: entry["unit"] for name, entry in record["metrics"].items()} == named
    assert all(entry["value"] > 0 for entry in record["metrics"].values())
    assert json.loads((tmp_path / f"{workload}-seed3-trace0.json").read_text())["correct"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_with_its_unit(workload, tmp_path):
    record = tiny_run(workload, True, tmp_path)
    assert record["failures"] == []
    assert record["mac_checks"]["made"] > 0 and record["mac_checks"]["failed"] == 0
    named = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: entry["unit"] for name, entry in record["metrics"].items()} == named
    assert record["metrics"]["tensor.matmul.calls"]["value"] > 0
    if workload == "train-desk":
        assert record["metrics"]["tensor.recorded_ops"]["value"] > 0
        assert record["metrics"]["optim.step.ms"]["value"] > 0
    if workload == "sample-guided":
        assert record["metrics"]["backbone.forward.calls"]["value"] == 2


def test_forced_failure_counts_in_failed_op_share(tmp_path, monkeypatch):
    original = diffusion.sample
    calls = []

    def drifting_sample(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        return Tensor(out.data + 1.0) if len(calls) == 2 else out

    monkeypatch.setattr(diffusion, "sample", drifting_sample)
    record = tiny_run("sample-guided", False, tmp_path)
    assert not record["correct"]
    assert record["failed"] == 1
    assert record["failed_op_share"] == 1 / record["attempted"]
    assert "differs from the first call" in record["failures"][0]


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(BENCH["command"] + ["--workload", "train-desk", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
