"""Fresh interpreters: importing lmlp starts no thread, a float32 run never
loads scipy.special (float64 GELU loads it when first called), and large ops
split over two threads only when OpenBLAS runs on one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, *args, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()

SCRIPT = """
import math
import sys

import numpy as np

import lmlp, lmlp.cli, lmlp.train, lmlp.diffusion, lmlp.checkpoint
import lmlp.blocks, lmlp.complexity, lmlp.analysis
from lmlp import tensor as T
from lmlp.checkpoint import load_checkpoint, restore_model
from lmlp.config import RunConfig
from lmlp.diffusion import SamplerConfig, sample
from lmlp.train import run_training

config = RunConfig(image_side=8, embed_dim=8, depth=2, text_tokens=3, mlp_scale=2.0,
                   num_samples=8, train_steps=2, batch_size=2, warmup_steps=1,
                   checkpoint_every=2, out_dir=sys.argv[1])
result = run_training(config)
model = restore_model(load_checkpoint(result.final_checkpoint))
assert model.dtype == np.float32
images = sample(model, np.array([[1, 2, 3]]), config.noise_schedule(),
                SamplerConfig(num_steps=1), 1.0, rng_seed=0)
assert images.data.dtype == np.float32
print("after float32:", sorted(m for m in sys.modules if m.startswith("scipy.special")))

x = np.linspace(-3.0, 3.0, 13)
out = T.gelu(T.Tensor(x)).data
from scipy import special
assert np.array_equal(out, x * (0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))))
print("float64 gelu ok")
"""


def test_float32_runs_never_load_scipy_special(tmp_path):
    assert run_python(SCRIPT, str(tmp_path / "run")) == ["after float32: []",
                                                         "float64 gelu ok"]


def test_import_starts_no_thread():
    lines = run_python("import sys, threading; import lmlp, lmlp.cli; "
                       "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    assert lines == ["1 False"]


SPLIT_PROBE = """
import os
from lmlp import tensor as T
print(T._blas_thread_query() is not None, len(os.sched_getaffinity(0)) >= 2,
      T._second_core_free())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
@pytest.mark.parametrize("blas_threads, splits", [("1", "True"), ("2", "False")])
def test_large_ops_split_only_with_single_threaded_blas(blas_threads, splits):
    [line] = run_python(SPLIT_PROBE, OPENBLAS_NUM_THREADS=blas_threads)
    query_found, two_cpus, free = line.split()
    if query_found == "False":
        pytest.skip("numpy's OpenBLAS exports no thread-count query")
    if two_cpus == "False":
        pytest.skip("fewer than two CPUs")
    assert free == splits
