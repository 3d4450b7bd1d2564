"""Fresh interpreters: importing lmlp starts no thread, a float32 run never
loads scipy.special (float64 GELU loads it when first called), and large ops
split, and guided sampling runs its two forwards, over two threads only when
OpenBLAS runs on one."""

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


# The last two fields: whether a float32 layer norm of A3's gate half at the
# reference point (L=334, 2048 channels) started the worker thread, and
# whether it runs after an 8-head attention at L=334, D=512.
SPLIT_PROBE = """
import os
import numpy as np
from lmlp import tensor as T
rng = np.random.default_rng(0)
x = T.Tensor(rng.standard_normal((1, 334, 2048)).astype(np.float32))
T.layer_norm(x, T.Tensor(np.ones(2048, np.float32)), T.Tensor(np.zeros(2048, np.float32)))
norm_split = T._worker is not None
q = T.Tensor(rng.standard_normal((1, 334, 512)).astype(np.float32))
T.attention(q, q, q, 8)
print(T._blas_thread_query() is not None, len(os.sched_getaffinity(0)) >= 2,
      T._second_core_free(), norm_split, T._worker is not None)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
@pytest.mark.parametrize("blas_threads, splits", [("1", "True"), ("2", "False")])
def test_large_ops_split_only_with_single_threaded_blas(blas_threads, splits):
    [line] = run_python(SPLIT_PROBE, OPENBLAS_NUM_THREADS=blas_threads)
    query_found, two_cpus, free, norm_split, attention_split = line.split()
    if query_found == "False":
        pytest.skip("numpy's OpenBLAS exports no thread-count query")
    if two_cpus == "False":
        pytest.skip("fewer than two CPUs")
    assert free == splits
    assert norm_split == splits
    assert attention_split == splits


# Whether a guided desk sample (F2, 30 captions, 3 steps) started the worker
# thread, and the SHA-256 of the images.
GUIDED_PROBE = """
import hashlib, os
import numpy as np
from lmlp import dataset, tensor as T
from lmlp.backbone import build_model
from lmlp.config import RunConfig
from lmlp.diffusion import SamplerConfig, sample
config = RunConfig()
model = build_model(config.backbone_config(), 1, dtype=np.float32)
ids = np.arange(30 * 4).reshape(30, 4) % (dataset.VOCAB_SIZE - 1) + 1
out = sample(model, ids, config.noise_schedule(), SamplerConfig(3), 1.0, 1).data
print(T._blas_thread_query() is not None, len(os.sched_getaffinity(0)) >= 2,
      T._worker is not None, hashlib.sha256(out.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
def test_guided_sample_uses_the_worker_only_with_single_threaded_blas():
    """The unforced path: with OpenBLAS on one thread the unconditional
    forwards run on the worker, and the images are those of a run with
    OpenBLAS on two threads, which runs both forwards on the calling thread."""
    runs = {threads: run_python(GUIDED_PROBE, OPENBLAS_NUM_THREADS=threads)[0].split()
            for threads in ("1", "2")}
    query_found, two_cpus, _, _ = runs["1"]
    if query_found == "False":
        pytest.skip("numpy's OpenBLAS exports no thread-count query")
    if two_cpus == "False":
        pytest.skip("fewer than two CPUs")
    assert runs["1"][2] == "True" and runs["2"][2] == "False"
    assert runs["1"][3] == runs["2"][3]
