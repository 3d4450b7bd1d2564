"""A fresh interpreter that imports lmlp and trains and samples in float32
never loads scipy.special; float64 GELU loads it when first called."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["after float32: []", "float64 gelu ok"]
