"""The benchmark's tracer (``bench/spans.py``) must still find every name it
wraps, and the training path must call through the ones it times."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

import numpy as np

sys.path.insert(0, "bench")
import spans
from c2bnvae import model

tracer = spans.Tracer()
tracer.install()


class Data:
    features = np.random.default_rng(0).random((40, 6))
    labels = np.arange(40) % 3
    schema = None


config = model.ModelConfig(feature_dim=6, num_classes=3, latent_dim=2,
                           hidden_widths=(5, 5), epochs=2, batch_size=16)
model.train(Data(), config)
calls = np.bincount(tracer.arrays()[1], minlength=len(tracer.names))
print(json.dumps({"problems": tracer.check(),
                  "calls": {name: int(calls[i]) for i, name in enumerate(tracer.names)}}))
"""

# spans the training step reaches: 2 epochs x 3 batches of a 40-row set
TRAINING_SPANS = ("model.train", "model.encode", "model.decode", "model.reparameterize_t",
                  "nn.Linear", "nn.leaky_relu", "nn.CondBatchNorm1d", "nn.one_hot",
                  "losses.mse_loss", "losses.kl_gaussian", "optim.Adam.step")


def test_tracer_installs_and_times_the_training_step():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["problems"] == []
    steps = 2 * 3
    for name in TRAINING_SPANS:
        assert report["calls"][name] >= (1 if name == "model.train" else steps), name
