"""The benchmark's tracer (``bench/spans.py``) must still find every name it
wraps, and the training path and the experiment's row table must call
through the ones it times."""

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


# every row of the experiment's row table on a tiny 3-class dataset, after
# the tracer has wrapped ``balancers.<name>``; the generator rows train a
# tiny generator each into a temporary output directory
ROWS_SCRIPT = """
import json
import sys
import tempfile

import numpy as np

sys.path.insert(0, "bench")
import spans
from c2bnvae import balancers, experiment
from c2bnvae.nslkdd import EncodedDataset, synthetic_schema

tracer = spans.Tracer()
tracer.install()

rng = np.random.default_rng(0)
centers = np.repeat([[0.2] * 6, [0.5] * 6, [0.8] * 6], [40, 12, 8], axis=0)
data = EncodedDataset(features=np.clip(centers + rng.normal(0, 0.05, centers.shape), 0, 1),
                      labels=np.repeat([0, 1, 2], [40, 12, 8]),
                      schema=synthetic_schema(6))
with tempfile.TemporaryDirectory() as out_dir:
    config = experiment.ExperimentConfig(out_dir=out_dir, smote_k=3, borderline_m=5,
                                         kmeans_clusters=3, latent_dim=2,
                                         hidden_widths=(5, 5), epochs=1, batch_size=16)
    for name, entry in experiment.ROWS.items():
        if entry is not None:
            out = entry[0](balancers.BalanceRequest(data, seed=1), config)
            assert np.bincount(out.labels).tolist() == [40, 40, 40], name
calls = np.bincount(tracer.arrays()[1], minlength=len(tracer.names))
print(json.dumps({"problems": tracer.check(),
                  "calls": {name: int(calls[i]) for i, name in enumerate(tracer.names)}}))
"""


def run_traced(script: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["problems"] == []
    return report


def test_tracer_installs_and_times_the_training_step():
    report = run_traced(SCRIPT)
    steps = 2 * 3
    for name in TRAINING_SPANS:
        assert report["calls"][name] >= (1 if name == "model.train" else steps), name


def test_tracer_times_every_balancer_the_row_table_calls():
    report = run_traced(ROWS_SCRIPT)
    for method in ("random_oversample", "smote", "borderline_smote", "kmeans_smote",
                   "svm_smote", "generative_balance"):
        # one row per oversampler, two generator rows
        expected = 2 if method == "generative_balance" else 1
        assert report["calls"][f"balancers.{method}"] == expected, method
    # each generator row trains its own generator when it runs
    assert report["calls"]["model.train"] == 2
