"""A traced pipeline run yields every per-layer metric ``BENCHMARK.json``
declares, each a finite number, and every declared span fires, so the
benchmark's last line stays strict JSON with nothing missing or dead.

The tracer (``bench/spans.py``) replaces functions on the attributes the
pipeline looks them up through. If a change reaches one of them another way,
its span never fires, and ``bench/run.py`` drops that metric from its result
line; a NaN reading would print as a bare ``NaN``. Both show up here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# preprocess + run-all through the CLI on a small corpus, with the tracer
# installed the way bench/pipeline.py installs it, and two usable CPUs
# whatever the host has, so that the forked helper runs its rows (and
# records no span) on every host
SCRIPT = """
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "bench")
sys.path.insert(0, "tests")
import corpus
import spans
from c2bnvae import cli

os.sched_getaffinity = lambda pid: {0, 1}
tracer = spans.Tracer()
tracer.install()
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    train, test = corpus.write_corpus(
        root, seed=3, train_mix={k: max(2, v // 4) for k, v in corpus.TRAIN_MIX.items()},
        test_mix={k: max(2, v // 4) for k, v in corpus.TEST_MIX.items()})
    config = root / "config.json"
    config.write_text(json.dumps({
        "train_path": str(train), "test_path": str(test), "out_dir": str(root / "out"),
        "seed": 3, "epochs": 2, "batch_size": 32, "lr": 2e-3, "latent_dim": 4,
        "hidden_widths": [8, 8], "max_depth": 4, "smote_k": 1, "borderline_m": 3,
        "kmeans_clusters": 2, "dataset_format": "csv"}))
    codes = [tracer.span("cli.preprocess", cli.main)(["preprocess", "--config", str(config)]),
             tracer.span("cli.run_all", cli.main)(["run-all", "--config", str(config)])]
metrics = {name: value for name, (value, _) in tracer.layer_metrics().items()}
print(json.dumps({"codes": codes, "problems": tracer.check(), "metrics": metrics,
                  "helper": "multiprocessing" in sys.modules}))
"""

# the benchmark computes this one from traced and untraced wall times
DERIVED = {"trace.overhead_pct"}
# spans the pipeline no longer reaches (ROADMAP item 1): they read 0
DEAD = {"autodiff.backward", "optim.Adam.zero_grad", "dtree.best_split"}


def reject(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def test_traced_pipeline_yields_every_declared_metric():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # the benchmark's result line is read by a parser that rejects NaN and
    # infinities, so this one is too
    report = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=reject)
    assert report["codes"] == [0, 0]
    assert report["helper"]  # only the helper imports multiprocessing
    assert report["problems"] == []
    metrics = report["metrics"]
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in declared if name not in DERIVED | metrics.keys()] == []
    assert all(isinstance(value, (int, float)) for value in metrics.values())
    # a span that never fires still reads 0 s, so count its calls
    silent = [name for name in declared if name.endswith(".s")
              and name[:-2] not in DEAD and not metrics.get(f"{name[:-2]}.calls")]
    assert silent == []
    assert metrics["optim.Adam.step.calls"] == metrics["model.train.steps"] > 0
