"""End-to-end and per-layer benchmark of the c2bnvae balancing pipeline.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The workload's corpus is written by
``tests/corpus.py::write_corpus`` with its class mix scaled, both the corpus
seed and the pipeline's master seed come from ``--seed``, and each
repetition of ``preprocess`` + ``run-all`` runs in a fresh process
(``pipeline.py``) on a fresh, empty output directory, so that set-up time,
peak RSS and generator training belong to that repetition. Repetitions run
one at a time with BLAS pinned to one thread. Repetitions are added until
the next one would pass ``--seconds``; before each untraced one, probe
processes time the import and ``preprocess`` alone.

``--trace 0`` reports the end-to-end metrics (see ``README.md``).
``--trace 1`` alternates untraced and traced repetitions, reports per-layer
metrics from the traced ones (``spans.py``) and the tracing overhead.

Every repetition is checked: every CLI exit code is 0, all eight result
rows are reports whose confusion matrices cover the test split, and the
sha256 of ``results/`` equals that of the first repetition of this workload
and seed in this checkout. The last line of standard output is one JSON
object: ``correct``, ``attempted`` (result rows), ``failed`` and ``metrics``.
Scratch files live under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

ROWS = 8  # result rows per pipeline: original, five oversamplers, CVAE, C2BNVAE
TIME_LIMIT_S = 165.0  # the whole invocation must end within 180 s
PROBES = 2  # processes that time set-up and preprocess, before each repetition

# Each optimisation the ROADMAP names is exercised by one workload and left
# flat by the other: desk-train is generator training at batch 32 (fixed
# per-step costs, CSV datasets, shallow trees on ~3k rows); scale-sweep is
# the published generator shape at batch 128 for two epochs, with
# 12-deep trees on ~10k balanced rows and SVM-SMOTE on a 3x corpus.
WORKLOADS = {
    "desk-train": {
        "scale": 1,
        "config": {"epochs": 30, "lr": 2e-3, "batch_size": 32, "kl_weight": 5e-4,
                   "latent_dim": 8, "max_depth": 7, "dataset_format": "csv"},
    },
    "scale-sweep": {
        "scale": 3,
        "config": {"epochs": 2, "batch_size": 128, "latent_dim": 32,
                   "hidden_widths": [60, 60, 60, 60], "kl_weight": 0.008,
                   "max_depth": 12, "dataset_format": "binary"},
    },
}

# published setting: 125,973 training rows, batch 128, 120 epochs, two generators
PUBLISHED_STEPS = 2 * 120 * -(-125_973 // 128)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(f"{path.relative_to(directory).as_posix()}\0{sha256_file(path)}\n".encode())
    return h.hexdigest()


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing; it declares the metrics")
    return json.loads(path.read_text())


def load_corpus_module():
    path = ROOT / "tests" / "corpus.py"
    if not path.is_file() or not (ROOT / "src" / "c2bnvae" / "cli.py").is_file():
        raise BenchError(f"{ROOT} holds no c2bnvae checkout (src/ and tests/corpus.py)")
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = ROOT / "src" / "c2bnvae"
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "src_sha256": tree_digest(src),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "workload": workload,
        "scale": WORKLOADS[workload]["scale"],
        "seed": seed,
    }


class Run:
    """One invocation: corpus, repetitions, checks and the digest record."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.problems: list[str] = []
        self.failed_rows = 0
        self.attempted_rows = 0
        self.reference_digest: str | None = None
        # bytecode is cached as it is for a user, so set-up is a warm import
        self.child_env = {k: v for k, v in os.environ.items()
                          if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}

    def write_corpus(self, corpus) -> dict:
        scale = self.spec["scale"]
        train_mix = {k: v * scale for k, v in corpus.TRAIN_MIX.items()}
        test_mix = {k: v * scale for k, v in corpus.TEST_MIX.items()}
        data = self.dir / "corpus"
        data.mkdir(parents=True)
        self.train_path, self.test_path = corpus.write_corpus(
            data, seed=self.seed, train_mix=train_mix, test_mix=test_mix)
        self.train_rows = sum(train_mix.values())
        self.test_rows = sum(test_mix.values())
        return {"train_rows": self.train_rows, "test_rows": self.test_rows,
                "train_sha256": sha256_file(self.train_path),
                "test_sha256": sha256_file(self.test_path)}

    def child(self, mode: str, tag: str, trace: bool = False,
              config: Path | None = None) -> dict | None:
        rep = self.dir / tag
        rep.mkdir(parents=True, exist_ok=True)
        request = {"root": str(ROOT), "mode": mode, "trace": trace,
                   "config": str(config) if config else None,
                   "out": str(rep / "result.json")}
        timeout = TIME_LIMIT_S - (time.monotonic() - self.started)
        with open(rep / "log.txt", "w") as log:
            request["spawned_at"] = time.monotonic()
            (rep / "request.json").write_text(json.dumps(request))
            proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "pipeline.py"),
                                     str(rep / "request.json")],
                                    stdout=log, stderr=subprocess.STDOUT,
                                    env=self.child_env, cwd=str(rep))
            try:
                code = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        if code != 0:
            tail = (rep / "log.txt").read_text()[-2000:]
            self.problems.append(f"{tag}: process exited with {code}")
            print(f"{tag} failed ({code}):\n{tail}", file=sys.stderr)
            return None
        return json.loads((rep / "result.json").read_text())

    def write_config(self, tag: str) -> Path:
        out_dir = self.dir / tag / "out"  # fresh and empty: no checkpoint reuse
        config = {"train_path": str(self.train_path), "test_path": str(self.test_path),
                  "out_dir": str(out_dir), "seed": self.seed, **self.spec["config"]}
        path = self.dir / f"{tag}.json"
        path.write_text(json.dumps(config))
        return path

    def probe(self, tag: str) -> dict | None:
        result = self.child("probe", tag, config=self.write_config(tag))
        if result is not None and any(result["exit_codes"]):
            self.problems.append(f"{tag}: preprocess exit codes {result['exit_codes']}")
        return result

    def pipeline(self, index: int, trace: bool) -> dict | None:
        tag = f"rep{index}"
        out_dir = self.dir / tag / "out"
        self.attempted_rows += ROWS
        result = self.child("pipeline", tag, trace=trace, config=self.write_config(tag))
        if result is None or not self.check(tag, result, out_dir):
            self.failed_rows += result["failed_rows"] if result else ROWS
        shutil.rmtree(out_dir, ignore_errors=True)
        return result  # a repetition that failed a check still has timings

    def check(self, tag: str, result: dict, out_dir: Path) -> bool:
        """Correctness of one repetition's outputs; fills the F1 fields."""
        problems = []  # any of these fails every row of the repetition
        if any(result["exit_codes"]):
            problems.append(f"CLI exit codes {result['exit_codes']}")
        results_dir = out_dir / "results"
        f1: dict[str, float] = {}
        try:
            chart = results_dir / "chart_data.csv"
            if chart.is_file():
                rows = csv.reader(chart.read_text().splitlines()[1:])
                next(rows, None)
                f1 = {name: float(value) for name, metric, value in rows
                      if metric == "F1_w"}
            for report in sorted(results_dir.glob("*.json")):
                payload = json.loads(report.read_text())
                if "confusion_matrix" in payload:
                    total = sum(map(sum, payload["confusion_matrix"]))
                    if total != self.test_rows:
                        problems.append(f"{report.name}: confusion matrix covers "
                                        f"{total} of {self.test_rows} test rows")
        except (ValueError, TypeError) as exc:
            problems.append(f"unreadable results: {exc}")
        result["rows_ok"] = len(f1)
        for name, value in f1.items():
            if not 0.0 < value <= 100.0:
                problems.append(f"{name}: weighted F1 {value} outside (0, 100]")
        result["f1_c2bnvae"] = f1.get("C2BNVAE", 0.0)
        result["f1_mean"] = sum(f1.values()) / ROWS
        if result.get("trace_problems"):
            problems += [f"trace: {p}" for p in result["trace_problems"]]
        if results_dir.is_dir():
            digest = tree_digest(results_dir)
            result["results_sha256"] = digest
            if self.reference_digest is None:
                self.reference_digest = digest
            elif digest != self.reference_digest:
                problems.append(f"results/ sha256 {digest[:12]} differs from the "
                                f"first run's {self.reference_digest[:12]}")
        else:
            problems.append("no results/ directory")
        result["failed_rows"] = ROWS if problems else ROWS - len(f1)
        if len(f1) != ROWS:
            problems.append(f"{ROWS - len(f1)} of {ROWS} result rows failed")
        self.problems += [f"{tag}: {p}" for p in problems]
        return not problems

    def load_reference(self, corpus_record: dict) -> None:
        """The first run of this workload and seed in this checkout fixes
        the expected results digest; later runs must reproduce it."""
        path = WORK / "digests" / f"{self.workload}-seed{self.seed}.json"
        self.digest_path = path
        if path.is_file():
            record = json.loads(path.read_text())
            if record["corpus"] == corpus_record:
                self.reference_digest = record["results_sha256"]

    def save_reference(self, corpus_record: dict) -> None:
        if self.reference_digest is None or self.digest_path.is_file():
            return
        self.digest_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.digest_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps({"corpus": corpus_record,
                                   "results_sha256": self.reference_digest}))
        os.replace(tmp, self.digest_path)

    def measure(self, seconds: float, trace: bool) -> dict:
        self.started = time.monotonic()
        spec = load_spec()
        corpus = self.write_corpus(load_corpus_module())
        env = environment(self.workload, self.seed)
        env["corpus"] = corpus
        self.load_reference(corpus)

        # compiles bytecode and fills the page cache; not measured
        self.child("probe", "warmup", config=self.write_config("warmup"))
        probes: list[dict] = []
        reps: list[tuple[bool, dict | None]] = []
        walls: list[float] = []
        begin = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            t0 = time.monotonic()
            if not trace:
                probes += [self.probe(f"probe{len(reps)}.{i}") for i in range(PROBES)]
            reps.append((traced, self.pipeline(len(reps), traced)))
            walls.append(time.monotonic() - t0)
            now = time.monotonic()
            typical = statistics.median(walls)
            if now - self.started + typical > TIME_LIMIT_S:
                break
            if now - begin + typical > seconds and not (trace and len(reps) < 2):
                break
        self.save_reference(corpus)

        plain = [r for traced, r in reps if not traced and r is not None]
        traced_reps = [r for traced, r in reps if traced and r is not None]
        env["repetitions"] = len(reps)
        env["blas_threads_seen"] = sorted({r["blas_threads"] for _, r in reps if r})
        env["results_sha256"] = self.reference_digest
        if trace:
            env["spans_per_traced_repetition"] = traced_reps[0]["spans"] if traced_reps else 0
        if not plain or (trace and not traced_reps):
            raise BenchError("no repetition ran to the end: " + "; ".join(self.problems))
        if trace:
            metrics, table = self.layer_metrics(spec["per_layer"], plain, traced_reps)
        else:
            metrics, table = self.end_to_end(spec["end_to_end"], plain,
                                             [p for p in probes if p is not None])
        return {"env": env, "metrics": metrics, "table": table}

    def end_to_end(self, declared: list[dict], reps: list[dict], probes: list[dict]):
        def med(key):
            return statistics.median(r[key] for r in reps)

        setups = [r["setup_s"] for r in probes + reps]
        # preprocess samples are short and come in bursts; their mean, unlike
        # a median, does not jump between the host's fast and slow phases
        preprocess = [t for r in probes + reps for t in r["preprocess_s"]]
        values = {"setup_s": statistics.median(setups), "pipeline_s": med("pipeline_s"),
                  "preprocess_s": statistics.fmean(preprocess),
                  "peak_rss_mb": med("peak_rss_mb"),
                  "rows_ok": min(r["rows_ok"] for r in reps),
                  "f1_c2bnvae": reps[0]["f1_c2bnvae"], "f1_mean": reps[0]["f1_mean"]}
        samples = {"setup_s": len(setups), "preprocess_s": len(preprocess),
                   "rows_ok": len(reps) * ROWS}
        metrics, table = {}, []
        for entry in declared:
            name = entry["name"]
            metrics[name] = {"value": values[name], "unit": entry["unit"]}
            table.append((name, values[name], entry["unit"], entry["better"],
                          samples.get(name, len(reps))))
        return metrics, table

    def layer_metrics(self, declared: list[dict], plain: list[dict], traced: list[dict]):
        untraced_s = statistics.median(r["pipeline_s"] for r in plain)
        traced_s = statistics.median(r["pipeline_s"] for r in traced)
        derived = {"trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s,
                                          len(plain) + len(traced))}
        metrics, table = {}, []
        for entry in declared:
            name = entry["name"]
            if name in derived:
                value, samples = derived[name]
            else:
                if name not in traced[0]["layers"]:
                    self.problems.append(f"trace: no span or counter for {name}")
                    continue
                value = statistics.median(r["layers"][name][0] for r in traced)
                samples = traced[0]["layers"][name][1]
            metrics[name] = {"value": value, "unit": entry["unit"]}
            table.append((name, value, entry["unit"], entry["better"], samples))
        ms = metrics.get("model.train.ms_per_step", {}).get("value")
        table.append(("(untraced pipeline_s)", untraced_s, "s", "lower", len(plain)))
        table.append(("(traced pipeline_s)", traced_s, "s", "lower", len(traced)))
        if ms is not None and self.spec["config"]["batch_size"] == 128:
            # both generators' steps at the published setting, per measured step
            table.append(("(published-scale training, projected)",
                          PUBLISHED_STEPS * ms / 60e3, "min", "lower",
                          PUBLISHED_STEPS))
        return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed)
    try:
        out = run.measure(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    for problem in run.problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"{'metric':<40} {'value':>14} {'unit':<6} {'better':<7} samples")
    for name, value, unit, better, samples in out["table"]:
        print(f"{name:<40} {value:>14.6g} {unit:<6} {better:<7} {samples}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted_rows,
                      "failed": run.failed_rows, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
