"""With two usable CPUs, ``run_all`` runs the C2BNVAE and Original rows in a
forked helper process while the parent balances the other six, and the
parent alone writes ``results/``. The parent balances its rows in
``ROWS`` order and offers each balanced set but its last (the CVAE row's)
through a file in a private temporary directory; the helper after its
own rows, and the parent after evaluating its last row,
claim offered sets one at a time, and whichever claims a set first
evaluates it. Every
outcome must be an inline run's: the same bytes under ``encoded/``,
``models/`` and ``results/`` under every output option, whichever process
claims which set, the same row texts, warnings and exit code when a row
fails, a row evaluated in the parent when its offer fails, an inline rerun
of every row the helper did not send back when it fails or is killed, no
temporary directory and no process left behind.

The in-process tests choose the mode by the CPU count ``run_all`` sees:
one usable CPU runs inline, two fork the helper. A monkeypatch made before
``run_all`` holds in the helper too, since it is forked; what it records
there stays in the helper.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from c2bnvae import dtree, experiment, model, optim
from c2bnvae.atomic import atomic_write
from c2bnvae.cli import main
from c2bnvae.experiment import ExperimentConfig, preprocess, run_all
from c2bnvae.metrics import EvalReport

import corpus

ROOT = Path(__file__).resolve().parents[1]
FAST = dict(epochs=3, lr=1e-3, batch_size=64, latent_dim=8, hidden_widths=[16, 16],
            smote_k=3, borderline_m=5, kmeans_clusters=3, max_depth=6)
PARENT = os.getpid()
# the last row the parent balances, which it evaluates itself
PARENT_LAST = "CVAE"


def in_helper() -> bool:
    return os.getpid() != PARENT


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    return corpus.write_corpus(tmp_path_factory.mktemp("corpus"))


def make_config(corpus_files, out_dir, **options) -> ExperimentConfig:
    train, test = corpus_files
    return ExperimentConfig(train_path=str(train), test_path=str(test),
                            out_dir=str(out_dir), seed=5, **FAST, **options)


def artifacts(out_dir) -> dict[str, bytes]:
    out_dir = Path(out_dir)
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for sub in ("encoded", "models", "results")
            for path in sorted((out_dir / sub).rglob("*")) if path.is_file()}


def run(config: ExperimentConfig, cpus: int, monkeypatch):
    """preprocess + run_all with ``cpus`` usable CPUs; returns the rows."""
    preprocess(config)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return run_all(config)


@pytest.fixture(scope="module")
def inline(corpus_files, tmp_path_factory):
    """A clean inline run: its rows and its artifacts."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        config = make_config(corpus_files, tmp_path_factory.mktemp("inline"))
        rows = run(config, 1, monkeypatch)
    return rows, artifacts(config.out_dir)


def count_starts(monkeypatch) -> list:
    """The processes started from here on, in a list."""
    started = []
    real_start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda self: (started.append(self), real_start(self))[1])
    return started


def count_parent_fits(monkeypatch) -> list:
    """The trees the parent fits from here on (the helper's own count stays
    in the helper), in a list."""
    fits = []
    real_fit = dtree.fit
    monkeypatch.setattr(dtree, "fit",
                        lambda *args: (fits.append(1), real_fit(*args))[1])
    return fits


@pytest.fixture
def handoff_dir(tmp_path, monkeypatch):
    """The directory the hand-off's temporary directory is made in."""
    path = tmp_path / "tmp"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def watch_hand_offs(monkeypatch, before=lambda path: None) -> list:
    """The hand-off files the parent writes from here on, in a list:
    datasets written anywhere but under an ``encoded`` or ``results``
    directory. ``before(path)`` runs before each is written."""
    handed = []
    real_save = experiment.save_dataset

    def save_dataset(dataset, path, **kwargs):
        if Path(path).parent.name not in ("encoded", "results"):
            handed.append(Path(path))
            before(path)
        real_save(dataset, path, **kwargs)

    monkeypatch.setattr(experiment, "save_dataset", save_dataset)
    return handed


def record_evaluations(monkeypatch, log: Path, before=lambda stage, log: None):
    """Record each row's evaluation stage, in either process, in the file
    ``log``; ``before(stage, log)`` runs before each is recorded and runs.
    Returns a function that reads the record: ``(process, row)`` pairs, in
    the order the stages started."""
    real_evaluate = experiment._evaluate

    def evaluate(stage, *args):
        before(stage, log)
        with open(log, "a") as fh:  # one short appended line: no interleaving
            fh.write(f"{'helper' if in_helper() else 'parent'}\t{stage.name}\n")
        return real_evaluate(stage, *args)

    monkeypatch.setattr(experiment, "_evaluate", evaluate)
    return lambda: [tuple(line.split("\t")) for line in log.read_text().splitlines()]


def wait_for(process: str, count: int):
    """A ``before`` for ``record_evaluations`` that holds the other process's
    evaluations until ``process`` has started ``count`` of them."""
    def before(stage, log):
        if ("helper" if in_helper() else "parent") == process:
            return
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and (
                not log.exists() or log.read_text().count(f"{process}\t") < count):
            time.sleep(0.01)
    return before


def count_saves(monkeypatch) -> list:
    """The checkpoints the parent saves from here on, by file name, in a list."""
    saved = []
    real_save = experiment.save_checkpoint
    monkeypatch.setattr(experiment, "save_checkpoint",
                        lambda ckpt, path, manifest: (saved.append(path.name),
                                                      real_save(ckpt, path, manifest)))
    return saved


def test_helper_run_writes_the_inline_bytes(corpus_files, tmp_path, monkeypatch, inline):
    config = make_config(corpus_files, tmp_path)
    started = count_starts(monkeypatch)
    rows = run(config, 2, monkeypatch)
    assert len(started) == 1  # the helper did run
    assert rows == inline[0]
    assert artifacts(tmp_path) == inline[1]
    assert len([name for name in inline[1] if name.startswith("models/")]) == 4


EVERY_OUTPUT = dict(save_balanced=True, emit_svg=True)


@pytest.fixture(scope="module", params=["csv", "binary"])
def inline_every_output(request, corpus_files, tmp_path_factory):
    """A clean inline run that writes every optional output, in each dataset
    format: the format, its rows and its artifacts."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        config = make_config(corpus_files, tmp_path_factory.mktemp("inline"),
                             dataset_format=request.param, **EVERY_OUTPUT)
        rows = run(config, 1, monkeypatch)
    return request.param, rows, artifacts(config.out_dir)


def test_helper_run_writes_the_inline_bytes_under_every_output_option(
        corpus_files, tmp_path, monkeypatch, inline_every_output, handoff_dir):
    dataset_format, rows, expected = inline_every_output
    out_dir = tmp_path / "out"
    config = make_config(corpus_files, out_dir, dataset_format=dataset_format,
                         **EVERY_OUTPUT)
    started = count_starts(monkeypatch)
    handed = watch_hand_offs(monkeypatch)
    assert run(config, 2, monkeypatch) == rows
    assert len(started) == 1
    assert artifacts(out_dir) == expected
    # the parent offered every set it balanced but its last, each in one
    # private directory that is gone again, and wrote nothing else under
    # the output directory
    assert len(handed) == len(experiment.ROWS) - len(experiment.HELPER_ROWS) - 1 == 5
    assert len({path.parent for path in handed}) == 1
    assert handed[0].parent.parent == handoff_dir
    assert list(handoff_dir.iterdir()) == []
    assert sorted(path.name for path in out_dir.iterdir()) == ["encoded", "models", "results"]
    # the helper's C2BNVAE row sent its balanced set back to be saved; the
    # binary sets are written in either format, the CSV export only in its own
    assert {"results/balanced_c2bnvae.c2ds", "results/chart.svg",
            "encoded/train.c2ds"} <= set(expected)
    assert ("encoded/train.csv" in expected) == (dataset_format == "csv")


def test_helper_writes_nothing_under_results(corpus_files, tmp_path, monkeypatch,
                                             inline_every_output):
    dataset_format, rows, expected = inline_every_output
    config = make_config(corpus_files, tmp_path, dataset_format=dataset_format,
                         **EVERY_OUTPUT)
    results = config.results_dir()
    real_replace = os.replace

    def replace(src, dst):  # the last step of every atomic write
        if in_helper() and Path(dst).parent == results:
            raise OSError(f"the helper wrote {dst}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    fits = count_parent_fits(monkeypatch)
    saved = count_saves(monkeypatch)
    evaluated = record_evaluations(monkeypatch, tmp_path / "evaluations.log")
    assert run(config, 2, monkeypatch) == rows
    assert artifacts(tmp_path) == expected
    # nothing ran twice: each row was evaluated once, in one process or the
    # other, the parent fitted at least its last row's tree, and it trained
    # only the CVAE generator, so no row was rerun
    assert sorted(name for _, name in evaluated()) == sorted(experiment.ROWS)
    assert ("parent", PARENT_LAST) in evaluated() and fits
    assert saved == ["cvae.ckpt"]


def test_training_that_raises_fails_the_row_as_inline(corpus_files, tmp_path, monkeypatch):
    real_train = model.train

    def train(dataset, config):
        if config.use_cbn:
            raise ValueError("generator broke")
        return real_train(dataset, config)

    monkeypatch.setattr(model, "train", train)
    outcomes = []
    for cpus in (1, 2):
        config = make_config(corpus_files, tmp_path / f"cpus{cpus}")
        path = tmp_path / f"config{cpus}.json"
        path.write_text(json.dumps(config.to_dict()))
        rows = run(config, cpus, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            code = main(["run-all", "--config", str(path)])
        outcomes.append((rows, code, artifacts(config.out_dir)))
    assert outcomes[0] == outcomes[1]
    rows, code, _ = outcomes[1]
    assert code == 0
    assert dict(rows)["C2BNVAE"] == "generator broke"
    assert all(isinstance(report, EvalReport) for name, report in rows if name != "C2BNVAE")


def test_unusable_models_dir_fails_the_generator_rows_as_inline(corpus_files, tmp_path,
                                                                monkeypatch):
    outcomes = []
    for cpus in (1, 2):
        config = make_config(corpus_files, tmp_path / f"cpus{cpus}")
        Path(config.out_dir).mkdir()
        config.models_dir().write_text("not a directory")
        rows = dict(run(config, cpus, monkeypatch))
        outcomes.append([rows[name].replace(config.out_dir, "OUT")
                         for name in ("CVAE", "C2BNVAE")])
    assert outcomes[0] == outcomes[1] == ["[Errno 17] File exists: 'OUT/models'"] * 2


# preprocess + run-all through the CLI with argv[2] usable CPUs, with a tree
# fit that raises for the original data; prints the exit codes and the
# processes left running
FAILING_ORIGINAL = """
import json
import multiprocessing
import os
import sys

from c2bnvae import dtree
from c2bnvae.cli import main
from c2bnvae.experiment import ExperimentConfig, load_encoded

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
codes = [main(["preprocess", "--config", sys.argv[1]])]
original = len(load_encoded(ExperimentConfig.from_json_file(sys.argv[1]))[0])
real_fit = dtree.fit


def fit(features, labels, params):
    if len(labels) == original:  # every balancing row adds rows
        raise ValueError("tree broke")
    return real_fit(features, labels, params)


dtree.fit = fit
codes.append(main(["run-all", "--config", sys.argv[1]]))
print(json.dumps({"codes": codes, "left": len(multiprocessing.active_children())}))
"""


def test_tree_that_raises_fails_the_original_row_as_inline(corpus_files, tmp_path):
    outcomes = []
    for cpus in (1, 2):
        config = make_config(corpus_files, tmp_path / f"cpus{cpus}")
        path = tmp_path / f"config{cpus}.json"
        path.write_text(json.dumps(config.to_dict()))
        done = subprocess.run([sys.executable, "-c", FAILING_ORIGINAL, str(path), str(cpus)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == {"codes": [0, 0],
                                                                    "left": 0}
        outcomes.append((done.stderr, artifacts(config.out_dir)))
    assert outcomes[0] == outcomes[1]
    # one warning, from the parent, whose rerun of the row failed as inline
    assert outcomes[1][0] == ("WARNING c2bnvae.experiment: algorithm Original "
                              "imbalanced Data failed: tree broke\n")
    assert "results/original_imbalanced_data.json" not in outcomes[1][1]


def test_row_whose_report_cannot_be_written_fails_once(corpus_files, tmp_path,
                                                      monkeypatch):
    real_write = experiment.write_atomic

    def write_atomic(path, data):
        if Path(path).name in ("smote.json", "c2bnvae.json"):
            raise OSError("disk full")
        real_write(path, data)

    monkeypatch.setattr(experiment, "write_atomic", write_atomic)
    outcomes = []
    for cpus in (1, 2):
        config = make_config(corpus_files, tmp_path / f"cpus{cpus}")
        rows = run(config, cpus, monkeypatch)
        outcomes.append((rows, artifacts(config.out_dir)))
    assert outcomes[0] == outcomes[1]
    rows = outcomes[1][0]
    assert [name for name, _ in rows] == list(experiment.ROWS)  # each row once
    assert dict(rows)["SMOTE"] == dict(rows)["C2BNVAE"] == "disk full"


def test_failed_helper_retrains_inline(corpus_files, tmp_path, monkeypatch, capfd, inline):
    real_train = model.train

    def train(dataset, config):
        if in_helper():
            raise MemoryError
        return real_train(dataset, config)

    monkeypatch.setattr(model, "train", train)
    config = make_config(corpus_files, tmp_path)
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(tmp_path) == inline[1]
    assert capfd.readouterr().err == ""  # the helper failed quietly


def test_helper_failing_after_its_checkpoint_retrains_inline(corpus_files, tmp_path,
                                                             monkeypatch, inline):
    # the helper trains and then fails writing the trace, which comes before
    # the checkpoint: it leaves no checkpoint, so the parent retrains
    real_write = experiment.write_trace_csv

    def write_trace_csv(trace, path, manifest):
        if in_helper():
            raise OSError("disk full")
        real_write(trace, path, manifest)

    monkeypatch.setattr(experiment, "write_trace_csv", write_trace_csv)
    config = make_config(corpus_files, tmp_path)
    saved = count_saves(monkeypatch)
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(tmp_path) == inline[1]
    assert saved == ["cvae.ckpt", "c2bnvae.ckpt"]  # retrained


def test_helper_failing_after_training_leaves_a_checkpoint_the_rerun_reuses(
        corpus_files, tmp_path, monkeypatch, inline):
    # the helper trains C2BNVAE, writes its trace and checkpoint, and then
    # its second tree fit (the original data's; the first is the C2BNVAE
    # row's) fails: the parent reruns both rows and reuses that checkpoint
    real_fit = dtree.fit
    helper_fits = []

    def fit(*args):
        if in_helper():
            helper_fits.append(1)
            if len(helper_fits) == 2:
                raise MemoryError
        return real_fit(*args)

    monkeypatch.setattr(dtree, "fit", fit)
    saved = count_saves(monkeypatch)
    config = make_config(corpus_files, tmp_path)
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(tmp_path) == inline[1]
    assert saved == ["cvae.ckpt"]  # the parent trained CVAE alone


def test_trace_that_cannot_be_written_leaves_no_checkpoint(corpus_files, tmp_path,
                                                           monkeypatch):
    real_write = experiment.write_trace_csv

    def write_trace_csv(trace, path, manifest):
        if Path(path).name == "c2bnvae_trace.csv":
            raise OSError("disk full")
        real_write(trace, path, manifest)

    monkeypatch.setattr(experiment, "write_trace_csv", write_trace_csv)
    config = make_config(corpus_files, tmp_path)
    rows = dict(run(config, 1, monkeypatch))
    assert rows["C2BNVAE"] == "disk full"
    # no C2BNVAE checkpoint that a later run would reuse without its trace
    assert sorted(path.name for path in config.models_dir().iterdir()) == [
        "cvae.ckpt", "cvae_trace.csv"]


def test_killed_helper_retrains_inline(corpus_files, tmp_path, monkeypatch, inline):
    real_step = optim.Adam.step
    steps = []

    def step(self):
        steps.append(1)
        if in_helper() and len(steps) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        real_step(self)

    monkeypatch.setattr(optim.Adam, "step", step)
    fits = count_parent_fits(monkeypatch)
    config = make_config(corpus_files, tmp_path)
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(tmp_path) == inline[1]
    # killed while training in its first row: the parent evaluated its six
    # rows, claiming every offered set itself, and reran both helper rows,
    # so it fitted every row's tree
    assert len(fits) == len(experiment.ROWS)
    assert multiprocessing.active_children() == []


def test_hand_off_to_an_ended_helper_fits_the_row_in_the_parent(
        corpus_files, tmp_path, monkeypatch, inline, handoff_dir):
    real_fit = dtree.fit

    def fit(*args):  # the helper is killed outright in its first row
        if in_helper():
            os.kill(os.getpid(), signal.SIGKILL)
        return real_fit(*args)

    monkeypatch.setattr(dtree, "fit", fit)
    started = count_starts(monkeypatch)
    # each offer waits until the helper has ended, so its send finds the
    # pipe broken
    handed = watch_hand_offs(monkeypatch, before=lambda path: started[0].join(60))
    fits = count_parent_fits(monkeypatch)
    config = make_config(corpus_files, tmp_path / "out")
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(config.out_dir) == inline[1]
    assert len(handed) == 5 and started[0].exitcode == -signal.SIGKILL
    # each of the parent's six rows evaluated at once, and both helper
    # rows' reruns
    assert len(fits) == len(experiment.ROWS)
    assert list(handoff_dir.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_hand_off_that_cannot_be_written_fits_the_row_in_the_parent(
        corpus_files, tmp_path, monkeypatch, inline, handoff_dir):
    def full(path):
        raise OSError(28, "No space left on device")

    handed = watch_hand_offs(monkeypatch, before=full)
    fits = count_parent_fits(monkeypatch)
    saved = count_saves(monkeypatch)
    config = make_config(corpus_files, tmp_path / "out")
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(config.out_dir) == inline[1]
    assert len(handed) == 5
    # every offer failed, so the parent evaluated each of its six rows at
    # once, and the helper, offered nothing, sent its own two rows
    assert len(fits) == 6
    assert saved == ["cvae.ckpt"]
    assert list(handoff_dir.iterdir()) == []


def test_generator_balance_that_raises_hands_nothing_off(corpus_files, tmp_path,
                                                         monkeypatch, handoff_dir):
    real_train = model.train

    def train(dataset, config):
        if not config.use_cbn:
            raise ValueError("generator broke")
        return real_train(dataset, config)

    monkeypatch.setattr(model, "train", train)
    outcomes = []
    for cpus in (1, 2):
        config = make_config(corpus_files, tmp_path / f"cpus{cpus}")
        handed = watch_hand_offs(monkeypatch)
        evaluated = record_evaluations(monkeypatch, tmp_path / f"evaluations{cpus}.log")
        rows = run(config, cpus, monkeypatch)
        outcomes.append((rows, artifacts(config.out_dir)))
    assert outcomes[0] == outcomes[1]
    assert dict(outcomes[1][0])["CVAE"] == "generator broke"
    # the CVAE row, whose balance stage raised, was neither offered nor
    # evaluated, and each other row was evaluated once
    assert sorted(path.stem for path in handed) == sorted(
        experiment._slug(name) for name in experiment.ROWS
        if name not in (*experiment.HELPER_ROWS, "CVAE", PARENT_LAST))
    assert sorted(name for _, name in evaluated()) == sorted(
        name for name in experiment.ROWS if name != "CVAE")
    assert list(handoff_dir.iterdir()) == []


def test_helper_failing_on_the_handed_off_row_reruns_every_row_it_held(
        corpus_files, tmp_path, monkeypatch, inline, handoff_dir):
    real_fit = dtree.fit
    helper_fits = []

    def fit(*args):  # the helper's third tree is the first set it claimed
        if in_helper():
            helper_fits.append(1)
            if len(helper_fits) == 3:
                raise MemoryError
        return real_fit(*args)

    monkeypatch.setattr(dtree, "fit", fit)
    handed = watch_hand_offs(monkeypatch)
    fits = count_parent_fits(monkeypatch)
    saved = count_saves(monkeypatch)
    # the parent evaluates nothing until the helper has claimed a set
    evaluated = record_evaluations(monkeypatch, tmp_path / "evaluations.log",
                                   before=wait_for("helper", 3))
    config = make_config(corpus_files, tmp_path / "out")
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(config.out_dir) == inline[1]
    assert len(handed) == 5
    claimed = [name for process, name in evaluated()
               if process == "helper" and name not in experiment.HELPER_ROWS]
    assert len(claimed) == 1
    # its last row and the four sets left to claim, then Original, C2BNVAE
    # and the claimed row again, each generator from the checkpoint it had
    # finished
    assert len(fits) == len(experiment.ROWS)
    assert sorted(name for process, name in evaluated() if process == "parent") == sorted(
        experiment.ROWS)
    assert saved == ["cvae.ckpt"]
    assert list(handoff_dir.iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("claimant", ["helper", "parent"])
def test_one_process_claims_every_offered_set(corpus_files, tmp_path, monkeypatch, inline,
                                              handoff_dir, claimant):
    # the other process evaluates nothing until the claimant has started
    # every row it can: the helper its own two and the five offered sets,
    # or the parent its last row and the same five
    offered = len(experiment.ROWS) - len(experiment.HELPER_ROWS) - 1
    own = len(experiment.HELPER_ROWS) if claimant == "helper" else 1
    evaluated = record_evaluations(monkeypatch, tmp_path / "evaluations.log",
                                   before=wait_for(claimant, own + offered))
    fits = count_parent_fits(monkeypatch)
    config = make_config(corpus_files, tmp_path / "out")
    assert run(config, 2, monkeypatch) == inline[0]
    assert artifacts(config.out_dir) == inline[1]
    # every row evaluated exactly once across the two processes, and the
    # parent fitted at least its last row's tree
    assert sorted(name for _, name in evaluated()) == sorted(experiment.ROWS)
    by = {process: sorted(name for p, name in evaluated() if p == process)
          for process in ("parent", "helper")}
    assert len(by[claimant]) == own + offered
    assert by["parent" if claimant == "helper" else "helper"] == sorted(
        [PARENT_LAST] if claimant == "helper" else experiment.HELPER_ROWS)
    assert len(fits) >= 1
    assert list(handoff_dir.iterdir()) == []


# preprocess + run-all -v through the CLI with two usable CPUs
VERBOSE = """
import os
import sys

from c2bnvae.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(main(["-v", "run-all", "--config", sys.argv[1]]))
"""
ROW_LINE = re.compile(r"INFO c2bnvae\.experiment: (.+): balanced in \d+\.\d{3} s, "
                      r"evaluated in the (parent|helper) in \d+\.\d{3} s")


def test_verbose_run_logs_each_row_and_writes_the_same_results(corpus_files, tmp_path,
                                                                inline):
    config = make_config(corpus_files, tmp_path / "out")
    preprocess(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    done = subprocess.run([sys.executable, "-c", VERBOSE, str(path)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    logged = [match.groups() for match in map(ROW_LINE.fullmatch, done.stderr.splitlines())
              if match]
    # one line per row, in ROWS order, naming the process that evaluated it
    assert [name for name, _ in logged] == list(experiment.ROWS)
    processes = dict(logged)
    assert [processes[name] for name in experiment.HELPER_ROWS] == ["helper", "helper"]
    assert processes[PARENT_LAST] == "parent"
    # the wall times went to the log alone
    results = {name: raw for name, raw in artifacts(config.out_dir).items()
               if name.startswith("results/")}
    assert results == {name: raw for name, raw in inline[1].items()
                       if name.startswith("results/")}


def test_no_process_outlives_run_all(corpus_files, tmp_path, monkeypatch):
    run(make_config(corpus_files, tmp_path / "ok"), 2, monkeypatch)
    assert multiprocessing.active_children() == []

    def fail(rows, config):  # after the helper was joined
        raise OSError("results are not writable")

    monkeypatch.setattr(experiment, "write_results", fail)
    with pytest.raises(OSError):
        run(make_config(corpus_files, tmp_path / "unwritable"), 2, monkeypatch)
    assert multiprocessing.active_children() == []


def test_interrupted_run_stops_the_helper_mid_write(corpus_files, tmp_path, monkeypatch,
                                                    capfd, handoff_dir):
    models = tmp_path / "models"

    real_save = experiment.save_checkpoint

    def save_checkpoint(ckpt, path, manifest):  # the helper stalls mid-write
        if not in_helper():  # only the helper stalls
            return real_save(ckpt, path, manifest)
        with atomic_write(path, "wb") as fh:
            fh.write(b"half a checkpoint")
            fh.flush()
            time.sleep(120)

    def interrupt(request, **settings):  # once the helper is writing
        deadline = time.monotonic() + 60
        while not list(models.glob(".c2bnvae.ckpt.*")) and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(experiment, "save_checkpoint", save_checkpoint)
    monkeypatch.setattr(experiment.bal, "smote", interrupt)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(make_config(corpus_files, tmp_path), 2, monkeypatch)
    assert time.monotonic() - started < 60  # terminated, not waited for
    assert multiprocessing.active_children() == []
    # the helper left its finished trace, removed the checkpoint's temporary
    # file, and said nothing; the parent, in ROWS order, had not reached the
    # CVAE generator
    assert sorted(path.name for path in models.iterdir()) == ["c2bnvae_trace.csv"]
    assert capfd.readouterr().err == ""
    assert list(handoff_dir.iterdir()) == []  # the sets offered before smote


# run_all with two usable CPUs, whose helper writes its pid and stalls
STALLED_HELPER = """
import os
import sys
import time
from pathlib import Path

from c2bnvae import experiment

parent = os.getpid()
real_train_generator = experiment.train_generator


def train_generator(config, train_set, use_cbn):
    if os.getpid() != parent:
        Path(sys.argv[2] + ".tmp").write_text(str(os.getpid()))
        os.replace(sys.argv[2] + ".tmp", sys.argv[2])
        time.sleep(120)
    return real_train_generator(config, train_set, use_cbn)


experiment.train_generator = train_generator
os.sched_getaffinity = lambda pid: {0, 1}
experiment.run_all(experiment.ExperimentConfig.from_json_file(sys.argv[1]))
"""


def running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has ended


def test_helper_ends_with_a_killed_parent(corpus_files, tmp_path):
    config = make_config(corpus_files, tmp_path / "out")
    preprocess(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    pid_file = tmp_path / "helper.pid"
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    parent = subprocess.Popen([sys.executable, "-c", STALLED_HELPER, str(path), str(pid_file)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                   "TMPDIR": str(scratch)})
    try:
        # kill once the helper has started and the parent has handed off
        deadline = time.monotonic() + 120
        while not (pid_file.exists() and list(scratch.glob("*/*.c2ds"))):
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        helper = int(pid_file.read_text())
        assert running(helper)
    finally:
        parent.kill()  # SIGKILL: run_all's own cleanup never runs
        parent.wait()
    deadline = time.monotonic() + 30
    while running(helper) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not running(helper)
    assert list(scratch.iterdir()) == []  # the helper removed the hand-off


def test_importing_the_cli_does_not_import_multiprocessing():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; import c2bnvae.cli; print('multiprocessing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# preprocess + run-all through the CLI, on one CPU when asked; prints whether
# multiprocessing was imported, which only the helper does
PIPELINE = """
import json
import os
import sys

if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from c2bnvae.cli import main

codes = [main(["preprocess", "--config", sys.argv[1]]),
         main(["run-all", "--config", sys.argv[1]])]
print(json.dumps({"codes": codes, "helper": "multiprocessing" in sys.modules}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the helper is forked only with two usable CPUs")
@pytest.mark.parametrize("seed, dataset_format", [(1, "csv"), (2, "binary")])
def test_pinned_and_unpinned_runs_write_the_same_bytes(corpus_files, tmp_path, seed,
                                                       dataset_format):
    outputs = []
    for mode in ("pinned", "unpinned"):
        config = make_config(corpus_files, tmp_path / mode)
        config.seed, config.dataset_format = seed, dataset_format
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(config.to_dict()))
        done = subprocess.run([sys.executable, "-c", PIPELINE, str(path), mode],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report == {"codes": [0, 0], "helper": mode == "unpinned"}
        outputs.append(artifacts(config.out_dir))
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs"
    assert {name.split("/")[0] for name in outputs[0]} == {"encoded", "models", "results"}
