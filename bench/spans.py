"""Timing spans around the public functions of each c2bnvae module.

A ``Tracer`` replaces a function on the attribute its caller looks it up
through (``experiment.read_records`` is imported by name, ``dtree.fit`` is
reached through its module, ``Linear.__call__`` through the class) with a
wrapper that records one span: name, parent span, start and end. Spans stay
in memory and are reduced once the run ends. A layer's self time is its
span's duration minus the time its child spans cover; the pipeline is
single-threaded, so children never overlap and no layer waits on another.

Counters are taken at the same boundaries, after the span has closed, from
the call's arguments and result only. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

BALANCERS = ("random_oversample", "smote", "borderline_smote", "kmeans_smote",
             "svm_smote", "generative_balance")


def train_steps(dataset, config) -> int:
    """Optimizer steps ``model.train`` takes: singleton batches are skipped."""
    n, b = len(dataset.labels), config.batch_size
    return config.epochs * (n // b + (1 if n % b >= 2 else 0))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self.trees: list = []

    # ------------------------------------------------------------------
    def span(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records a span ``name``;
        ``count(tracer, args, kwargs, result)`` runs after the span closes."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_index[name]
        parent, names, start, end, open_ = (self.parent, self.name, self.start,
                                            self.end, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(open_[-1] if open_ else -1)
            names.append(name_id)
            end.append(0.0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), count))

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced layer of an imported ``c2bnvae``."""
        from c2bnvae import autodiff, balancers, cli, dtree, experiment
        from c2bnvae import model, nn, optim

        def file_bytes(key):
            # the pipeline passes the destination path second, positionally
            return lambda tr, a, k, r: tr.add(key, os.path.getsize(a[1]))

        # nslkdd, as experiment imported it
        self.wrap(experiment, "read_records", "nslkdd.read_records",
                  lambda tr, a, k, r: tr.add("nslkdd.read_records.records", len(r)))
        self.wrap(experiment, "fit_schema", "nslkdd.fit_schema")
        self.wrap(experiment, "transform", "nslkdd.transform")
        self.wrap(experiment, "save_dataset", "nslkdd.save_dataset",
                  file_bytes("nslkdd.save_dataset.bytes"))
        self.wrap(experiment, "load_dataset", "nslkdd.load_dataset")

        # the training stack
        self.wrap(model, "train", "model.train",
                  lambda tr, a, k, r: tr.add("model.train.steps",
                                             train_steps(a[0], a[1])))
        self.wrap(model.C2BNVAE, "encode", "model.encode")
        self.wrap(model.C2BNVAE, "decode", "model.decode")
        self.wrap(model, "reparameterize_t", "model.reparameterize_t")
        self.wrap(nn.Linear, "__call__", "nn.Linear")
        self.wrap(model, "leaky_relu", "nn.leaky_relu")
        # BatchNorm1d reaches this through super().__call__
        self.wrap(nn.CondBatchNorm1d, "__call__", "nn.CondBatchNorm1d")
        self.wrap(model, "one_hot", "nn.one_hot")
        self.wrap(model, "mse_loss", "losses.mse_loss")
        self.wrap(model, "kl_gaussian", "losses.kl_gaussian")
        self.wrap(autodiff.Tensor, "backward", "autodiff.backward")
        self.wrap(optim.Adam, "step", "optim.Adam.step")
        self.wrap(optim.Adam, "zero_grad", "optim.Adam.zero_grad")
        self.wrap(experiment, "save_checkpoint", "checkpoint.save_checkpoint",
                  file_bytes("checkpoint.save_checkpoint.bytes"))

        # balancers, reached through their module
        for method in BALANCERS:
            key = f"balancers.{method}.synthetic_rows"
            self.wrap(balancers, method, f"balancers.{method}",
                      lambda tr, a, k, r, key=key: tr.add(
                          key, len(r.labels) - len(a[0].dataset.labels)))
        self.wrap(model, "generate", "model.generate",
                  lambda tr, a, k, r: tr.add("model.generate.rows", len(r)))

        # the classifier
        def fitted(tr, args, kwargs, tree):
            tr.add("dtree.fit.rows", len(args[1]))  # args: features, labels, params
            tr.trees.append(tree)

        self.wrap(dtree, "fit", "dtree.fit", fitted)
        self.wrap(dtree, "best_split", "dtree.best_split",
                  lambda tr, a, k, r: tr.add("dtree.best_split.found", r is not None))
        self.wrap(dtree, "predict", "dtree.predict")

        # orchestration, as cli imported it
        self.wrap(cli, "preprocess", "experiment.preprocess")
        self.wrap(cli, "run_all", "experiment.run_all")
        self.wrap(experiment, "write_results", "experiment.write_results")

    # ------------------------------------------------------------------
    def arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return parent, name, start, end

    def self_times(self) -> np.ndarray:
        parent, _, start, end = self.arrays()
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return duration - child

    def check(self) -> list[str]:
        """Structural checks on the recorded spans; returns the problems."""
        if self._open:
            return [f"{len(self._open)} spans were never closed"]
        parent, _, start, end = self.arrays()
        problems = []
        ids = np.arange(len(parent))
        has_parent = parent >= 0
        if np.any(parent[has_parent] >= ids[has_parent]):
            problems.append("a span names a parent that started after it")
        p = parent[has_parent]
        if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
            problems.append("a span lies outside its parent's interval")
        if np.any(end < start):
            problems.append("a span ends before it starts")
        self_t = self.self_times()
        # children of one parent run one after another, so no self time is
        # negative and each root's subtree self times add up to the root
        if np.any(self_t < -1e-9):
            problems.append("child spans overlap: a negative self time")
        roots = ~has_parent
        total_root = float(np.sum(end[roots] - start[roots]))
        if abs(float(np.sum(self_t)) - total_root) > 1e-6 * max(1.0, total_root):
            problems.append("self times do not add up to the root spans")
        return problems

    def layer_metrics(self) -> dict[str, tuple[float, int]]:
        """Per-layer ``name -> (value, samples)``; seconds are self time,
        except ``model.train.s``, which is inclusive beside ``self_s``."""
        _, name, start, end = self.arrays()
        n_names = len(self.names)
        self_s = np.bincount(name, weights=self.self_times(), minlength=n_names)
        total_s = np.bincount(name, weights=end - start, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        idx = self._name_index
        out: dict[str, tuple[float, int]] = {}
        for span_name in self.names:
            i = idx[span_name]
            out[f"{span_name}.s"] = (float(self_s[i]), int(calls[i]))
            out[f"{span_name}.calls"] = (int(calls[i]), int(calls[i]))
        for key, value in self.counts.items():
            out[key] = (value, int(calls[idx[key.rsplit(".", 1)[0]]]))
        n_train = out["model.train.calls"][1]
        train_total = float(total_s[idx["model.train"]])
        out["model.train.self_s"] = out["model.train.s"]
        out["model.train.s"] = (train_total, n_train)
        steps = self.counts.get("model.train.steps", 0)
        out["model.train.ms_per_step"] = (1e3 * train_total / max(steps, 1), n_train)
        n_best = out["dtree.best_split.calls"][1]
        found = self.counts.get("dtree.best_split.found", 0)
        out["dtree.split_yield"] = (found / max(n_best, 1), n_best)
        out["dtree.nodes"] = (sum(t.node_count() for t in self.trees), len(self.trees))
        out["dtree.depth"] = (max((t.depth() for t in self.trees), default=0),
                              len(self.trees))
        out["experiment.run_all.self_s"] = out["experiment.run_all.s"]
        return out
