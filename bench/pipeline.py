"""One benchmark process: a probe or a repetition of the pipeline.

    python3 bench/pipeline.py REQUEST.json

The request (written by ``run.py``) names the checkout, the parent's
``time.monotonic()`` reading taken just before this process was spawned,
the ``--config`` file, whether to trace, and where to write the result.
Both modes time the import of ``c2bnvae.cli``. ``probe`` requests then time
``preprocess`` alone; ``pipeline`` requests run ``preprocess`` and
``run-all`` through ``cli.main``, as a user would, and record their wall
time and this process's peak RSS.
"""

import sys
import time

# preprocess is short, so it is also timed on its own: in each pipeline
# process after run-all, and in the probe processes run between pipelines
PREPROCESS_SAMPLES = 4
PROBE_SAMPLES = 3


def main(request_path: str) -> int:
    import json
    from pathlib import Path

    request = json.loads(Path(request_path).read_text())
    src = Path(request["root"]) / "src"
    sys.path.insert(0, str(src))
    from c2bnvae import cli  # imports every submodule the pipeline uses

    setup_s = time.monotonic() - request["spawned_at"]
    import c2bnvae
    if Path(c2bnvae.__file__).resolve().parent != (src / "c2bnvae").resolve():
        raise SystemExit(f"c2bnvae was imported from {c2bnvae.__file__}, "
                         f"not from {src}")
    result = {"setup_s": setup_s}
    if request["mode"] == "pipeline":
        result.update(run_pipeline(cli, request["config"], request["trace"]))
    else:
        result["preprocess_s"], result["exit_codes"] = time_preprocess(
            cli, request["config"], PROBE_SAMPLES)
    Path(request["out"]).write_text(json.dumps(result))
    return 0


def run_pipeline(cli, config_path: str, trace: bool) -> dict:
    import resource

    import numpy as np

    tracer = None
    preprocess_cmd = run_all_cmd = cli.main
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        preprocess_cmd = tracer.span("cli.preprocess", cli.main)
        run_all_cmd = tracer.span("cli.run_all", cli.main)
    t0 = time.perf_counter()
    exit_preprocess = preprocess_cmd(["preprocess", "--config", config_path])
    t1 = time.perf_counter()
    exit_run_all = run_all_cmd(["run-all", "--config", config_path])
    t2 = time.perf_counter()
    out = {
        "preprocess_s": [t1 - t0],
        "pipeline_s": t2 - t0,
        "exit_codes": [exit_preprocess, exit_run_all],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(np),
    }
    if tracer is None:
        # after the pipeline, so that the pipeline runs as a user's would
        times, codes = time_preprocess(cli, config_path, PREPROCESS_SAMPLES - 1)
        out["preprocess_s"] += times
        out["exit_codes"] += codes
    else:
        out["trace_problems"] = tracer.check()
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.start)
    return out


def time_preprocess(cli, config_path: str, n: int) -> tuple[list[float], list[int]]:
    """Time ``preprocess`` alone n times, each into a fresh scratch directory."""
    import shutil
    from pathlib import Path

    times, codes = [], []
    for i in range(n):
        scratch = Path.cwd() / f"preprocess{i}"
        t0 = time.perf_counter()
        codes.append(cli.main(["preprocess", "--config", config_path,
                               "--out-dir", str(scratch)]))
        times.append(time.perf_counter() - t0)
        shutil.rmtree(scratch, ignore_errors=True)
    return times, codes


def blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
