"""Child process of the benchmark: one fresh interpreter per use.

  python3 worker.py import_probe SPEC RESULT  time importing a fixed set of
                                              standard-library modules
  python3 worker.py setup SPEC RESULT         time importing
                                              fronthaul_planner.cli and
                                              building the workload's config
  python3 worker.py run SPEC RESULT           run the workload's passes for
                                              the time budget, optionally traced

SPEC and RESULT are JSON files. A pass is the workload's list of CLI
invocations, run one after another through fronthaul_planner.cli.main with
stdout captured. The first pass warms the process up and is not timed.

The probes run no package code; run.py divides each measured time by the
probe times next to it (see README.md). In run mode a fixed CPU probe runs
before the first timed pass and after every pass. It times two kinds of
work separately: "interp" (validated dataclass records, small numpy calls
and float formatting, bound by interpreter and per-call overhead) and
"array" (large-array math and normal draws, bound by arithmetic and memory
throughput).

Only json, sys and time are imported before the timed imports.
"""

import json
import sys
import time


def import_probe(spec):
    start = time.perf_counter()
    import argparse  # noqa: F401  (the imports are what is timed)
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import decimal  # noqa: F401
    import email.message  # noqa: F401
    import fractions  # noqa: F401
    import http.client  # noqa: F401
    import statistics  # noqa: F401
    return {"probe_s": time.perf_counter() - start}


def setup(spec):
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import fronthaul_planner.cli  # noqa: F401  (the import is what is timed)
    from fronthaul_planner.config import SystemConfig, load_config
    cfg = load_config(spec["config"]) if spec["config"] else SystemConfig()
    return {"setup_s": time.perf_counter() - start, "m": cfg.m, "k": cfg.k}


def _run_pass(cli, invocations):
    """Run one pass; return (wall seconds, exit codes, stdout texts, errors)."""
    import contextlib
    import io
    import traceback

    codes, outs, errors = [], [], []
    start = time.perf_counter()
    for argv in invocations:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit):  # argparse reports usage errors by exiting
            code = None
            errors.append(traceback.format_exc())
        codes.append(code)
        outs.append(buf.getvalue())
    return time.perf_counter() - start, codes, outs, errors


def _cpu_probe(np, inputs):
    """Seconds taken by each kind of fixed probe work."""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Record:
        values: np.ndarray
        scale: float

        def __post_init__(self):
            values = np.atleast_1d(np.asarray(self.values, dtype=float))
            object.__setattr__(self, "values", values)
            if np.any(values < 0) or self.scale <= 0:
                raise ValueError("invalid probe record")

    rows, floats, large = inputs
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        record = Record(rows[i % len(rows)], 1.0 + i)
        x = np.where(record.values > 0.5, np.sqrt(record.values), record.values ** 2)
        acc += float(np.log2(1.0 + x).sum()) * record.scale
    acc += len("".join(f"{v:.9g},{i},{2 * v:.9g}\n" for i, v in enumerate(floats)))
    middle = time.perf_counter()
    for _ in range(6):
        np.log10(large).sum()
    np.random.default_rng(1).standard_normal((3, 200000))
    return {"interp": middle - start, "array": time.perf_counter() - middle}


def _csv_size(path):
    """(data rows, bytes) of a CSV written by the package."""
    import os

    rows = -1  # the column header is not a data row
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                rows += 1
    return rows, os.path.getsize(path)


def run(spec):
    import gc
    import resource
    import statistics

    sys.path.insert(0, spec["src"])
    import numpy as np
    from fronthaul_planner import cli

    import tracer as tracing

    invocations = spec["invocations"]
    attempted = failed = 0
    errors = []

    def account(result):
        nonlocal attempted, failed
        _, codes, _, errs = result
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        errors.extend(errs[:2])
        return result

    rng = np.random.default_rng(0)
    probe_inputs = (rng.random((10, 100)), rng.random(5000).tolist(),
                    rng.random(200000) + 0.5)
    warmup_s = account(_run_pass(cli, invocations))[0]
    plain, traced = [], []
    tracer = tracing.Tracer() if spec["trace"] else None
    # The traced run only estimates tracing overhead from its untraced
    # passes, so it needs fewer of them and no probes.
    min_passes = 2 if tracer else 3
    probes = [] if tracer else [_cpu_probe(np, probe_inputs)]
    began = time.perf_counter()
    while True:
        gc.collect()
        wall, codes, outs, _ = account(_run_pass(cli, invocations))
        plain.append(wall)
        if tracer is None:
            probes.append(_cpu_probe(np, probe_inputs))
        last = (codes, outs)
        if tracer is not None and len(traced) < spec["max_traced"]:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                result = account(_run_pass(cli, invocations))
            finally:
                tracer.uninstall()
            traced.append({
                "wall_s": result[0],
                "layers": tracing.layer_stats(tracer.spans),
                "counters": dict(tracer.counters),
                "csv": [_csv_size(p) for p in tracer.output_paths],
                "stdout_bytes": sum(len(o.encode()) for o in result[2]),
                "spans": tracer.spans,
            })
        enough = len(plain) >= min_passes and (
            tracer is None or len(traced) >= min_passes)
        if enough and time.perf_counter() - began >= spec["seconds"]:
            break

    out = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "warmup_s": warmup_s,
        "pass_s": plain,
        "probe_s": probes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:4],
        "exit_codes": last[0],
        "stdout": last[1],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        traced.sort(key=lambda t: t["wall_s"])
        median_pass = traced[len(traced) // 2]
        spans = median_pass.pop("spans")
        with open(spec["trace_out"], "w") as fh:
            for sid, parent, name, _, start, end, span_failed in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "failed": span_failed}) + "\n")
        out["trace"] = dict(
            median_pass,
            traced_passes=len(traced),
            overhead_s=(statistics.median(t["wall_s"] for t in traced)
                        - statistics.median(plain)),
        )
    return out


MODES = {"import_probe": import_probe, "setup": setup, "run": run}


def main():
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = MODES[mode](spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
