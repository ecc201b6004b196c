"""Seeded end-to-end benchmark of the cascade-recon pipeline.

    python3 bench/run.py --workload hub30-hidden --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
network, sources and mask from ``--seed`` (see ``workloads.py``) and then
repeats the user pipeline until ``--seconds`` have passed since it started.
Each stage runs in its own process, forked from this one after the package
is imported and pinned to one thread, as with the ``cascade-recon``
subcommands: ``setup`` (parse -> simulate -> mask -> write) and ``fit``
(read -> summarize -> optimize -> write, then eval and the output checks).
Every repetition fits; the first three also set up.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` it alternates untraced and traced
repetitions and reports per-layer metrics from the traced ones.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's metadata.  A full record, spans included, is written to
``bench/out/``.
"""

from __future__ import annotations

import ctypes
import os
import sys

ADDR_NO_RANDOMIZE = 0x0040000
# glibc malloc's default mmap and trim thresholds move with the history of
# frees, so identical fits fault in different numbers of pages: on hub30,
# 108k to 640k minor faults and 0.3 to 2.4 s of system time.  Fixed at
# 32 MiB (glibc's largest mmap threshold on 64-bit), freed blocks below it
# are reused and every fit of a workload takes the same faults.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(32 << 20),
}


def fix_memory_layout() -> None:
    """Re-execute this script once with the fixed malloc thresholds, str
    hashing seeded and address-space randomization off.

    Every stage of a run is forked from this process and inherits its
    memory layout and allocator settings, so that runs of a workload start
    from the same state.  Where the system refuses ``personality``, the
    run goes on with a random layout, and the metadata says so.
    """
    if all(os.environ.get(k) == v for k, v in FIXED_ENV.items()):
        return
    os.environ.update(FIXED_ENV)
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def layout_fixed() -> bool:
    current = ctypes.CDLL(None).personality(0xFFFFFFFF)
    return current != -1 and bool(current & ADDR_NO_RANDOMIZE)


if __name__ == "__main__":
    fix_memory_layout()

# Pin BLAS/OpenMP and the program to one thread before numpy is loaded;
# the stages run in processes forked from this one and inherit the pins.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "CASCADE_RECON_THREADS")
os.environ.update({k: "1" for k in THREAD_ENV})

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import SIZES, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.parse_s": "s",
    "cascades.simulate_s": "s",
    "cascades.mask_s": "s",
    "cascades.write_s": "s",
    "cascades.read_s": "s",
    "cascades.file_mb": "MB",
    "cascades.count": "count",
    "gradient.summarize_s": "s",
    "gradient.groups": "count",
    "gradient.windows": "count",
    "gradient.sens_calls": "count",
    "gradient.sens_s": "s",
    "gradient.sens_ms_per_call": "ms",
    "gradient.sens_mb_per_call": "MB",
    "dmp.forward_calls": "count",
    "dmp.forward_s": "s",
    "dmp.forward_ms_per_call": "ms",
    "fit.iterations": "count",
    "fit.grad_evals": "count",
    "fit.value_evals": "count",
    "fit.backtracks": "count",
    "fit.accept_ratio": "1",
    "fit.grad_eval_s": "s",
    "fit.value_eval_s": "s",
    "fit.pgd_self_s": "s",
    "fit.converged": "1",
    "fit.final_free_energy": "nat",
    "fit.l1_error": "1",
    "fit.corr": "1",
    "cli.simulate_self_s": "s",
    "cli.mask_self_s": "s",
    "cli.fit_self_s": "s",
    "trace.overhead_s": "s",
}

MIN_REPS = 3          # untraced repetitions per --trace 0 run, each with a setup
MAX_REPS = 60
RUN_LIMIT_S = 170     # a stage that hangs is ended so that the run ends by then


def run_child(stage: str, work: Path, tag: str, traced: bool, roundtrip: bool,
              timeout: float) -> dict:
    """One stage in a process forked from this one, which has imported
    the package but run none of it; failures come back as ``errors``.

    Forking spares each stage the interpreter start and the imports; the
    stage still starts from a fresh heap, as a ``cascade-recon``
    subcommand does.
    """
    result = work / f"{tag}-{stage}.json"
    argv = [stage, str(work / "inputs.json"), str(work), str(result)]
    argv += ["--trace"] * traced + ["--roundtrip"] * roundtrip
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import worker  # loaded by main before the first fork
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.alarm(max(1, int(timeout)))  # SIGALRM ends a stage that hangs
            code = worker.main(argv)
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:  # the run is being stopped: end the stage first
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if code == -signal.SIGALRM:
        return {"errors": [f"{stage}: no result within {int(timeout)} s"]}
    if code != 0 or not result.is_file():
        return {"errors": [f"{stage}: worker exited with {code}"]}
    return json.loads(result.read_text(encoding="utf-8"))


def prepare(work: Path, spec: dict) -> None:
    (work / "inputs.json").write_text(json.dumps(spec), encoding="utf-8")
    (work / "network.edges").write_text(spec["network"], encoding="utf-8")
    snaps = spec["snapshots"]
    (work / "mask.txt").write_text(
        f"hidden={','.join(spec['hidden'])}\n"
        f"snapshots={'all' if snaps is None else ','.join(map(str, snaps))}\n", encoding="utf-8")
    (work / "fit.cfg").write_text(f"max-iters = {spec['max_iters']}\nthreads = 1\n", encoding="utf-8")


def stage_failures(setup: dict | None, fit: dict) -> list[str]:
    """Failed stages of one repetition, out of setup (when it ran), fit and
    eval; a stage that could not run because an earlier one failed counts
    as failed."""
    failed = []
    if setup is not None and setup["errors"]:
        failed.append("setup")
    if failed or "seconds" not in fit:
        failed.append("fit")
    if failed or fit["errors"]:
        failed.append("eval")
    return failed


def repeat(work: Path, deadline: float, limit: float, with_traced: bool) -> list[dict]:
    """Repetitions while the next one is expected to end before
    ``deadline``, but at least ``MIN_REPS`` (with ``with_traced``: whole
    untraced/traced pairs, at least one); a stage still running at
    ``limit`` is ended and fails.  Both are ``time.perf_counter`` values.

    Every repetition fits the observed file; the first ``MIN_REPS`` and
    the traced ones write it anew first, so a run times about three setups
    and as many fits as the time allows.
    """
    reps: list[dict] = []
    last = time.perf_counter()
    while True:
        traced = with_traced and len(reps) % 2 == 1
        tag = f"r{len(reps)}"
        setup = None
        fit = {"errors": ["fit: skipped, setup failed"]}
        if traced or len(reps) < MIN_REPS:
            setup = run_child("setup", work, tag, traced, not reps, limit - time.perf_counter())
        if setup is None or not setup["errors"]:
            fit = run_child("fit", work, tag, traced, False, limit - time.perf_counter())
        reps.append({"traced": traced, "setup": setup, "fit": fit,
                     "failed": stage_failures(setup, fit)})
        if with_traced and not traced:
            continue  # finish the pair
        now = time.perf_counter()
        step, last = now - last, now
        enough = len(reps) >= (2 if with_traced else MIN_REPS)
        if len(reps) >= MAX_REPS or (enough and now + step > deadline):
            return reps


def check_consistency(reps: list[dict]) -> None:
    """Every repetition of a run, traced or not, must write the same
    observed file and estimate the bit-identical couplings; a repetition
    that differs from the first complete one fails its eval stage."""
    complete = [r for r in reps if not r["failed"]]
    if not complete:
        return
    ref = complete[0]
    for rep in complete[1:]:
        if rep["setup"] is not None and rep["setup"]["observed_sha256"] != ref["setup"]["observed_sha256"]:
            rep["fit"]["errors"].append("observed file differs between repetitions")
        if rep["fit"]["eval"]["couplings_sha256"] != ref["fit"]["eval"]["couplings_sha256"]:
            kind = "traced and untraced runs" if rep["traced"] != ref["traced"] else "repetitions"
            rep["fit"]["errors"].append(f"couplings differ between {kind}")
        if rep["fit"]["errors"]:
            rep["failed"].append("eval")


def end_to_end(reps: list[dict]) -> dict[str, float]:
    ok = [r for r in reps if not r["failed"] and not r["traced"]]
    setups = [r["setup"]["seconds"] for r in ok if r["setup"] is not None]
    if not ok or not setups:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "fit_s": statistics.median(r["fit"]["seconds"] for r in ok),
        "peak_rss_mb": statistics.median(r["fit"]["peak_rss_mb"] for r in ok),
    }


def layer_metrics(setup: dict, fit: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition from its span totals."""
    both: dict[str, dict] = {}
    for totals in (setup["totals"], fit["totals"]):
        for name, agg in totals.items():
            acc = both.setdefault(name, {})
            for key, val in agg.items():
                acc[key] = acc.get(key, 0) + val

    def get(name, key="busy_s", where=both):
        return float(where.get(name, {}).get(key, 0))

    def per_call(name, key, scale):
        calls = get(name, "count")
        return get(name, key) * scale / calls if calls else 0.0

    accepted = get("fit.pgd", "accepted")
    value_evals = get("fit.value_eval", "count")
    return {
        "graph.parse_s": get("graph.parse"),
        "cascades.simulate_s": get("cascades.simulate"),
        "cascades.mask_s": get("cascades.mask"),
        "cascades.write_s": get("cascades.write"),
        "cascades.read_s": get("cascades.read"),
        "cascades.file_mb": setup["observed_mb"],
        "cascades.count": get("cascades.read", "n", where=fit["totals"]),
        "gradient.summarize_s": get("gradient.summarize"),
        "gradient.groups": get("gradient.summarize", "groups"),
        "gradient.windows": get("gradient.summarize", "windows"),
        "gradient.sens_calls": get("gradient.sens", "count"),
        "gradient.sens_s": get("gradient.sens"),
        "gradient.sens_ms_per_call": per_call("gradient.sens", "busy_s", 1e3),
        "gradient.sens_mb_per_call": per_call("gradient.sens", "nbytes", 2.0**-20),
        "dmp.forward_calls": get("dmp.forward", "count"),
        "dmp.forward_s": get("dmp.forward"),
        "dmp.forward_ms_per_call": per_call("dmp.forward", "busy_s", 1e3),
        "fit.iterations": get("fit.pgd", "iterations"),
        "fit.grad_evals": get("fit.grad_eval", "count"),
        "fit.value_evals": value_evals,
        "fit.backtracks": value_evals - accepted,
        "fit.accept_ratio": accepted / value_evals if value_evals else 0.0,
        "fit.grad_eval_s": get("fit.grad_eval"),
        "fit.value_eval_s": get("fit.value_eval"),
        "fit.pgd_self_s": get("fit.pgd", "self_s"),
        "fit.converged": get("fit.pgd", "converged"),
        "fit.final_free_energy": get("fit.pgd", "final_free_energy"),
        "fit.l1_error": fit["eval"]["l1_error"],
        "fit.corr": fit["eval"]["corr"],
        "cli.simulate_self_s": get("stage.simulate", "self_s"),
        "cli.mask_self_s": get("stage.mask", "self_s"),
        "cli.fit_self_s": get("stage.fit", "self_s"),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if not r["failed"] and r["traced"]]
    plain = [r for r in reps if not r["failed"] and not r["traced"]]
    if not traced or not plain:
        return {}
    each = [layer_metrics(r["setup"], r["fit"]) for r in traced]
    out = {name: statistics.median(m[name] for m in each) for name in each[0]}
    out["trace.overhead_s"] = (statistics.median(r["fit"]["seconds"] for r in traced)
                               - statistics.median(r["fit"]["seconds"] for r in plain))
    return out


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "cascade_recon").rglob("*.py")))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def metadata(spec: dict, seconds: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "params": {k: v for k, v in spec.items() if k not in ("network", "workload", "seed")},
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: "1" for k in THREAD_ENV},
        "fixed_env": {k: os.environ.get(k) for k in FIXED_ENV},
        "layout_fixed": layout_fixed(),
        "src_lines": source_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink cascade counts and fit budgets (smoke tests only)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cascade_recon" / "__init__.py").is_file():
        print(f"error: no cascade_recon package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    import worker  # noqa: F401  the stages' code, imported once and shared by every fork

    spec = make_inputs(args.workload, args.seed, SRC, args.scale)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        prepare(work, spec)
        reps = repeat(work, start + args.seconds, start + RUN_LIMIT_S, with_traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_consistency(reps)
    values = per_layer(reps) if args.trace else end_to_end(reps)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(len(r["failed"]) for r in reps)
    for rep in reps:
        for err in (rep["setup"] or {"errors": []})["errors"] + rep["fit"]["errors"]:
            print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": failed == 0 and set(values) == set(units),
        "attempted": sum(2 + (r["setup"] is not None) for r in reps),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    meta = metadata(spec, args.seconds, bool(args.trace))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "repetitions": reps}), encoding="utf-8")
    print(json.dumps({"meta": meta, "record": str(record.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
