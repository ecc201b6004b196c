"""One pipeline stage of one benchmark repetition.

``run.py`` calls ``main([stage, inputs.json, workdir, result.json, *flags])``
in a process forked for the stage; standalone, with ``src`` on
``PYTHONPATH``:

    python3 bench/worker.py {setup|fit} <inputs.json> <workdir> <result.json> [--trace] [--roundtrip]

``setup`` turns the workload inputs into observed-cascade text (parse,
simulate, mask, write); ``fit`` turns that text into estimated couplings
(read, summarize, optimize, write), which are then evaluated.  Each stage
gets its own process, as with the ``cascade-recon`` subcommands: on hub30
a fit in a process that has just run the setup took 6-7 s where a fresh
process took 9-12 s, so sharing one would hide cost that users pay.
Workloads with ``via_cli`` run each stage through ``cascade_recon.cli.main``,
the others through the package's public functions.  The result, with the
output checks and, under ``--trace``, the recorded spans, is written as
JSON to ``result.json``.

The pipeline calls library functions as attributes of ``cascade_recon``
(``cr.read_cascades``), so tracing sees them; the output checks run after
tracing is removed.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import cascade_recon as cr
from cascade_recon import cli
from cascade_recon import (
    FitConfig,
    MaskSpec,
    apply_mask,
    identifiable_edges,
    l1_coupling_error,
    parse_edge_list,
    read_cascades,
)

from tracing import Tracer, install


class CheckFailed(Exception):
    pass


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _mask(spec: dict, net) -> MaskSpec:
    snaps = spec["snapshots"]
    return MaskSpec(frozenset(net.label_index[h] for h in spec["hidden"]),
                    None if snaps is None else tuple(snaps))


def _cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"cascade-recon {argv[0]} exited with {rc}")
    return out.getvalue()


class Files:
    def __init__(self, work: Path):
        self.network = work / "network.edges"
        self.simulated = work / "simulated.txt"
        self.observed = work / "observed.txt"
        self.mask = work / "mask.txt"
        self.config = work / "fit.cfg"
        self.estimate = work / "estimate.edges"


def run_setup(spec: dict, files: Files, tracer: Tracer) -> tuple[float, list | None]:
    """Seconds taken, and the masked dataset when it was built in this process."""
    start = time.perf_counter()
    observed = None
    if spec["via_cli"]:
        with tracer.span("stage.simulate"):
            _cli("simulate", "--network", files.network, "--horizon", spec["horizon"],
                 "--num-cascades", spec["n_cascades"], "--seed", spec["sim_seed"],
                 "--sources", "random", "--out", files.simulated)
        with tracer.span("stage.mask"):
            _cli("mask", "--network", files.network, "--cascades", files.simulated,
                 "--hidden", ",".join(spec["hidden"]),
                 "--snapshots", ",".join(map(str, spec["snapshots"] or [])) or "all",
                 "--out", files.observed)
    else:
        with tracer.span("stage.simulate"):
            with open(files.network, encoding="utf-8") as fh:
                net, alpha = cr.parse_edge_list(fh)
            data = []
            for label, count, seed in spec["groups"]:
                data += cr.generate_dataset(net, alpha, count, [net.label_index[label]],
                                            spec["horizon"], seed)
        with tracer.span("stage.mask"):
            mask = _mask(spec, net)
            observed = [cr.apply_mask(c, mask) for c in data]
            files.observed.write_text(cr.write_cascades(net, observed), encoding="utf-8")
    return time.perf_counter() - start, observed


def check_roundtrip(spec: dict, files: Files, expected: list | None) -> None:
    """The observed file reads back to exactly the masked dataset; the CLI
    path's masked dataset is rebuilt from its simulated file."""
    with open(files.network, encoding="utf-8") as fh:
        net, _ = parse_edge_list(fh)
    if expected is None:
        mask = _mask(spec, net)
        full = read_cascades(net, files.simulated.read_text(encoding="utf-8"))
        expected = [apply_mask(obs.to_cascade(), mask) for obs in full]
    got = read_cascades(net, files.observed.read_text(encoding="utf-8"))
    _check(len(got) == len(expected) == spec["n_cascades"], "cascade count changed in the file round trip")
    _check(all(a == b for a, b in zip(got, expected)), "observed file does not read back to the masked dataset")


def run_fit(spec: dict, files: Files, tracer: Tracer) -> tuple[float, list[float] | None]:
    """Seconds taken, and the accepted free-energy trajectory when the fit
    ran in this process (the CLI writes it to ``<estimate>.diag.csv``)."""
    start = time.perf_counter()
    trajectory = None
    with tracer.span("stage.fit"):
        if spec["via_cli"]:
            _cli("fit", "--network", files.network, "--cascades", files.observed,
                 "--config", files.config, "--out", files.estimate)
        else:
            with open(files.network, encoding="utf-8") as fh:
                net, _ = cr.parse_edge_list(fh)
            dataset = cr.read_cascades(net, files.observed.read_text(encoding="utf-8"))
            result = cr.dmprec_fit(dataset, net, FitConfig(max_iters=spec["max_iters"]), threads=1)
            files.estimate.write_text(cr.serialize_edge_list(net, result.couplings_hat), encoding="utf-8")
            trajectory = result.free_energy_trajectory
    return time.perf_counter() - start, trajectory


def evaluate(spec: dict, files: Files, trajectory: list[float] | None) -> dict:
    """Output checks on the estimate, then the accuracy metrics."""
    with open(files.network, encoding="utf-8") as fh:
        net, truth = parse_edge_list(fh)
    other, est = parse_edge_list(files.estimate.read_text(encoding="utf-8"))
    _check(est is not None and other == net, "estimate file does not parse over the workload network")
    box = FitConfig()
    _check(bool(np.all(np.isfinite(est))), "estimated couplings are not finite")
    _check(bool(np.all((est >= box.alpha_min) & (est <= box.alpha_max))),
           "estimated couplings leave [alpha_min, alpha_max]")
    if trajectory is None:
        diag = Path(f"{files.estimate}.diag.csv").read_text(encoding="utf-8").splitlines()[1:]
        trajectory = [float(row.split(",")[1]) for row in diag]
    energy = np.array(trajectory)
    _check(energy.size >= 1 and bool(np.all(np.diff(energy) <= 0.0)),
           "accepted free-energy trajectory increases")
    included = identifiable_edges(net, _mask(spec, net))
    l1 = l1_coupling_error(est, truth, included)
    if spec["via_cli"]:
        printed = _cli("eval", "--network", files.network, "--couplings", files.estimate,
                       "--mask", files.mask)
        _check(printed.strip() == f"normalized_l1_error={l1!r}",
               f"cascade-recon eval printed {printed.strip()!r}, expected l1 {l1!r}")
    corr = float(np.corrcoef(est[included], truth[included])[0, 1])
    return {
        "l1_error": l1,
        "corr": corr,
        "couplings_sha256": hashlib.sha256(np.ascontiguousarray(est).tobytes()).hexdigest(),
    }


def run_stage(name: str, body, tracer: Tracer) -> tuple[dict, object]:
    """Time ``body()`` (which returns ``(seconds, extra)``) and collect the
    stage's spans; an exception fails the stage instead of the process."""
    out: dict = {"stage": name, "errors": []}
    cpu = time.process_time()
    extra = None
    try:
        out["seconds"], extra = body()
        out["cpu_seconds"] = time.process_time() - cpu
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        out["sys_seconds"] = usage.ru_stime
        out["minor_faults"] = usage.ru_minflt
    except Exception as exc:  # reported as a failed stage
        out["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
    out["totals"] = tracer.totals()
    if tracer.installed:
        out["spans"] = tracer.dump()
    return out, extra


def run_check(name: str, out: dict, check) -> None:
    if out["errors"]:
        return
    try:
        out.update(check())
    except Exception as exc:  # reported as a failed check
        out["errors"].append(f"{name} check: {type(exc).__name__}: {exc}")


def main(argv: list[str]) -> int:
    stage, inputs, work, result_path = argv[:4]
    flags = argv[4:]
    spec = json.loads(Path(inputs).read_text(encoding="utf-8"))
    files = Files(Path(work))
    tracer = Tracer()
    if "--trace" in flags:
        install(tracer)
    if stage == "setup":
        out, observed = run_stage(stage, lambda: run_setup(spec, files, tracer), tracer)

        def check():
            if "--roundtrip" in flags:
                check_roundtrip(spec, files, observed)
            return {"observed_sha256": hashlib.sha256(files.observed.read_bytes()).hexdigest(),
                    "observed_mb": files.observed.stat().st_size / 2**20}
    else:
        out, trajectory = run_stage(stage, lambda: run_fit(spec, files, tracer), tracer)

        def check():
            return {"eval": evaluate(spec, files, trajectory)}
    tracer.unpatch()
    run_check(stage, out, check)
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
