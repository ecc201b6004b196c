"""Command-line front end: simulate, mask, fit, eval, marginals,
gradcheck, oracle.

Every subcommand reads/writes the plain-text formats defined by the
library (edge lists, cascade files, mask specs, CSV tables) and is
deterministic given its seeds, so a full simulate -> mask -> fit -> eval
pipeline reproduces byte-identical artifacts.

Exit codes: 0 success, 1 a module reported a data/model error, 2 usage
errors (bad flags, bad config keys, integers that do not parse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import CascadeReconError, ParseError
from .graph import Network, parse_edge_list, serialize_edge_list
from .cascades import (
    MaskSpec,
    apply_mask,
    generate_dataset,
    interpret_hidden_field,
    parse_mask_spec,
    read_cascades,
    resolve_mask,
    write_cascades,
)
from .dmp import dmp_forward, exact_marginals_oracle
from .gradient import free_energy_gradient, observed_negative_log_likelihood
from .fit import FitConfig, dmprec_fit, identifiable_edges, l1_coupling_error
from .baselines import HtsConfig, hts_fit, netrate_fit

__all__ = ["main", "build_parser"]

_CONFIG_KEYS = {
    # paths and run parameters (same spelling as the long flags)
    "network", "couplings", "cascades", "mask", "out", "method", "horizon",
    "num-cascades", "sources", "seed", "mask-seed", "hidden", "snapshots",
    "threads", "deterministic",
    # optimizer settings
    "alpha-init", "alpha-min", "alpha-max", "max-iters", "tol", "step-init",
    # two-stage baseline settings
    "aux-samples", "outer-rounds", "param-tol",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-recon",
        description="Reconstruct spreading-model couplings from partially observed cascades.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *names):
        if "network" in names:
            p.add_argument("--network", help="edge-list file (optionally with couplings)")
        if "couplings" in names:
            p.add_argument("--couplings", help="edge-list file carrying the couplings to use")
        if "cascades" in names:
            p.add_argument("--cascades", help="cascade file")
        if "mask" in names:
            p.add_argument("--mask", help="mask spec file")
        if "out" in names:
            p.add_argument("--out", help="output path")
        if "horizon" in names:
            p.add_argument("--horizon", type=int, help="observation window length T")
        if "seed" in names:
            p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--threads", type=int, default=None, help="no effect: source groups run in batched array passes; accepted for existing pipelines")
        p.add_argument("--deterministic", action="store_true", help="no effect: results are the same for any --threads; accepted for existing pipelines")
        p.add_argument("--config", help="key = value config file; flags override file values")

    p = sub.add_parser("simulate", help="generate ground-truth cascades")
    add_common(p, "network", "couplings", "out", "horizon", "seed")
    p.add_argument("--num-cascades", type=int, help="number of cascades M")
    p.add_argument("--sources", help="'random' or comma-separated source labels")

    p = sub.add_parser("mask", help="apply an observation mask to cascades")
    add_common(p, "network", "cascades", "mask", "out")
    p.add_argument("--hidden", help="hidden node count or comma-separated labels")
    p.add_argument("--snapshots", help="'all' or comma-separated times")
    p.add_argument("--mask-seed", type=int, help="seed for random hidden-node selection")

    p = sub.add_parser("fit", help="reconstruct couplings from observed cascades")
    add_common(p, "network", "cascades", "out", "seed")
    p.add_argument("--method", choices=["dmprec", "hts", "netrate"], default="dmprec")

    p = sub.add_parser("eval", help="compare estimated couplings against the truth")
    add_common(p, "network", "couplings", "mask", "out")

    p = sub.add_parser("marginals", help="forward message-passing marginals as CSV")
    add_common(p, "network", "couplings", "out", "horizon")
    p.add_argument("--sources", help="comma-separated source labels")

    p = sub.add_parser("gradcheck", help="finite-difference check of the free-energy gradient")
    add_common(p, "network", "couplings", "out", "horizon", "seed")
    p.add_argument("--num-cascades", type=int, help="cascades to simulate for the check")
    p.add_argument("--sources", help="'random' or comma-separated source labels")
    p.add_argument("--hidden", help="hidden node count or comma-separated labels")
    p.add_argument("--snapshots", help="'all' or comma-separated times")
    p.add_argument("--mask-seed", type=int, help="seed for random hidden-node selection")

    p = sub.add_parser("oracle", help="exact subset-state marginals (small N) as CSV")
    add_common(p, "network", "couplings", "out", "horizon")
    p.add_argument("--sources", help="comma-separated source labels")

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


class _Run:
    """Merged view of flags and config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = _read_config_file(args.config) if args.config else {}

    def get(self, key: str, cast=str, default=None):
        flag = key.replace("-", "_")
        val = getattr(self.args, flag, None)
        if val is not None:
            return val
        if key in self.file_values:
            raw = self.file_values[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            if cast is int:
                return _parse_int(key, raw)
            return cast(raw)
        return default

    def require(self, key: str, cast=str):
        val = self.get(key, cast)
        if val is None:
            raise _usage_error(f"missing required option --{key}")
        return val

    def fit_config(self) -> FitConfig:
        fv = self.file_values
        kw = {}
        if "alpha-init" in fv:
            kw["alpha_init"] = float(fv["alpha-init"])
        if "alpha-min" in fv:
            kw["alpha_min"] = float(fv["alpha-min"])
        if "alpha-max" in fv:
            kw["alpha_max"] = float(fv["alpha-max"])
        if "max-iters" in fv:
            kw["max_iters"] = _parse_int("max-iters", fv["max-iters"])
        if "tol" in fv:
            kw["tol"] = float(fv["tol"])
        if "step-init" in fv:
            kw["step_init"] = float(fv["step-init"])
        return FitConfig(**kw)

    def hts_config(self) -> HtsConfig:
        fv = self.file_values
        kw = {"fit": self.fit_config()}
        if "aux-samples" in fv:
            kw["aux_samples"] = _parse_int("aux-samples", fv["aux-samples"])
        if "outer-rounds" in fv:
            kw["outer_rounds"] = _parse_int("outer-rounds", fv["outer-rounds"])
        if "param-tol" in fv:
            kw["param_tol"] = float(fv["param-tol"])
        seed = self.get("seed", int)
        if seed is not None:
            kw["seed"] = seed
        return HtsConfig(**kw)


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_int(key: str, text: str) -> int:
    """An integer from a flag string or a config value; anything else is a
    usage error that names ``key``."""
    try:
        return int(text)
    except ValueError:
        raise _usage_error(f"{key}: expected an integer, got {text!r}") from None


def _load_network(run: _Run) -> tuple[Network, np.ndarray | None]:
    path = run.require("network")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def _load_couplings(run: _Run, net: Network, net_alpha, required=True):
    """Couplings from --couplings (an edge-list-with-alpha file over the
    same graph) or the network file's third column."""
    path = run.get("couplings")
    if path:
        other, alpha = parse_edge_list(Path(path).read_text(encoding="utf-8"))
        if alpha is None:
            raise ParseError(f"{path}: no coupling column")
        if other != net:
            raise ParseError(f"{path}: edge list does not match --network")
        return alpha
    if net_alpha is not None:
        return net_alpha
    if required:
        raise _usage_error("couplings required: pass --couplings or a 3-column --network")
    return None


def _parse_sources(run: _Run, net: Network, allow_random=False):
    spec = run.require("sources")
    if spec == "random":
        if not allow_random:
            raise _usage_error("--sources random is not valid here")
        return "random"
    ids = []
    for tok in spec.split(","):
        tok = tok.strip()
        if tok not in net.label_index:
            raise ParseError(f"unknown source label {tok!r}")
        ids.append(net.label_index[tok])
    return ids


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _cmd_simulate(run: _Run) -> int:
    net, net_alpha = _load_network(run)
    alpha = _load_couplings(run, net, net_alpha)
    horizon = run.require("horizon", int)
    n = run.require("num-cascades", int)
    seed = run.require("seed", int)
    sources = _parse_sources(run, net, allow_random=True)
    data = generate_dataset(net, alpha, n, sources, horizon, seed)
    _write(run.require("out"), write_cascades(net, data))
    return 0


def _mask_spec(run: _Run, net: Network, cascades, mask_file=None) -> MaskSpec:
    """The mask in ``mask_file`` when given, else the one that --hidden,
    --snapshots and --mask-seed describe; sources of ``cascades`` are never
    hidden."""
    source_nodes = {int(s) for c in cascades for s in c.sources}
    if mask_file:
        return parse_mask_spec(
            Path(mask_file).read_text(encoding="utf-8"),
            net, net.n_nodes, exclude=source_nodes,
        )
    mask_seed = run.get("mask-seed", int)
    hidden = interpret_hidden_field(run.get("hidden", str, ""), mask_seed)
    snapshots_raw = run.get("snapshots", str, "all")
    snapshots = "all" if snapshots_raw == "all" else [_parse_int("snapshots", v) for v in snapshots_raw.split(",") if v]
    return resolve_mask(
        hidden, snapshots, net.n_nodes, net=net,
        mask_seed=mask_seed, exclude=source_nodes,
    )


def _cmd_mask(run: _Run) -> int:
    net, _ = _load_network(run)
    cascades = read_cascades(net, Path(run.require("cascades")).read_text(encoding="utf-8"))
    spec = _mask_spec(run, net, cascades, run.get("mask"))
    observed = [apply_mask(obs.to_cascade(), spec) for obs in cascades]
    _write(run.require("out"), write_cascades(net, observed))
    return 0


def _cmd_fit(run: _Run) -> int:
    net, _ = _load_network(run)
    dataset = read_cascades(net, Path(run.require("cascades")).read_text(encoding="utf-8"))
    method = run.get("method", str, "dmprec")
    if method == "dmprec":
        result = dmprec_fit(dataset, net, run.fit_config())
        alpha, diagnostics = result.couplings_hat, result.diagnostics
    elif method == "netrate":
        alpha = netrate_fit(dataset, net, run.fit_config())
        nll = observed_negative_log_likelihood(dataset, net, alpha)
        diagnostics = [(0, nll, 0.0, 0.0)]
    else:
        result = hts_fit(dataset, net, run.hts_config())
        alpha = result.couplings_hat
        diagnostics = [(i, f, 0.0, 0.0) for i, f in enumerate(result.free_energy_trajectory)]
    out = run.require("out")
    _write(out, serialize_edge_list(net, alpha))
    diag_lines = ["iter,free_energy,step_size,grad_inf_norm"]
    diag_lines += [f"{i},{float(f)!r},{float(s)!r},{float(g)!r}" for i, f, s, g in diagnostics]
    _write(out + ".diag.csv", "\n".join(diag_lines) + "\n")
    return 0


def _cmd_eval(run: _Run) -> int:
    net, truth = _load_network(run)
    if truth is None:
        raise _usage_error("--network must carry the true couplings (3-column file)")
    est_path = run.get("couplings")
    if not est_path:
        raise _usage_error("--couplings must point at the estimated couplings")
    other, est = parse_edge_list(Path(est_path).read_text(encoding="utf-8"))
    if est is None or other != net:
        raise ParseError(f"{est_path}: not a couplings file over the same graph")
    if run.get("mask"):
        spec = parse_mask_spec(Path(run.get("mask")).read_text(encoding="utf-8"), net, net.n_nodes)
        included = identifiable_edges(net, spec)
    else:
        included = np.arange(net.n_edges)
    err = float(l1_coupling_error(est, truth, included))
    out = run.get("out")
    if out:
        lines = ["src,dst,alpha_true,alpha_est"]
        for e in range(net.n_edges):
            i, j = net.edge_pair(e)
            lines.append(f"{net.labels[i]},{net.labels[j]},{float(truth[e])!r},{float(est[e])!r}")
        _write(out, "\n".join(lines) + "\n")
    print(f"normalized_l1_error={err!r}")
    return 0


def _cmd_marginals(run: _Run) -> int:
    net, net_alpha = _load_network(run)
    alpha = _load_couplings(run, net, net_alpha)
    horizon = run.require("horizon", int)
    sources = _parse_sources(run, net)
    trace = dmp_forward(net, alpha, sources, horizon)
    lines = ["node,time,P_S,m"]
    for i in range(net.n_nodes):
        for t in range(horizon + 1):
            lines.append(
                f"{net.labels[i]},{t},{float(trace.p_susceptible[t, i])!r},{float(trace.p_activate[t, i])!r}"
            )
    _write(run.require("out"), "\n".join(lines) + "\n")
    return 0


def _cmd_oracle(run: _Run) -> int:
    net, net_alpha = _load_network(run)
    alpha = _load_couplings(run, net, net_alpha)
    horizon = run.require("horizon", int)
    sources = _parse_sources(run, net)
    table = exact_marginals_oracle(net, alpha, sources, horizon)
    lines = ["node,time,P_S"]
    for i in range(net.n_nodes):
        for t in range(horizon + 1):
            lines.append(f"{net.labels[i]},{t},{float(table[t, i])!r}")
    _write(run.require("out"), "\n".join(lines) + "\n")
    return 0


def _cmd_gradcheck(run: _Run) -> int:
    net, net_alpha = _load_network(run)
    alpha = _load_couplings(run, net, net_alpha)
    horizon = run.require("horizon", int)
    seed = run.get("seed", int, 0)
    n = run.get("num-cascades", int, 20)
    sources = _parse_sources(run, net, allow_random=True) if run.get("sources") else "random"
    data = generate_dataset(net, alpha, n, sources, horizon, seed)
    spec = _mask_spec(run, net, data)
    dataset = [apply_mask(c, spec) for c in data]
    report = free_energy_gradient(dataset, net, alpha)
    h = 1e-5
    lines = ["src,dst,analytic,numeric,rel_error"]
    max_rel = 0.0
    for e in range(net.n_edges):
        up = alpha.copy()
        up[e] = min(up[e] + h, 1.0)
        dn = alpha.copy()
        dn[e] = max(dn[e] - h, 0.0)
        numeric = (
            observed_negative_log_likelihood(dataset, net, up)
            - observed_negative_log_likelihood(dataset, net, dn)
        ) / (up[e] - dn[e])
        analytic = float(report.gradient[e])
        numeric = float(numeric)
        rel = abs(analytic - numeric) / max(abs(analytic), 1e-12)
        max_rel = max(max_rel, rel) if abs(analytic) > 1e-6 else max_rel
        i, j = net.edge_pair(e)
        lines.append(f"{net.labels[i]},{net.labels[j]},{analytic!r},{numeric!r},{rel!r}")
    _write(run.require("out"), "\n".join(lines) + "\n")
    print(f"max_rel_error={max_rel!r}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "mask": _cmd_mask,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "marginals": _cmd_marginals,
    "oracle": _cmd_oracle,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _Run(args)
    except (CascadeReconError, FileNotFoundError) as exc:
        # a bad --config file is a usage problem, not a data problem
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](run)
    except SystemExit:
        raise
    except CascadeReconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
