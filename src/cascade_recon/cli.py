"""Command-line front end: simulate, mask, fit, eval, marginals,
gradcheck, oracle.

Every subcommand reads/writes the plain-text formats defined by the
library (edge lists, cascade files, CSV tables) and mask files, and is
deterministic given its seeds, so a full simulate -> mask -> fit -> eval
pipeline reproduces byte-identical artifacts.

A flag and a ``--config`` key share one spelling and one parser; the
optimizer and two-stage keys are the fields of ``FitConfig`` and
``HtsConfig``.  Flags win, every value given is parsed before any work
starts, and defaults live in the subcommands, so a config ``method``
selects the estimator.  A config key must name an option of the
subcommand, and ``fit`` takes every settings key.  A mask file is read
as a config file is, with the keys ``hidden``, ``snapshots`` and
``mask_seed``, each parsed as the flag of its name; it replaces those
flags, and a value there that does not parse is a data error.

Exit codes: 0 success, 1 a module reported a data/model error, 2 usage
errors (bad flags, bad config keys, values that do not parse, such as
``--horizon x``: ``error: horizon: expected an integer, got 'x'``, and
settings that ``FitConfig.validate`` or ``HtsConfig.validate`` rejects).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import CascadeReconError, ParseError
from .graph import Network, parse_edge_list, serialize_edge_list
from .cascades import (
    CascadeTable,
    MaskSpec,
    _cascade_blocks,
    apply_mask,
    generate_dataset,
    read_cascades,
    resolve_mask,
    write_cascades,
)
from .dmp import dmp_forward, exact_marginals_oracle
from .gradient import free_energy_gradient, observed_negative_log_likelihood, summarize_dataset
from .fit import FitConfig, _summaries_fit, identifiable_edges, l1_coupling_error
from .baselines import HtsConfig, hts_fit, netrate_fit

__all__ = ["main", "build_parser"]


def _parser(cast, expected: str):
    """``cast`` with a ValueError that names what was ``expected``."""
    def parse(text: str):
        try:
            return cast(text)
        except ValueError:
            raise ValueError(f"expected {expected}, got {text!r}") from None
    return parse


_integer, _number = _parser(int, "an integer"), _parser(float, "a number")


def _snapshots(text: str):
    return "all" if text == "all" else [_integer(v) for v in text.split(",") if v]


def _method(text: str) -> str:
    if text not in ("dmprec", "hts", "netrate"):
        raise ValueError(f"expected dmprec, hts or netrate, got {text!r}")
    return text


# Run options: each is a long flag and a config key, with its parser and
# help.
_OPTIONS = {
    "network": (str, "edge-list file (optionally with couplings)"),
    "couplings": (str, "edge-list file carrying the couplings to use"),
    "cascades": (str, "cascade file"),
    "mask": (str, "mask spec file"),
    "out": (str, "output path"),
    "method": (_method, "estimator: dmprec (default), hts or netrate"),
    "horizon": (_integer, "observation window length T"),
    "num-cascades": (_integer, "number of cascades M to simulate"),
    "sources": (str, "'random' (where a command simulates) or comma-separated source labels"),
    "seed": (_integer, "RNG seed"),
    "mask-seed": (_integer, "seed for random hidden-node selection"),
    "hidden": (str, "hidden node count or comma-separated labels"),
    "snapshots": (_snapshots, "'all' or comma-separated times"),
    "threads": (_integer, "no effect: source groups run in batched array passes; accepted for existing pipelines"),
}

# Every config key and its parser: the run options, and the fields of the
# optimizer and two-stage settings, parsed by the type of their defaults.
_PARSERS = {
    f.name.replace("_", "-"): {int: _integer, float: _number}[type(f.default)]
    for f in fields(FitConfig) + fields(HtsConfig)
    if f.name != "fit"
}
_PARSERS.update((key, parse) for key, (parse, _) in _OPTIONS.items())


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse(key: str, text):
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise _usage_error(f"{key}: {exc}") from None


def _read_key_values(path: str, keys, where: str) -> dict[str, tuple[int, str, str]]:
    """The ``key = value`` lines of a config or mask file, ``#`` starting a
    comment: each key, ``_`` read as ``-``, to its line number, its
    spelling there and its value.  A key not in ``keys`` is a ParseError
    that names the line as ``where`` and its number."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{where} {lineno}: expected 'key = value'")
        spelt, value = (s.strip() for s in line.split("=", 1))
        key = spelt.replace("_", "-")
        if key not in keys:
            raise ParseError(f"{where} {lineno}: unknown key {key!r}")
        values[key] = (lineno, spelt, value)
    return values


# The keys of a mask file: the flags that describe a mask otherwise.
_MASK_KEYS = ("hidden", "snapshots", "mask-seed")


class _Run(dict):
    """Config-file values with the flags laid over them, each parsed once,
    and for ``fit`` the estimator's validated settings; then a config key
    that names no option of the subcommand (``fit`` takes every settings
    key) is a usage error."""

    def __init__(self, args: argparse.Namespace):
        lines = _read_key_values(args.config, _PARSERS, "config line") if args.config else {}
        given = {key: text for key, (*_, text) in lines.items()}
        for key in _OPTIONS:
            flag = getattr(args, key.replace("-", "_"), None)
            if flag is not None:
                given[key] = flag
        super().__init__((key, _parse(key, text)) for key, text in given.items())
        takes = {*_COMMANDS[args.command][2].split(), "threads"}
        if args.command == "fit":
            fit = self.settings(FitConfig)
            self.fit = self.settings(HtsConfig, fit=fit) if self.get("method") == "hts" else fit
            takes |= _PARSERS.keys() - _OPTIONS.keys()
        for key, (lineno, spelt, _) in lines.items():
            if key not in takes:
                raise _usage_error(f"config line {lineno}: {args.command} takes no key {spelt!r}")

    def require(self, key: str):
        if self.get(key) is None:
            raise _usage_error(f"missing required option --{key}")
        return self[key]

    def settings(self, cls, **kw):
        """``cls`` set from the keys given; what its ``validate`` rejects is a usage error."""
        given = {f.name: self[key] for f in fields(cls) if (key := f.name.replace("_", "-")) in self}
        config = cls(**given, **kw)
        try:
            config.validate()
        except ValueError as exc:
            raise _usage_error(str(exc)) from None
        return config


def _load_network(run: _Run) -> tuple[Network, np.ndarray | None]:
    with open(run.require("network"), encoding="utf-8") as fh:
        return parse_edge_list(fh)


def _load_couplings(run: _Run) -> tuple[Network, np.ndarray]:
    """The network, and couplings from --couplings (an edge-list-with-alpha
    file over the same graph) or the network file's third column."""
    net, net_alpha = _load_network(run)
    path = run.get("couplings")
    if path:
        other, alpha = parse_edge_list(Path(path).read_text(encoding="utf-8"))
        if alpha is None:
            raise ParseError(f"{path}: no coupling column")
        if other != net:
            raise ParseError(f"{path}: edge list does not match --network")
        return net, alpha
    if net_alpha is None:
        raise _usage_error("couplings required: pass --couplings or a 3-column --network")
    return net, net_alpha


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


def _read_cascade_file(net: Network, path: str) -> CascadeTable:
    """The table of the cascade file at ``path``, opened as
    ``Path.read_text`` opens it and read a block at a time."""
    with open(path, encoding="utf-8") as text:
        return read_cascades(net, text)


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_csv(path: str, header: str, keys, *columns) -> None:
    """``header``, then one row per key: the key's cells, then the entry of
    each flat column at the key's position."""
    rows = (",".join([*key, *(repr(float(col[k])) for col in columns)]) for k, key in enumerate(keys))
    _write(path, "\n".join([header, *rows]) + "\n")


def _node_times(net: Network, horizon: int):
    return [(label, str(t)) for label in net.labels for t in range(horizon + 1)]


def _edge_labels(net: Network):
    return [(net.labels[i], net.labels[j]) for i, j in map(net.edge_pair, range(net.n_edges))]


def _cmd_simulate(run: _Run) -> int:
    net, alpha = _load_couplings(run)
    horizon = run.require("horizon")
    n = run.require("num-cascades")
    seed = run.require("seed")
    sources = _parse_sources(run, net, allow_random=True)
    data = generate_dataset(net, alpha, n, sources, horizon, seed)
    _write(run.require("out"), write_cascades(net, data))
    return 0


def _mask_spec(run: _Run, net: Network, cascades: CascadeTable | None, mask_file=None) -> MaskSpec | None:
    """The mask that --hidden, --snapshots and --mask-seed describe, or
    the same keys of ``mask_file``, each parsed by its flag's parser; both
    at once is a usage error.  A random hidden count never picks a source
    of ``cascades``, so without them it gives None; label lists need none,
    and only a count builds the sources."""
    fields = run
    if mask_file:
        clash = [key for key in _MASK_KEYS if key in run]
        if clash:
            raise _usage_error(f"--mask and --{clash[0]} both describe the mask; give one of them")
        fields = {}
        for key, (lineno, spelt, text) in _read_key_values(mask_file, _MASK_KEYS, "line").items():
            try:
                fields[key] = _PARSERS[key](text)
            except ValueError:
                raise ParseError(f"line {lineno}: {spelt} takes integers, got {text!r}") from None
    mask_seed = fields.get("mask-seed")
    # one integer is a count only with a mask seed (random selection needs
    # one), so numeric labels stay labels
    items = [v.strip() for v in fields.get("hidden", "").split(",") if v.strip()]
    hidden = int(items[0]) if len(items) == 1 and items[0].isdigit() and mask_seed is not None else items
    source_nodes = ()
    if isinstance(hidden, int):
        if cascades is None:
            return None
        source_nodes = (cascades.sources % cascades.n_nodes).tolist()
    return resolve_mask(hidden, fields.get("snapshots", "all"), net, mask_seed=mask_seed, exclude=source_nodes)


def _cmd_mask(run: _Run) -> int:
    net, _ = _load_network(run)
    cascades = _read_cascade_file(net, run.require("cascades"))
    spec = _mask_spec(run, net, cascades, run.get("mask"))
    _write(run.require("out"), write_cascades(net, apply_mask(cascades, spec)))
    return 0


def _cmd_fit(run: _Run) -> int:
    net, _ = _load_network(run)
    path = run.require("cascades")
    method = run.get("method", "dmprec")
    if method == "dmprec":
        # the file is summarized as it is read: no whole text and no table is held
        with open(path, encoding="utf-8") as text:
            horizon, blocks = _cascade_blocks(net, text)
            result = _summaries_fit(summarize_dataset(blocks), net, horizon, run.fit)
        alpha, diagnostics = result.couplings_hat, result.diagnostics
    elif method == "netrate":
        dataset = _read_cascade_file(net, path)
        alpha = netrate_fit(dataset, net, run.fit)
        nll = observed_negative_log_likelihood(dataset, net, alpha)
        diagnostics = [(0, nll, 0.0, 0.0)]
    else:
        result = hts_fit(_read_cascade_file(net, path), net, run.fit)
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
    mask, path = run.get("mask"), run.get("cascades")
    if mask:
        cascades = _read_cascade_file(net, path) if path else None
        spec = _mask_spec(run, net, cascades, mask)
        if spec is None:
            raise _usage_error("a random hidden count needs --cascades (their sources are never hidden)")
        included = identifiable_edges(net, spec)
    else:
        included = np.arange(net.n_edges)
    err = float(l1_coupling_error(est, truth, included))
    if run.get("out"):
        _write_csv(run.get("out"), "src,dst,alpha_true,alpha_est", _edge_labels(net), truth, est)
    print(f"normalized_l1_error={err!r}")
    return 0


def _cmd_marginals(run: _Run) -> int:
    net, alpha = _load_couplings(run)
    horizon = run.require("horizon")
    trace = dmp_forward(net, alpha, _parse_sources(run, net), horizon)
    _write_csv(run.require("out"), "node,time,P_S,m", _node_times(net, horizon),
               trace.p_susceptible.T.ravel(), trace.p_activate.T.ravel())
    return 0


def _cmd_oracle(run: _Run) -> int:
    net, alpha = _load_couplings(run)
    horizon = run.require("horizon")
    table = exact_marginals_oracle(net, alpha, _parse_sources(run, net), horizon)
    _write_csv(run.require("out"), "node,time,P_S", _node_times(net, horizon), table.T.ravel())
    return 0


def _cmd_gradcheck(run: _Run) -> int:
    net, alpha = _load_couplings(run)
    horizon = run.require("horizon")
    sources = _parse_sources(run, net, allow_random=True) if run.get("sources") else "random"
    # hidden labels are resolved first and start no random cascade; a
    # random hidden count is drawn after the simulation, among the other nodes
    mask = _mask_spec(run, net, None)
    exclude = mask.hidden_nodes if mask and sources == "random" else ()
    data = generate_dataset(net, alpha, run.get("num-cascades", 20), sources, horizon, run.get("seed", 0), exclude)
    dataset = apply_mask(data, mask or _mask_spec(run, net, data))
    report = free_energy_gradient(dataset, net, alpha)
    h = 1e-5
    analytic = report.gradient
    numeric = np.empty(net.n_edges)
    for e in range(net.n_edges):
        up = alpha.copy()
        up[e] = min(up[e] + h, 1.0)
        dn = alpha.copy()
        dn[e] = max(dn[e] - h, 0.0)
        numeric[e] = (
            observed_negative_log_likelihood(dataset, net, up)
            - observed_negative_log_likelihood(dataset, net, dn)
        ) / (up[e] - dn[e])
    # relative to the max norm: a quotient's rounding, eps |F| / h, is no error near 0
    rel = np.abs(analytic - numeric) / max(float(np.abs(analytic).max(initial=0.0)), 1e-12)
    # fmax skips NaN entries, as a running Python max does
    max_rel = float(np.fmax.reduce(rel, initial=0.0))
    _write_csv(run.require("out"), "src,dst,analytic,numeric,rel_error", _edge_labels(net), analytic, numeric, rel)
    print(f"max_rel_error={max_rel!r}")
    return 0


# Each subcommand: its handler, its help and the run options it takes
# besides --threads and --config, which all take.
_COMMANDS = {
    "simulate": (_cmd_simulate, "generate ground-truth cascades",
                 "network couplings out horizon seed num-cascades sources"),
    "mask": (_cmd_mask, "apply an observation mask to cascades",
             "network cascades mask out hidden snapshots mask-seed"),
    "fit": (_cmd_fit, "reconstruct couplings from observed cascades",
            "network cascades out seed method"),
    "eval": (_cmd_eval, "compare estimated couplings against the truth on the edges a --mask leaves "
             "identifiable; a random hidden count there reads the sources it never hides from --cascades",
             "network couplings mask cascades out"),
    "marginals": (_cmd_marginals, "forward message-passing marginals as CSV",
                  "network couplings out horizon sources"),
    "gradcheck": (_cmd_gradcheck, "finite-difference check of the free-energy gradient",
                  "network couplings out horizon seed num-cascades sources hidden snapshots mask-seed"),
    "oracle": (_cmd_oracle, "exact subset-state marginals (small N) as CSV",
               "network couplings out horizon sources"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-recon",
        description="Reconstruct spreading-model couplings from partially observed cascades.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for key in options.split() + ["threads"]:
            p.add_argument(f"--{key}", help=_OPTIONS[key][1])
        p.add_argument("--config", help="key = value config file; flags override file values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args)
    except (CascadeReconError, FileNotFoundError) as exc:
        # a bad --config file is a usage problem, not a data problem
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][0](run)
    except (CascadeReconError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
