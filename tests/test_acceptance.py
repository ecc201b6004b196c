"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Criteria 1-5 also feed the normalization checks asserted by
criterion 6.
"""

import numpy as np
import pytest

import cascade_recon as cr

from conftest import (
    GradTrace,
    dmp_forward_with_gradients,
    preferential_attachment_net,
    random_couplings,
    random_loopy_net,
    random_tree_net,
)

# accumulated by criteria 1-5, asserted by criterion 6
_NORM_DEVS: list[float] = []
_DERIV_NORM_DEVS: list[float] = []


def _check_normalization(trace: cr.DmpTrace) -> None:
    T = trace.horizon
    total = trace.p_activate[:T].sum(axis=0) + trace.p_susceptible[T - 1]
    _NORM_DEVS.append(float(np.abs(total - 1.0).max()))


def _check_derivative_normalization(gtrace: GradTrace) -> None:
    T = gtrace.horizon
    total = sum(gtrace.d_activation(t) for t in range(T)) + gtrace.d_p_susceptible[T - 1]
    _DERIV_NORM_DEVS.append(float(np.abs(total).max()))


def test_criterion_1_tree_exactness():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        net = random_tree_net(n, rng)
        alpha = random_couplings(net, rng)
        src = [int(rng.integers(n))]
        T = int(rng.integers(2, 9))
        trace = cr.dmp_forward(net, alpha, src, T)
        table = cr.exact_marginals_oracle(net, alpha, src, T)
        worst = max(worst, float(np.abs(trace.p_susceptible - table).max()))
        _check_normalization(trace)
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 1: PASS — tree exactness, max |mp - exact| = {worst:.2e} <= 1e-10")


def test_criterion_2_lower_bound():
    rng = np.random.default_rng(1002)
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(4, 11))
        net = random_loopy_net(n, int(rng.integers(2, 7)), rng)
        alpha = random_couplings(net, rng)
        src = [int(rng.integers(n))]
        T = int(rng.integers(2, 9))
        trace = cr.dmp_forward(net, alpha, src, T)
        table = cr.exact_marginals_oracle(net, alpha, src, T)
        worst = max(worst, float((trace.p_susceptible - table).max()))
        _check_normalization(trace)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 2: PASS — lower bound on loopy graphs, max (mp - exact) = {worst:.2e} <= 1e-12")


def test_criterion_3_monte_carlo_agreement():
    rng = np.random.default_rng(1003)
    net = random_loopy_net(9, 6, rng)
    alpha = random_couplings(net, rng)
    T, runs = 10, 10**6
    trace = cr.dmp_forward(net, alpha, [0], T)
    _check_normalization(trace)
    mc = cr.monte_carlo_marginals(net, alpha, [0], T, runs, rng=1003)
    se = np.sqrt(np.maximum(mc[T] * (1 - mc[T]), 1e-12) / runs)
    diff = trace.p_susceptible[T] - mc[T]
    tol = np.maximum(4 * se, 0.02)
    assert np.all(np.abs(diff) <= tol)
    assert np.all(diff <= 4 * se + 1e-12)  # never statistically above the truth
    print(
        f"\nACCEPTANCE 3: PASS — vs 1e6-run Monte Carlo at t={T}: "
        f"max |diff| = {np.abs(diff).max():.4f}, max above = {diff.max():.2e}"
    )


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(1004)
    h = 1e-5
    worst_rel, worst_abs = 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(4, 13))
        net = (random_tree_net if trial % 3 == 0 else lambda n, r: random_loopy_net(n, int(r.integers(2, 6)), r))(n, rng)
        truth = random_couplings(net, rng, 0.05, 0.95)
        alpha = random_couplings(net, rng, 0.05, 0.95)
        T = int(rng.integers(3, 9))
        data = cr.generate_dataset(net, truth, int(rng.integers(10, 40)), "random", T, seed=trial)
        n_hidden = int(rng.integers(0, 3))
        hidden = frozenset(int(x) for x in rng.choice(n, size=n_hidden, replace=False))
        if trial % 2:
            snaps = tuple(sorted(set(int(x) for x in rng.choice(T, size=max(2, T // 2), replace=False)) | {T}))
        else:
            snaps = None
        mask = cr.MaskSpec(hidden, snaps)
        dataset = []
        for c in data:
            obs = cr.apply_mask(c, mask)
            if obs.sources.size:
                dataset.append(obs)
        if not dataset:
            continue
        report = cr.free_energy_gradient(dataset, net, alpha)
        for e in range(net.n_edges):
            up, dn = alpha.copy(), alpha.copy()
            up[e] += h
            dn[e] -= h
            fd = (
                cr.observed_negative_log_likelihood(dataset, net, up)
                - cr.observed_negative_log_likelihood(dataset, net, dn)
            ) / (2 * h)
            an = float(report.gradient[e])
            if abs(an) >= 1e-6:
                worst_rel = max(worst_rel, abs(an - fd) / abs(an))
            else:
                worst_abs = max(worst_abs, abs(an - fd))
        _, gtrace = dmp_forward_with_gradients(net, alpha, dataset[0].sources, T)
        _check_derivative_normalization(gtrace)
    assert worst_rel <= 1e-5
    assert worst_abs <= 1e-8
    print(
        f"\nACCEPTANCE 4: PASS — gradient vs central differences on 50 masked instances: "
        f"max rel = {worst_rel:.2e}, max abs (tiny coords) = {worst_abs:.2e}"
    )


def test_criterion_5_population_gradient_vanishes_at_truth():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 12))
        net = random_tree_net(n, rng)
        astar = random_couplings(net, rng)
        src = [int(rng.integers(n))]
        T = int(rng.integers(3, 9))
        _, grad = cr.population_free_energy(net, astar, astar, src, T)
        worst = max(worst, float(np.abs(grad).max()))
        trace, gtrace = dmp_forward_with_gradients(net, astar, src, T)
        _check_normalization(trace)
        _check_derivative_normalization(gtrace)
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 5: PASS — population gradient at true couplings, max norm = {worst:.2e} <= 1e-8")


def test_criterion_6_normalization_identities():
    assert len(_NORM_DEVS) >= 420, "criteria 1-5 must run first"
    assert len(_DERIV_NORM_DEVS) >= 60
    worst = max(_NORM_DEVS)
    worst_d = max(_DERIV_NORM_DEVS)
    assert worst <= 1e-10
    assert worst_d <= 1e-10
    print(
        f"\nACCEPTANCE 6: PASS — normalization identities over {len(_NORM_DEVS)} runs: "
        f"max dev = {worst:.2e}; derivative version over {len(_DERIV_NORM_DEVS)} runs: {worst_d:.2e}"
    )


def test_criterion_7_single_edge_consistency():
    net, _ = cr.parse_edge_list("0\t1\n")
    T, M, astar = 10, 10**5, 0.3
    data = cr.generate_dataset(net, [astar], M, [0], T, seed=7007)
    taus = np.array([c.times[1] for c in data])
    n_act = int((taus < T).sum())
    survived = int((taus[taus < T] - 1).sum() + (taus == T).sum() * (T - 1))
    mle = n_act / (n_act + survived)
    fit = cr.dmprec_fit([cr.apply_mask(c, cr.MaskSpec()) for c in data], net)
    netrate = cr.netrate_fit(data, net)
    assert abs(fit.couplings_hat[0] - mle) <= 0.01
    assert abs(netrate[0] - mle) <= 0.01
    print(
        f"\nACCEPTANCE 7: PASS — single edge, M=1e5: closed-form MLE {mle:.5f}, "
        f"dmprec {fit.couplings_hat[0]:.5f}, netrate {netrate[0]:.5f} (both within 0.01)"
    )


def test_criterion_8_reconstruction_error_vs_samples():
    rng = np.random.default_rng(123)
    net = preferential_attachment_net(20, 2, rng)
    truth = rng.uniform(0, 1, net.n_edges)
    T = 10
    hidden = frozenset(int(x) for x in rng.choice(20, size=5, replace=False))
    mask = cr.MaskSpec(hidden, None)
    included = cr.identifiable_edges(net, mask)
    errors = []
    for M in (200, 800, 3200, 6400):
        data = cr.generate_dataset(net, truth, M, "random", T, seed=777 + M, exclude=hidden)
        dataset = cr.apply_mask(data, mask)
        res = cr.dmprec_fit(dataset, net)
        errors.append(cr.l1_coupling_error(res.couplings_hat, truth, included))
    diffs = np.diff(errors)
    inversions = diffs[diffs > 0]
    assert inversions.size <= 1
    assert np.all(inversions <= 0.005)
    assert errors[-1] < 0.125
    print(
        f"\nACCEPTANCE 8: PASS — errors over M=(200,800,3200,6400): "
        f"{[round(e, 4) for e in errors]}; final {errors[-1]:.4f} < 0.125"
    )


def test_criterion_9_dmprec_beats_hts():
    rng = np.random.default_rng(43)
    net = preferential_attachment_net(14, 2, rng)
    truth = rng.uniform(0, 1, net.n_edges)
    T, M = 8, 1600
    hidden = frozenset(int(x) for x in rng.choice(14, size=3, replace=False))
    mask = cr.MaskSpec(hidden, None)
    included = cr.identifiable_edges(net, mask)
    data = cr.generate_dataset(net, truth, M, "random", T, seed=4242, exclude=hidden)
    dataset = cr.apply_mask(data, mask)
    err_dmprec = cr.l1_coupling_error(cr.dmprec_fit(dataset, net).couplings_hat, truth, included)
    hts = cr.hts_fit(dataset, net, cr.HtsConfig(aux_samples=1000, outer_rounds=10, seed=5))
    err_hts = cr.l1_coupling_error(hts.couplings_hat, truth, included)
    assert err_dmprec <= err_hts
    print(f"\nACCEPTANCE 9: PASS — errors: dmprec {err_dmprec:.4f} <= two-stage baseline {err_hts:.4f}")


def test_criterion_10_snapshot_reconstruction():
    rng = np.random.default_rng(7)
    net = random_tree_net(14, rng)
    truth = rng.uniform(0, 1, net.n_edges)
    T, M = 10, 6400
    mask = cr.MaskSpec(frozenset(), tuple(range(0, T + 1, 2)))
    included = cr.identifiable_edges(net, mask)
    data = cr.generate_dataset(net, truth, M, "random", T, seed=99)
    dataset = [cr.apply_mask(c, mask) for c in data]
    est = cr.dmprec_fit(dataset, net).couplings_hat
    mae = cr.l1_coupling_error(est, truth, included)
    corr = float(np.corrcoef(est[included], truth[included])[0, 1])
    assert mae < 0.1
    assert corr > 0.9
    print(f"\nACCEPTANCE 10: PASS — every-other-step snapshots: MAE {mae:.4f} < 0.1, correlation {corr:.3f} > 0.9")


def test_criterion_11_marginalized_likelihood_sanity():
    rng = np.random.default_rng(1011)
    worst = 0.0
    count = 0
    for _ in range(12):
        n = int(rng.integers(3, 7))
        net = random_loopy_net(n, int(rng.integers(1, 4)), rng)
        alpha = random_couplings(net, rng)
        T = int(rng.integers(2, 5))
        src = int(rng.integers(n))
        c = cr.generate_dataset(net, alpha, 1, [src], T, seed=count)[0]
        obs = cr.apply_mask(c, cr.MaskSpec(frozenset(set(range(n)) - {src}), None))
        val = cr.marginalized_likelihood(obs, net, alpha)
        worst = max(worst, abs(val))
        count += 1
    assert worst <= 1e-9
    print(
        f"\nACCEPTANCE 11: PASS — fully marginalized likelihood equals 1 on {count} instances: "
        f"max |log| = {worst:.2e} <= 1e-9"
    )


def test_criterion_12_pipeline_determinism(tmp_path):
    from cascade_recon.cli import main
    from cascade_recon import serialize_edge_list

    rng = np.random.default_rng(1012)
    net = random_tree_net(9, rng)
    truth = random_couplings(net, rng, 0.15, 0.85)
    netfile = tmp_path / "net.edges"
    netfile.write_text(serialize_edge_list(net, truth))
    bare = tmp_path / "bare.edges"
    bare.write_text(serialize_edge_list(net))
    artifacts = {}
    for threads in (1, 8):
        d = tmp_path / f"threads{threads}"
        d.mkdir()
        common = ["--threads", str(threads)]
        assert main(["simulate", "--network", str(netfile), "--horizon", "8",
                     "--num-cascades", "400", "--sources", net.labels[0], "--seed", "9",
                     "--out", str(d / "truth.txt"), *common]) == 0
        assert main(["mask", "--network", str(netfile), "--cascades", str(d / "truth.txt"),
                     "--hidden", "2", "--mask-seed", "13", "--snapshots", "all",
                     "--out", str(d / "obs.txt"), *common]) == 0
        assert main(["fit", "--network", str(bare), "--cascades", str(d / "obs.txt"),
                     "--method", "dmprec", "--out", str(d / "est.edges"), *common]) == 0
        assert main(["eval", "--network", str(netfile), "--couplings", str(d / "est.edges"),
                     "--out", str(d / "scatter.csv"), *common]) == 0
        assert main(["marginals", "--network", str(netfile), "--horizon", "8",
                     "--sources", net.labels[0], "--out", str(d / "marg.csv"), *common]) == 0
        artifacts[threads] = {
            name: (d / name).read_bytes()
            for name in ("truth.txt", "obs.txt", "est.edges", "est.edges.diag.csv",
                         "scatter.csv", "marg.csv")
        }
    assert artifacts[1] == artifacts[8]
    print("\nACCEPTANCE 12: PASS — simulate/mask/fit/eval/marginals byte-identical with 1 and 8 threads")
