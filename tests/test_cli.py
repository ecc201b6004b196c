"""End-to-end command-line pipelines and artifact round trips."""

import numpy as np
import pytest

from cascade_recon import parse_edge_list, read_cascades, serialize_edge_list
from cascade_recon import cli
from cascade_recon.cli import build_parser, main

from conftest import random_tree_net, random_couplings


@pytest.fixture
def workdir(tmp_path, rng):
    net = random_tree_net(8, rng)
    truth = random_couplings(net, rng, 0.15, 0.85)
    netfile = tmp_path / "net.edges"
    netfile.write_text(serialize_edge_list(net, truth))
    bare = tmp_path / "net_bare.edges"
    bare.write_text(serialize_edge_list(net))
    return tmp_path, net, truth


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_reproducible_artifact(self, workdir):
        tmp, net, truth = workdir
        out1, out2 = tmp / "c1.txt", tmp / "c2.txt"
        for out in (out1, out2):
            rc = run("simulate", "--network", tmp / "net.edges", "--horizon", 10,
                     "--num-cascades", 50, "--sources", "random", "--seed", 7, "--out", out)
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        cascades = read_cascades(net, out1.read_text())
        assert len(cascades) == 50
        assert all(obs.sources.size == 1 for obs in cascades)

    def test_explicit_couplings_file(self, workdir):
        tmp, net, truth = workdir
        rc = run("simulate", "--network", tmp / "net_bare.edges", "--couplings", tmp / "net.edges",
                 "--horizon", 6, "--num-cascades", 5, "--sources", net.labels[0],
                 "--seed", 1, "--out", tmp / "c.txt")
        assert rc == 0

    def test_missing_couplings_is_usage_error(self, workdir):
        tmp, net, _ = workdir
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--network", tmp / "net_bare.edges", "--horizon", 6,
                "--num-cascades", 5, "--sources", "random", "--seed", 1, "--out", tmp / "c.txt")
        assert exc.value.code == 2


class TestMaskFitEval:
    def _simulate(self, tmp, M=800, seed=3, sources="random"):
        run("simulate", "--network", tmp / "net.edges", "--horizon", 8,
            "--num-cascades", M, "--sources", sources, "--seed", seed, "--out", tmp / "truth.txt")

    def test_full_pipeline(self, workdir):
        tmp, net, truth = workdir
        # random hiding protects source nodes, so fix the source
        self._simulate(tmp, sources="0")
        rc = run("mask", "--network", tmp / "net.edges", "--cascades", tmp / "truth.txt",
                 "--hidden", 2, "--mask-seed", 5, "--snapshots", "all", "--out", tmp / "obs.txt")
        assert rc == 0
        rc = run("fit", "--network", tmp / "net_bare.edges", "--cascades", tmp / "obs.txt",
                 "--method", "dmprec", "--out", tmp / "est.edges")
        assert rc == 0
        diag = (tmp / "est.edges.diag.csv").read_text().splitlines()
        assert diag[0] == "iter,free_energy,step_size,grad_inf_norm"
        assert len(diag) > 2
        est_net, est = parse_edge_list((tmp / "est.edges").read_text())
        assert est_net == net

        rc = run("eval", "--network", tmp / "net.edges", "--couplings", tmp / "est.edges",
                 "--out", tmp / "scatter.csv")
        assert rc == 0
        scatter = (tmp / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "src,dst,alpha_true,alpha_est"
        assert len(scatter) == net.n_edges + 1

    def test_eval_zero_for_truth(self, workdir, capsys):
        tmp, net, truth = workdir
        rc = run("eval", "--network", tmp / "net.edges", "--couplings", tmp / "net.edges")
        assert rc == 0
        out = capsys.readouterr().out
        assert "normalized_l1_error=0.0" in out

    def test_eval_scores_the_edges_the_mask_hid(self, tmp_path, capsys, monkeypatch):
        # a random hidden count never picks a source of --cascades, in mask
        # and in eval alike; sources are visible in both files.  Every hub30
        # node has out-edges, so every edge counts whatever is hidden: the
        # hidden nodes eval resolves are read where it asks for the edges
        from importlib.resources import files

        from cascade_recon import MaskSpec, identifiable_edges, l1_coupling_error

        hub = tmp_path / "hub30.edges"
        hub.write_text(files("cascade_recon").joinpath("data/hub30.edges").read_text())
        net, truth = parse_edge_list(hub.read_text())
        est = np.full(net.n_edges, 0.5)
        (tmp_path / "est.edges").write_text(serialize_edge_list(net, est))
        (tmp_path / "random.spec").write_text("hidden=3\nsnapshots=all\nmask_seed=2\n")
        (tmp_path / "labels.spec").write_text("hidden=H03,H17,H22\nsnapshots=2,4\n")
        assert run("simulate", "--network", hub, "--horizon", 10, "--num-cascades", 40, "--sources", "random",
                   "--seed", 1, "--out", tmp_path / "truth.txt") == 0
        assert run("mask", "--network", hub, "--cascades", tmp_path / "truth.txt",
                   "--mask", tmp_path / "random.spec", "--out", tmp_path / "observed.txt") == 0
        hidden = np.flatnonzero(read_cascades(net, (tmp_path / "observed.txt").read_text()).hidden.all(axis=0))
        assert [net.labels[i] for i in hidden] == ["H01", "H04", "H11"]

        resolved = []

        def recorded(net, spec):
            resolved.append(spec)
            return identifiable_edges(net, spec)

        monkeypatch.setattr(cli, "identifiable_edges", recorded)

        def scored(spec, *cascades):
            capsys.readouterr()
            rc = run("eval", "--network", hub, "--couplings", tmp_path / "est.edges",
                     "--mask", tmp_path / spec, *cascades)
            return rc, capsys.readouterr()

        def line(hidden_labels):
            spec = MaskSpec(frozenset(net.label_index[v] for v in hidden_labels))
            return f"normalized_l1_error={float(l1_coupling_error(est, truth, identifiable_edges(net, spec)))!r}\n"

        for cascades in ("truth.txt", "observed.txt"):
            assert scored("random.spec", "--cascades", tmp_path / cascades) == (0, (line(["H01", "H04", "H11"]), ""))
        want = (0, (line(["H03", "H17", "H22"]), ""))
        assert scored("labels.spec") == scored("labels.spec", "--cascades", tmp_path / "truth.txt") == want
        assert [sorted(net.labels[i] for i in spec.hidden_nodes) for spec in resolved] == [
            ["H01", "H04", "H11"], ["H01", "H04", "H11"], ["H03", "H17", "H22"], ["H03", "H17", "H22"],
        ]
        with pytest.raises(SystemExit) as exc:
            scored("random.spec")
        assert exc.value.code == 2
        message = "error: a random hidden count needs --cascades (their sources are never hidden)\n"
        assert capsys.readouterr() == ("", message)

    def test_mask_spec_file(self, workdir):
        tmp, net, _ = workdir
        self._simulate(tmp, M=20, sources="0")
        (tmp / "mask.spec").write_text("hidden=2\nsnapshots=2,4,6,8\nmask_seed=11\n")
        rc = run("mask", "--network", tmp / "net.edges", "--cascades", tmp / "truth.txt",
                 "--mask", tmp / "mask.spec", "--out", tmp / "obs.txt")
        assert rc == 0
        observed = read_cascades(net, (tmp / "obs.txt").read_text())
        assert sum(bool(o.hidden.any()) for o in observed) == len(observed)

    def test_netrate_method(self, workdir):
        tmp, net, truth = workdir
        self._simulate(tmp, M=400)
        rc = run("fit", "--network", tmp / "net_bare.edges", "--cascades", tmp / "truth.txt",
                 "--method", "netrate", "--out", tmp / "nr.edges")
        assert rc == 0

    def test_hts_method(self, workdir, tmp_path):
        tmp, net, truth = workdir
        self._simulate(tmp, M=60)
        (tmp / "cfg.txt").write_text("aux-samples = 50\nouter-rounds = 2\n")
        rc = run("fit", "--network", tmp / "net_bare.edges", "--cascades", tmp / "truth.txt",
                 "--method", "hts", "--seed", 4, "--config", tmp / "cfg.txt",
                 "--out", tmp / "hts.edges")
        assert rc == 0

    @pytest.mark.parametrize("config_method, flags, expected", [
        ("hts", [], "hts"),
        ("netrate", [], "netrate"),
        ("hts", ["--method", "dmprec"], "dmprec"),  # the flag wins
    ])
    def test_config_method_selects_estimator(self, workdir, config_method, flags, expected):
        tmp, net, _ = workdir
        self._simulate(tmp, M=60)
        settings = "aux-samples = 50\nouter-rounds = 2\nmax-iters = 20\n"
        (tmp / "cfg.txt").write_text(f"method = {config_method}\n{settings}")
        (tmp / "ref.txt").write_text(settings)
        common = ["--network", tmp / "net_bare.edges", "--cascades", tmp / "truth.txt", "--seed", 4]
        assert run("fit", *common, *flags, "--config", tmp / "cfg.txt", "--out", tmp / "a.edges") == 0
        assert run("fit", *common, "--method", expected, "--config", tmp / "ref.txt",
                   "--out", tmp / "b.edges") == 0
        for name in ("{}.edges", "{}.edges.diag.csv"):
            assert (tmp / name.format("a")).read_bytes() == (tmp / name.format("b")).read_bytes()


class TestPinnedArtifacts:
    """``simulate`` and ``mask`` on the bundled hub30 network write the
    bytes pinned here: the simulator's random stream, masking and the file
    format are part of the artifacts' contract."""

    SHA256 = {
        "truth.txt": "dfb310a811b700997b65d1f2f3d98e434ff5d8ebb1083bfadc43954ac10336a8",
        "observed.txt": "3d42b1e5465c9c5e031ab1deacea3d265ec1bef5563b0fe875591d4af4badf01",
        "truth2.txt": "6760f5225a8d1a000d10f6d1746b449e06d9695b45f5a03e2519131cff39c1cf",
        "observed2.txt": "667f53728e4f5c55b5a6661deeb06f8dfcfacd58169f96adb281283eb432e558",
    }

    def test_hub30_simulate_and_mask(self, tmp_path):
        import hashlib
        from importlib.resources import files

        hub = tmp_path / "hub30.edges"
        hub.write_text(files("cascade_recon").joinpath("data/hub30.edges").read_text())
        (tmp_path / "mask.spec").write_text("hidden=H03,H17,H22\nsnapshots=2,4,6\n")
        common = ["--network", hub, "--horizon", 6]
        assert run("simulate", *common, "--num-cascades", 300, "--sources", "random", "--seed", 11,
                   "--out", tmp_path / "truth.txt") == 0
        assert run("mask", "--network", hub, "--cascades", tmp_path / "truth.txt",
                   "--mask", tmp_path / "mask.spec", "--out", tmp_path / "observed.txt") == 0
        assert run("simulate", *common, "--num-cascades", 200, "--sources", "H00,H05", "--seed", 12,
                   "--out", tmp_path / "truth2.txt") == 0
        assert run("mask", "--network", hub, "--cascades", tmp_path / "truth2.txt", "--hidden", 4,
                   "--mask-seed", 3, "--snapshots", "3,6", "--out", tmp_path / "observed2.txt") == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.SHA256}
        assert digests == self.SHA256


class TestDeterminism:
    def test_pipeline_byte_identical_across_threads(self, workdir):
        tmp, net, _ = workdir
        artifacts = {}
        for threads in (1, 8):
            d = tmp / f"t{threads}"
            d.mkdir()
            run("simulate", "--network", tmp / "net.edges", "--horizon", 8,
                "--num-cascades", 300, "--sources", "0", "--seed", 9,
                "--threads", threads, "--out", d / "truth.txt")
            run("mask", "--network", tmp / "net.edges", "--cascades", d / "truth.txt",
                "--hidden", 2, "--mask-seed", 13, "--threads", threads,
                "--out", d / "obs.txt")
            run("fit", "--network", tmp / "net_bare.edges", "--cascades", d / "obs.txt",
                "--method", "dmprec", "--threads", threads,
                "--out", d / "est.edges")
            run("eval", "--network", tmp / "net.edges", "--couplings", d / "est.edges",
                "--threads", threads, "--out", d / "scatter.csv")
            artifacts[threads] = {
                name: (d / name).read_bytes()
                for name in ("truth.txt", "obs.txt", "est.edges", "est.edges.diag.csv", "scatter.csv")
            }
        assert artifacts[1] == artifacts[8]


class TestAuxCommands:
    def test_marginals_csv(self, workdir):
        tmp, net, _ = workdir
        rc = run("marginals", "--network", tmp / "net.edges", "--horizon", 5,
                 "--sources", net.labels[0], "--out", tmp / "m.csv")
        assert rc == 0
        lines = (tmp / "m.csv").read_text().splitlines()
        assert lines[0] == "node,time,P_S,m"
        assert len(lines) == net.n_nodes * 6 + 1

    def test_oracle_csv_matches_marginals_on_tree(self, workdir):
        tmp, net, _ = workdir
        run("marginals", "--network", tmp / "net.edges", "--horizon", 4,
            "--sources", net.labels[0], "--out", tmp / "m.csv")
        rc = run("oracle", "--network", tmp / "net.edges", "--horizon", 4,
                 "--sources", net.labels[0], "--out", tmp / "o.csv")
        assert rc == 0
        m = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in (tmp / "m.csv").read_text().splitlines()[1:]}
        o = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in (tmp / "o.csv").read_text().splitlines()[1:]}
        for key, val in o.items():
            assert m[key] == pytest.approx(val, abs=1e-10)

    def test_gradcheck(self, workdir, capsys):
        tmp, net, _ = workdir
        rc = run("gradcheck", "--network", tmp / "net.edges", "--horizon", 6,
                 "--num-cascades", 15, "--seed", 2, "--sources", "0",
                 "--hidden", 1, "--mask-seed", 3, "--out", tmp / "g.csv")
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_rel_error=" in out
        max_rel = float(out.split("max_rel_error=")[1].strip())
        assert max_rel <= 1e-5
        lines = (tmp / "g.csv").read_text().splitlines()
        assert lines[0] == "src,dst,analytic,numeric,rel_error"
        assert len(lines) == net.n_edges + 1


class TestErrorsAndConfig:
    def test_module_error_is_exit_1(self, workdir, capsys):
        tmp, net, _ = workdir
        bad = tmp / "bad.edges"
        bad.write_text("0\t0\n")
        rc = run("marginals", "--network", bad, "--horizon", 3, "--sources", "0",
                 "--out", tmp / "x.csv")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1:x", "1:(1,b]", "1:x+"])
    def test_non_integer_cascade_time_is_exit_1(self, workdir, capsys, token):
        tmp, net, _ = workdir
        (tmp / "obs.txt").write_text(f"T=8\n# observed\n0\t0:0,1:3\n1\t0:0,{token}\n")
        rc = run("fit", "--network", tmp / "net_bare.edges", "--cascades", tmp / "obs.txt",
                 "--out", tmp / "est.edges")
        assert rc == 1
        assert capsys.readouterr().err == f"error: line 4: non-integer time in token '{token}'\n"

    @pytest.mark.parametrize("line, message", [
        ("snapshots=2,x", "line 2: snapshots takes integers, got '2,x'"),
        ("mask_seed=abc", "line 2: mask_seed takes integers, got 'abc'"),
    ])
    def test_non_integer_mask_spec_value_is_exit_1(self, workdir, capsys, line, message):
        tmp, net, _ = workdir
        run("simulate", "--network", tmp / "net.edges", "--horizon", 8, "--num-cascades", 5,
            "--sources", "0", "--seed", 1, "--out", tmp / "truth.txt")
        (tmp / "mask.spec").write_text(f"hidden=2\n{line}\n")
        rc = run("mask", "--network", tmp / "net.edges", "--cascades", tmp / "truth.txt",
                 "--mask", tmp / "mask.spec", "--out", tmp / "obs.txt")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mask_of_partly_observed_cascades_is_exit_1(self, workdir, capsys):
        tmp, net, _ = workdir
        (tmp / "obs.txt").write_text("T=8\n0\t0:0,1:3\n1\t0:0,1:(1,3]\n")
        rc = run("mask", "--network", tmp / "net.edges", "--cascades", tmp / "obs.txt",
                 "--hidden", "", "--out", tmp / "masked.txt")
        assert rc == 1
        assert capsys.readouterr().err == "error: cascade is not fully observed\n"
        assert not (tmp / "masked.txt").exists()

    def test_label_that_would_not_read_back_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "net.edges").write_text("h\ta,b\t0.5\na,b\td:e\t0.5\nd:e\tf(g\t0.5\n")
        rc = run("simulate", "--network", tmp_path / "net.edges", "--horizon", 4, "--num-cascades", 5,
                 "--sources", "h", "--seed", 1, "--out", tmp_path / "truth.txt")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: node label 'a,b' cannot be written to a cascade file")
        assert not (tmp_path / "truth.txt").exists()

    def test_all_hidden_cascade_reports_no_source(self, workdir, capsys):
        tmp, net, _ = workdir
        (tmp / "obs.txt").write_text("T=8\n0\t0:0,1:3\n1\t\n")
        rc = run("fit", "--network", tmp / "net_bare.edges", "--cascades", tmp / "obs.txt",
                 "--out", tmp / "est.edges")
        assert rc == 1
        assert capsys.readouterr().err == "error: cascade 1 has no observed source; cannot fit\n"

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--method", "bogus")
        assert exc.value.code == 2

    def test_unknown_config_key_rejected(self, workdir, capsys):
        tmp, net, _ = workdir
        (tmp / "cfg.txt").write_text("frobnicate = 3\n")
        rc = run("marginals", "--network", tmp / "net.edges", "--horizon", 3,
                 "--sources", net.labels[0], "--config", tmp / "cfg.txt",
                 "--out", tmp / "m.csv")
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_step_init_is_not_a_config_key(self, workdir, capsys):
        # the first steepest-descent trial is derived from the gradient and the box
        tmp, net, _ = workdir
        run("simulate", "--network", tmp / "net.edges", "--horizon", 8, "--num-cascades", 5,
            "--sources", "0", "--seed", 1, "--out", tmp / "truth.txt")
        (tmp / "cfg.txt").write_text("step-init = 1\n")
        rc = run("fit", "--network", tmp / "net.edges", "--cascades", tmp / "truth.txt",
                 "--config", tmp / "cfg.txt", "--out", tmp / "est.edges")
        assert rc == 2
        assert capsys.readouterr().err == "error: config line 1: unknown key 'step-init'\n"

    def test_deterministic_is_a_usage_error(self, workdir, capsys):
        # results never depended on it: the reduction order is fixed
        tmp, net, _ = workdir
        common = ("marginals", "--network", tmp / "net.edges", "--horizon", 3,
                  "--sources", net.labels[0], "--out", tmp / "m.csv")
        with pytest.raises(SystemExit) as exc:
            run(*common, "--deterministic")
        assert exc.value.code == 2
        assert "unrecognized arguments: --deterministic" in capsys.readouterr().err
        (tmp / "cfg.txt").write_text("deterministic = 1\n")
        assert run(*common, "--config", tmp / "cfg.txt") == 2
        assert capsys.readouterr().err == "error: config line 1: unknown key 'deterministic'\n"
        assert not (tmp / "m.csv").exists()

    @pytest.mark.parametrize("command, horizon, least", [
        ("simulate", 0, 1), ("marginals", 0, 1), ("gradcheck", 0, 1), ("oracle", -1, 0),
    ])
    def test_horizon_below_least_is_exit_1(self, workdir, capsys, command, horizon, least):
        tmp, net, _ = workdir
        simulates = ["--num-cascades", 5, "--seed", 1] if command in ("simulate", "gradcheck") else []
        rc = run(command, "--network", tmp / "net.edges", "--horizon", horizon,
                 "--sources", net.labels[0], *simulates, "--out", tmp / "out.txt")
        assert rc == 1
        assert capsys.readouterr().err == f"error: horizon must be >= {least}\n"
        assert not (tmp / "out.txt").exists()

    def test_oracle_horizon_zero(self, workdir):
        tmp, net, _ = workdir
        rc = run("oracle", "--network", tmp / "net.edges", "--horizon", 0,
                 "--sources", net.labels[0], "--out", tmp / "o.csv")
        assert rc == 0
        assert len((tmp / "o.csv").read_text().splitlines()) == net.n_nodes + 1

    def test_flags_override_config(self, workdir):
        tmp, net, _ = workdir
        (tmp / "cfg.txt").write_text(f"network = {tmp/'net.edges'}\nhorizon = 4\nsources = {net.labels[0]}\n")
        rc = run("marginals", "--config", tmp / "cfg.txt", "--horizon", 3, "--out", tmp / "m.csv")
        assert rc == 0
        lines = (tmp / "m.csv").read_text().splitlines()
        assert len(lines) == net.n_nodes * 4 + 1  # horizon 3 from the flag, not 4

    def test_env_threads_default(self, workdir, monkeypatch):
        tmp, net, _ = workdir
        monkeypatch.setenv("CASCADE_RECON_THREADS", "4")
        rc = run("marginals", "--network", tmp / "net.edges", "--horizon", 3,
                 "--sources", net.labels[0], "--out", tmp / "m.csv")
        assert rc == 0

    def test_env_threads_ignored(self, workdir, monkeypatch):
        tmp, net, _ = workdir
        run("simulate", "--network", tmp / "net.edges", "--horizon", 6, "--num-cascades", 20,
            "--sources", "random", "--seed", 1, "--out", tmp / "truth.txt")
        (tmp / "cfg.txt").write_text("max-iters = 2\n")
        monkeypatch.setenv("CASCADE_RECON_THREADS", "x")
        rc = run("fit", "--network", tmp / "net_bare.edges", "--cascades", tmp / "truth.txt",
                 "--config", tmp / "cfg.txt", "--out", tmp / "est.edges")
        assert rc == 0

    @pytest.mark.parametrize("args, message", [
        (["--mask", "hidden=foo\n"], "hidden node 'foo' is not a node label"),
        (["--mask", "hidden=1\n"], "hidden node '1' is not a node label"),
        (["--hidden", "1"], "hidden node '1' is not a node label"),
    ])
    def test_hidden_entry_not_a_label_is_exit_1(self, tmp_path, capsys, args, message):
        # labels 10, 20, 30: the number 1 is not a label, though it is a node index
        (tmp_path / "net.edges").write_text("10\t20\t0.5\n20\t30\t0.5\n")
        run("simulate", "--network", tmp_path / "net.edges", "--horizon", 4, "--num-cascades", 5,
            "--sources", "10", "--seed", 1, "--out", tmp_path / "truth.txt")
        flag, value = args
        if flag == "--mask":
            (tmp_path / "mask.spec").write_text(value)
            value = tmp_path / "mask.spec"
        rc = run("mask", "--network", tmp_path / "net.edges", "--cascades", tmp_path / "truth.txt",
                 flag, value, "--out", tmp_path / "obs.txt")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "obs.txt").exists()

    @pytest.mark.parametrize("command, flags, line, message", [
        ("mask", ["--snapshots", "2,x"], "", "snapshots: expected an integer, got 'x'"),
        ("mask", [], "snapshots = 2,x", "snapshots: expected an integer, got 'x'"),
        ("mask", [], "mask-seed = x", "mask-seed: expected an integer, got 'x'"),
        ("fit", [], "max-iters = x", "max-iters: expected an integer, got 'x'"),
        ("fit", [], "alpha-init = x", "alpha-init: expected a number, got 'x'"),
        ("fit", [], "alpha-min = 1e-3x", "alpha-min: expected a number, got '1e-3x'"),
        ("fit", [], "alpha-max = 0.9.9", "alpha-max: expected a number, got '0.9.9'"),
        ("fit", [], "tol = small", "tol: expected a number, got 'small'"),
        ("fit", [], "outer-rounds =", "outer-rounds: expected an integer, got ''"),
        ("fit", ["--method", "hts"], "param-tol = x", "param-tol: expected a number, got 'x'"),
        # settings that parse but HtsConfig.validate or FitConfig.validate rejects
        ("fit", ["--method", "hts"], "aux-samples = 0", "aux_samples must be >= 1"),
        ("fit", ["--method", "hts"], "outer-rounds = -1", "outer_rounds must be >= 0"),
        ("fit", ["--method", "hts"], "param-tol = nan", "param_tol must be positive and finite"),
        ("fit", [], "tol = nan", "tol must be positive and finite"),
        ("fit", [], "alpha-init = nan", "need 0 < alpha_min < alpha_init < alpha_max < 1"),
        # every value given is parsed, also one the run does not read
        ("fit", [], "param-tol = x", "param-tol: expected a number, got 'x'"),
        ("fit", [], "threads = x", "threads: expected an integer, got 'x'"),
        # flags go through the same parsers as config values
        ("mask", ["--mask-seed", "x"], "", "mask-seed: expected an integer, got 'x'"),
        ("fit", ["--seed", "x"], "", "seed: expected an integer, got 'x'"),
        ("fit", ["--method", "bogus"], "", "method: expected dmprec, hts or netrate, got 'bogus'"),
        ("fit", [], "max-iters = -3", "max_iters must be >= 0"),
    ])
    def test_non_integer_value_is_usage_error(self, workdir, capsys, command, flags, line, message):
        tmp, net, _ = workdir
        run("simulate", "--network", tmp / "net.edges", "--horizon", 8, "--num-cascades", 5,
            "--sources", "0", "--seed", 1, "--out", tmp / "truth.txt")
        capsys.readouterr()
        (tmp / "cfg.txt").write_text(f"{line}\nhidden = 2\n")
        with pytest.raises(SystemExit) as exc:
            run(command, "--network", tmp / "net.edges", "--cascades", tmp / "truth.txt", *flags,
                "--config", tmp / "cfg.txt", "--out", tmp / "out.txt")
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp / "out.txt").exists()


class TestOptionSurface:
    COMMON = {"--threads", "--config", "--help"}
    FLAGS = {
        "simulate": {"--network", "--couplings", "--out", "--horizon", "--seed", "--num-cascades", "--sources"},
        "mask": {"--network", "--cascades", "--mask", "--out", "--hidden", "--snapshots", "--mask-seed"},
        "fit": {"--network", "--cascades", "--out", "--seed", "--method"},
        "eval": {"--network", "--couplings", "--mask", "--cascades", "--out"},
        "marginals": {"--network", "--couplings", "--out", "--horizon", "--sources"},
        "gradcheck": {"--network", "--couplings", "--out", "--horizon", "--seed", "--num-cascades",
                      "--sources", "--hidden", "--snapshots", "--mask-seed"},
        "oracle": {"--network", "--couplings", "--out", "--horizon", "--sources"},
    }
    CONFIG_KEYS = {
        "network", "couplings", "cascades", "mask", "out", "method", "horizon", "num-cascades",
        "sources", "seed", "mask-seed", "hidden", "snapshots", "threads",
        "alpha-init", "alpha-min", "alpha-max", "max-iters", "tol",
        "aux-samples", "outer-rounds", "param-tol",
    }

    def test_subcommand_flags(self):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert set(commands) == set(self.FLAGS)
        for name, sub in commands.items():
            flags = {o for action in sub._actions for o in action.option_strings if o.startswith("--")}
            assert flags == self.FLAGS[name] | self.COMMON, name

    def test_config_keys(self):
        assert set(cli._PARSERS) == self.CONFIG_KEYS


@pytest.mark.slow
class TestHubNetworkPipeline:
    def test_half_hidden_hub_reconstruction_bias(self, tmp_path):
        """Half the hubs hidden on the bundled loopy traffic network.

        The fit must reach free energy no higher than the true couplings',
        which is what a minimizer promises.  The accuracy claims are taken
        over the edges whose two endpoints are observed: there the
        recovered couplings track the truth and skew slightly high (the
        forward marginals underestimate susceptibility on loopy graphs).
        Edges touching a hidden node are not recovered on this dense
        graph: at the minimum of the free energy, reached alike from the
        uniform start and from the truth, their correlation with the truth
        is 0.13 (between -0.19 and 0.21 by direction), and half of all
        couplings sit at ``alpha_min``, because the message-passing
        approximation overpredicts activation by T-1 (88 % against 79 %
        in the data at the truth) and the fit compensates through the
        unseen edges.
        """
        from importlib.resources import files

        import numpy as np

        from cascade_recon import (
            MaskSpec,
            apply_mask,
            cascade_substream,
            identifiable_edges,
            observed_negative_log_likelihood,
            simulate_cascade,
            write_cascades,
        )

        text = files("cascade_recon").joinpath("data/hub30.edges").read_text()
        (tmp_path / "hub.edges").write_text(text)
        net, truth = parse_edge_list(text)
        rng = np.random.default_rng(30)
        hidden = frozenset(int(x) for x in rng.choice(net.n_nodes, size=15, replace=False))
        observed = [i for i in range(net.n_nodes) if i not in hidden]
        data = []
        for c in range(10000):
            g = cascade_substream(888, c)
            src = observed[int(g.integers(len(observed)))]
            data.append(simulate_cascade(net, truth, [src], 10, g))
        dataset = [apply_mask(c, MaskSpec(hidden, None)) for c in data]
        (tmp_path / "obs.txt").write_text(write_cascades(net, dataset))
        (tmp_path / "cfg.txt").write_text("max-iters = 600\n")
        rc = run("fit", "--network", tmp_path / "hub.edges", "--cascades", tmp_path / "obs.txt",
                 "--method", "dmprec", "--config", tmp_path / "cfg.txt",
                 "--out", tmp_path / "est.edges")
        assert rc == 0
        rc = run("eval", "--network", tmp_path / "hub.edges", "--couplings", tmp_path / "est.edges",
                 "--out", tmp_path / "scatter.csv")
        assert rc == 0
        rows = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
        est = np.array([float(r.split(",")[3]) for r in rows])
        tru = np.array([float(r.split(",")[2]) for r in rows])
        assert observed_negative_log_likelihood(dataset, net, est) <= observed_negative_log_likelihood(
            dataset, net, truth
        )
        included = [
            e for e in identifiable_edges(net, MaskSpec(hidden, None))
            if int(net.edge_src[e]) not in hidden and int(net.edge_dst[e]) not in hidden
        ]
        corr = np.corrcoef(est[included], tru[included])[0, 1]
        residual = (est[included] - tru[included]).mean()
        assert corr > 0.5
        assert residual > 0.0  # couplings skew high on this very loopy graph
