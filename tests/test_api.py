"""The public API: the names the package exports and the parameters of
each, so that an option added or removed shows up as a test change."""

import inspect

import cascade_recon


def _exports():
    return {name: value for name, value in vars(cascade_recon).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


class TestApiSurface:
    ERRORS = {"CascadeReconError", "CapacityError", "DatasetError", "ParseError"}
    PARAMETERS = {
        # classes: the constructor's parameters
        "CascadeTable": ("horizon", "lo", "hi", "hidden"),
        "DmpTrace": ("horizon", "initial_susceptible", "theta", "phi", "p_susceptible", "p_activate", "log_step"),
        "FitConfig": ("alpha_init", "alpha_min", "alpha_max", "max_iters", "tol"),
        "FitResult": ("couplings_hat", "iterations", "free_energy_trajectory", "converged", "wall_time",
                      "diagnostics"),
        "FreeEnergyReport": ("value", "gradient"),
        "HtsConfig": ("aux_samples", "outer_rounds", "param_tol", "seed", "fit"),
        "MaskSpec": ("hidden_nodes", "snapshot_times"),
        "Network": ("labels", "edges"),
        # functions
        "apply_mask": ("cascade", "mask"),
        "batch_full_log_likelihood": ("net", "couplings", "times", "horizon"),
        "cascade_substream": ("seed", "index"),
        "dmp_forward": ("net", "couplings", "sources", "horizon"),
        "dmprec_fit": ("dataset", "net", "config", "threads"),
        "exact_marginals_oracle": ("net", "couplings", "sources", "horizon"),
        "free_energy_gradient": ("dataset", "net", "couplings"),
        "full_log_likelihood": ("cascade", "net", "couplings"),
        "generate_dataset": ("net", "couplings", "n_cascades", "source_policy", "horizon", "seed", "exclude"),
        "hts_fit": ("dataset", "net", "config"),
        "identifiable_edges": ("net", "mask"),
        "l1_coupling_error": ("est", "truth", "included"),
        "marginalized_likelihood": ("observed", "net", "couplings"),
        "monte_carlo_marginals": ("net", "couplings", "sources", "horizon", "runs", "rng"),
        "netrate_fit": ("dataset", "net", "config"),
        "observed_negative_log_likelihood": ("dataset", "net", "couplings"),
        "parse_edge_list": ("text",),
        "population_free_energy": ("net", "couplings_star", "couplings", "sources", "horizon"),
        "projected_gradient_descent": ("value_and_grad", "value_only", "x0", "config"),
        "read_cascades": ("net", "text"),
        "resolve_mask": ("hidden", "snapshots", "net", "mask_seed", "exclude"),
        "sample_recorded_times": ("net", "couplings", "sources", "horizon", "count", "rng"),
        "serialize_edge_list": ("net", "couplings"),
        "validate_couplings": ("net", "values"),
        "write_cascades": ("net", "cascades"),
    }
    METHODS = {
        "CascadeTable": {"is_fully_observed": (), "to_cascade": ()},
        "FitConfig": {"validate": ()},
        "HtsConfig": {"validate": ()},
        "MaskSpec": {"validate": ("n_nodes", "horizon")},
        "Network": {"edge_id": ("src", "dst"), "edge_pair": ("e",), "in_edges": ("i",)},
    }

    def test_exported_names(self):
        assert set(_exports()) == self.ERRORS | set(self.PARAMETERS)

    def test_parameters(self):
        for name, params in self.PARAMETERS.items():
            assert tuple(inspect.signature(getattr(cascade_recon, name)).parameters) == params, name

    def test_public_methods(self):
        for name, value in _exports().items():
            if not inspect.isclass(value) or name in self.ERRORS:
                continue
            methods = {attr: tuple(inspect.signature(fn).parameters)[1:]
                       for attr, fn in vars(value).items() if not attr.startswith("_") and inspect.isfunction(fn)}
            assert methods == self.METHODS.get(name, {}), name
