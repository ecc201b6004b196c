"""Reconstruction of edge transmission probabilities from partially
observed spreading cascades on a known directed network.

The package provides a forward message-passing engine for discrete-time
SI dynamics, the approximate likelihood it yields with its reverse-mode
gradient, a reconstruction optimizer driven by that likelihood, and
exact likelihood baselines (per-node convex fit, brute-force
marginalization, Monte Carlo completion) for comparison.
"""

from .errors import CapacityError, CascadeReconError, DatasetError, ParseError
from .graph import Network, parse_edge_list, serialize_edge_list, validate_couplings
from .cascades import (
    Cascade,
    CascadeTable,
    MaskSpec,
    ObservedCascade,
    apply_mask,
    cascade_substream,
    generate_dataset,
    monte_carlo_marginals,
    read_cascades,
    resolve_mask,
    sample_recorded_times,
    write_cascades,
)
from .dmp import (
    DmpTrace,
    dmp_forward,
    exact_marginals_oracle,
)
from .gradient import (
    FreeEnergyReport,
    free_energy_gradient,
    observed_negative_log_likelihood,
    population_free_energy,
)
from .fit import (
    FitConfig,
    FitResult,
    dmprec_fit,
    identifiable_edges,
    l1_coupling_error,
    projected_gradient_descent,
)
from .baselines import (
    HtsConfig,
    batch_full_log_likelihood,
    full_log_likelihood,
    hts_fit,
    marginalized_likelihood,
    netrate_fit,
)

__version__ = "0.1.0"
