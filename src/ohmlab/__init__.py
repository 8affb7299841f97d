"""Electrical-flow oblivious routing laboratory.

Routing a demand along its electrical flow is oblivious: each demand is
routed independently, yet on expanders the congestion stays within
3 ln(vol(V)) / phi of the offline optimum. This package measures that, takes
the voltage profiles apart with threshold-cut diagnostics, probes how the
guarantee degrades under girth-raising subdivision gadgets, and carries the
vertex-elimination toolkit (Schur complements, harmonic and l1 boundary
extensions, threshold rounding) the analysis rests on.
"""

from .errors import ConvergenceError, DisconnectedError, SizeLimitError
from .graphs import (
    ConductanceCertificate,
    Multigraph,
    as_vertex_mask,
    conductance_bounds,
    conductance_exact,
    cycle_graph,
    gadget_subdivide,
    girth,
    graph_text,
    graph_union,
    path_graph,
    petersen_graph,
    random_regular,
    read_graph,
    write_graph,
)
from .linalg import (
    SolveReport,
    induced_pnorm_nonneg,
    laplacian,
    solve_laplacian,
)
from .routing import (
    CompetitiveReport,
    competitive_ratio,
    competitive_ratio_inf,
    competitive_report,
    demand_fraction,
    edge_demand,
    effective_resistance,
    flow_energy,
    flow_projection,
    localization,
    route_electrical,
    validate_demand,
)
from .sparsify import (
    Partition,
    discretize_minimizer,
    expected_cut_l1,
    extension_energy,
    harmonic_extension,
    l1_objective,
    min_l1_extension,
    read_partition,
    schur_complement,
    schur_edge_weights,
    write_partition,
)
from .thresholds import (
    DerivativeCheckReport,
    IntegralIdentityReport,
    ThresholdProfile,
    check_derivative_bounds,
    check_integral_identity,
    check_unit_flow,
    diagnostic_rows,
    profile_from_voltages,
    threshold_profile,
)

__version__ = "0.1.0"
