"""Posterior-CRB evaluation and hybrid beamforming optimization for MIMO
sensing and ISAC under limited RF chains."""

from .model import (
    ArrayConfig,
    CommChannel,
    GmmAnglePrior,
    ModelError,
    NarrowbandChannel,
    ReflectionPrior,
    RicianChannelSpec,
    RxArchitecture,
    Scenario,
    WidebandChannel,
    WidebandChannelSpec,
    gen_rician_channel,
    gen_wideband_channel,
    steering_derivative,
    steering_vector,
)
from .quadrature import (
    QuadratureGrid,
    build_grid,
    prior_fisher_theta,
)
from .designs import (
    AoReport,
    HybridDesign,
    RxDft,
    RxIdentity,
    RxPhases,
    achieved_rate,
    dft_matrix,
)
from .pcrb import (
    PcrbEngine,
    Pfim,
    assemble_pfim,
    fim_oracle,
    pcrb_fully_connected,
    pcrb_theta,
)
from .cvxkit import (
    ConvexQcqp,
    RateInfeasibleError,
    SolverReport,
    mimo_capacity,
    rate_constrained_trace_max_multi,
    solve_convex_qcqp,
    top_generalized_eig,
    waterfill,
)
from .sensing_opt import (
    coordinate_update_receive,
    coordinate_update_transmit,
    dft_select_fc,
    hybrid_from_rank1,
)
from .isac_opt import (
    WmmseAux,
    ao_p0,
    ao_p1,
    ao_p2,
    fpp_sca_vrf,
    init_random_phase,
    wmmse_update,
)
from .scenarios import default_ofdm_scenario, default_scenario, sensing_scenario

__version__ = "0.1.0"
