"""Finite-dimensional quantum measurement toolkit.

Instruments in Kraus form, system-ancilla measuring processes with their
unitary invariants, stochastic presentations with gauge transforms and
factorization, and channel-resolved single-shot simulation with posterior
pure-state trajectories.
"""

from .qcore import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    ZERO_PROBABILITY,
    ComplexMeasure,
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    NotAbsolutelyContinuous,
    NotHermitian,
    NotIsometric,
    NotOrthonormal,
    NotUnitaryMatrix,
    OutcomeSpace,
    ProjectionValuedMeasure,
    SpectralCluster,
    UnitaryOperator,
    ZeroProbabilityEvent,
    align_global_phase,
    complete_to_unitary,
    partial_expectation,
    radon_nikodym,
    spectral_decompose,
    tensor_product,
)
from .instrument import (
    EmptySelection,
    IncompatibleOutcomeSpaces,
    InstrumentReport,
    KrausInstrument,
    NotAProjectionFamily,
    POVMeasure,
    PosteriorFamily,
    choi_matrix,
    identity_instrument,
    instruments_equal,
    outcome_distribution,
    posterior_family,
    pov_measure,
    predual_apply,
    product_label,
    sequential_compose,
    validate,
    von_neumann_instrument,
)
from .realization import (
    DimensionTooSmall,
    PointerOverlap,
    StatisticalRealization,
    apply_unitary_equivalence,
    dilate,
    indirect_realization,
    instrument_of,
    invariants,
    von_neumann_process,
)
from .stochrep import (
    CanonicalForm,
    ChannelDensities,
    InvariantComparison,
    NotFactorizable,
    QuantumStochasticRep,
    SRInvariants,
    StochasticRealization,
    UnsupportedMeasure,
    WeightMismatch,
    apply_transform,
    canonicalize,
    compare_invariants,
    equivalent,
    extract_vq,
    factorize,
    from_channel_operators,
    from_realization,
    instrument_of_sr,
    qsr_instrument,
    sr_invariants,
)
from .qsa import (
    MeasurementModel,
    ModelReport,
    OutputLaw,
    ShotBatch,
    ShotResult,
    Trajectory,
    channel_weights,
    output_law,
    posterior_mixture,
    posterior_pure,
    run_trajectory,
    sample_batch,
    sample_shot,
    verify_model,
)

__version__ = "0.1.0"
