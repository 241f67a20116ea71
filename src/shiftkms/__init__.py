"""Temperatures, entropy and maximal-entropy measures for matrix-presented shifts.

The package computes, at desk scale: Perron-Frobenius data of nonnegative
matrices, topological entropy of one-sided subshifts in four presentations,
past-equivalence cover dimensions with the sofic criterion and the entropy
bracket, KMS inverse temperatures of the trace-space shift operators, and the
Parry measure with a numerical variational check.
"""

__version__ = "0.1.0"

from .beta import BetaExpansion, beta_expansion_of_one
from .equilibrium import (
    InvariantViolation,
    MarkovMeasure,
    ResolventVector,
    VariationalReport,
    cylinder,
    parry_measure,
    resolvent_vector,
    variational_scan,
)
from .krieger import (
    BracketReport,
    PastPartition,
    SoficReport,
    entropy_bracket,
    omega_l,
    predecessor_set,
    sofic_check,
)
from .spectral import (
    ComponentPerron,
    ConvergenceError,
    PerronData,
    ReducibleMatrixError,
    component_perron_data,
    irreducible,
    period,
    perron_vectors,
    sparse_radius_bracket,
    spectral_radius,
    strongly_connected_components,
)
from .subshift import (
    SFT,
    Automaton,
    BetaShift,
    EntropyEstimate,
    ForbiddenWords,
    FullShift,
    admissible,
    count_words,
    count_words_sequence,
    exact_entropy,
    topological_entropy,
)
from .tracespace import (
    CoherentSequence,
    EpsilonSequence,
    KmsReport,
    TemperatureSign,
    bimodule_kms,
    coherent_from_boundary,
    coherent_sequence,
    epsilon_sequence,
    h_iterate,
    kms_eigen_sequence,
    kms_temperature,
    normalization_profile,
    s_prime,
    t_prime,
    temperature_from_trace,
    temperature_sign,
)
