"""Total detection probability of stroboscopically monitored quantum walks.

A quantum walker on a finite graph is probed at a fixed node (or state)
every ``tau`` time units until the first successful detection.  This
package computes the probability that the walker is ever detected, three
independent ways (direct protocol summation, spectral sector sum, reduced
symmetrized system), and exposes the symmetry machinery that explains the
deficit: detector-preserving graph symmetries, never-detected dark states,
and the reciprocal-orbit-size upper bound.
"""

__version__ = "0.1.0"

from .detection import (
    DetectionReport,
    DetectionSetup,
    SeriesResult,
    bright_eigenstates,
    dark_space_basis,
    first_detection_amplitudes,
    pdet_series,
    pdet_spectral,
)
from .errors import (
    AsymmetricStateError,
    GraphFormatError,
    GraphInvariantError,
    GraphSizeError,
    GraphSpecError,
    GroupSearchError,
    NonLocalizedDetectionError,
    SpectralError,
    StateError,
    StrobewalkError,
)
from .graphs import WeightedGraph, build_named, graph_document, hamiltonian, load_graph, save_graph
from .quotient import (
    NodeClass,
    QuotientSystem,
    pdet_symmetrized,
    quotient_graph,
    symmetrize,
)
from .spectral import (
    EigenSystem,
    ResonanceListing,
    SpectralDecomposition,
    diagonalize,
    energy_sectors,
    evolution_operator,
    fold_sectors,
    is_resonant,
    resonant_periods,
)
from .states import as_state, localized_state, uniform_state
from .symmetry import (
    StabilizerGroup,
    SymmetryGroup,
    automorphisms,
    equivalent_dark_basis,
    node_orbits,
    orbit_rank,
    saturation_check,
    stabilizer,
    symmetric_part,
    symmetry_projector,
    upper_bound,
)

__all__ = [
    "__version__",
    # graphs
    "WeightedGraph", "build_named", "hamiltonian", "load_graph", "save_graph", "graph_document",
    # states
    "as_state", "localized_state", "uniform_state",
    # spectral
    "EigenSystem", "SpectralDecomposition", "ResonanceListing",
    "diagonalize", "energy_sectors", "fold_sectors", "evolution_operator",
    "resonant_periods", "is_resonant",
    # detection
    "DetectionSetup", "DetectionReport", "SeriesResult",
    "first_detection_amplitudes", "pdet_series", "bright_eigenstates",
    "pdet_spectral", "dark_space_basis",
    # symmetry
    "SymmetryGroup", "StabilizerGroup", "automorphisms",
    "stabilizer", "orbit_rank", "symmetry_projector", "symmetric_part",
    "equivalent_dark_basis", "upper_bound", "saturation_check", "node_orbits",
    # quotient
    "NodeClass", "QuotientSystem", "symmetrize", "pdet_symmetrized", "quotient_graph",
    # errors
    "StrobewalkError", "GraphSpecError", "GraphFormatError", "GraphInvariantError", "GraphSizeError",
    "StateError", "SpectralError", "GroupSearchError", "AsymmetricStateError",
    "NonLocalizedDetectionError",
]
