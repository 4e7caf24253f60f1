"""Exact combinatorial model of total Witt groups of Grassmann bundles.

The package is organized around even Young diagrams in a rectangular frame:
`diagrams` holds the combinatorics, `lattice` the symbolic line-bundle
calculus, `picard` the cond-even verdicts on bit masks, `witt_modules` the
graded free modules and the three maps between neighbouring frames,
`grassmann_witt` the rank tables, classification and verification reports,
and `verify` the suites that `wittgrass verify` runs over a range of
frames.  Everything is integer arithmetic; nothing is floating point.
"""

from .diagrams import FramedDiagram, JumpTuples, enumerate_even, from_jump_tuples
from .grassmann_witt import (DualityReport, GeneratorClass, bord_vanishes,
                             class_degree, classify, duality_check,
                             expected_rank, induction_report, rank_table,
                             table_json, total_witt_basis)
from .picard import (canonical_in_pullback_span, cond_even_verdicts,
                     pushforward_admissible, verify_cond_even)
from .witt_modules import (MAP_NAMES, BasisMap, CyclicSequence, ExactnessReport,
                           GradedBasis, GradedDegree, TransportReport,
                           build_basis, cyclic_sequence, degree, map_matrix,
                           verify_degree_transport, verify_exactness)

__version__ = "0.1.0"

__all__ = [
    "FramedDiagram", "JumpTuples", "enumerate_even", "from_jump_tuples",
    "PicClass", "PicClassMod2", "base_det", "taut_det",
    "taut_det2", "quotient_det", "rel_canonical_grass", "rel_canonical_flag",
    "rel_canonical_fiber", "pullback_to_flag", "relative_dimension",
    "twist_class", "verify_cond_even", "pushforward_admissible",
    "canonical_in_pullback_span", "cell_canonicals", "cond_even_verdicts",
    "les_twists",
    "MAP_NAMES", "BasisMap", "CyclicSequence", "ExactnessReport", "GradedBasis",
    "GradedDegree", "TransportReport", "build_basis",
    "cyclic_sequence", "degree", "map_matrix", "verify_degree_transport",
    "verify_exactness",
    "DualityReport", "GeneratorClass", "bord_vanishes",
    "class_degree", "classify", "duality_check", "expected_rank",
    "induction_report", "rank_table", "table_json", "total_witt_basis",
    "__version__",
]


def __getattr__(name):
    # PEP 562: `lattice` loads on first use, so `import wittgrass.cli` skips it
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .lattice import (PicClass, PicClassMod2, base_det, cell_canonicals,
                          les_twists, pullback_to_flag, quotient_det,
                          rel_canonical_fiber, rel_canonical_flag,
                          rel_canonical_grass, relative_dimension, taut_det,
                          taut_det2, twist_class)
    return locals()[name]
