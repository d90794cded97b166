"""Exact equivariant localization checks.

Subpackages cover exact polynomial/slice linear algebra (rings, linalg,
series), root data tables (rootdata), moment-graph residue verification
(gkm), diagonal arrangement ideal slices (arrangement), curve counting
series (curves), and the command line front end (cli).
"""

from .arrangement import (
    catalan_quotient,
    flag_rank1_module_slice,
    freeness_check,
    jd_root_slice,
    jd_slice,
    ordinary_homology_quotient_slice,
    symbolic_power_oracle,
)
from .curves import (
    conjecture_vs_msv,
    knot_compare,
    msv_assemble,
    punctual_series,
    quotient_hilbert_slice,
    quotient_table,
)
from .gkm import (
    build_flag_rank1_graph,
    build_gkm_graph,
    sl2_classes,
    specialize_t0,
    verify_residue_conditions,
)
from .rings import MultiPoly, ring
from .rootdata import root_datum
from .series import RationalSeries

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "RationalSeries",
    "build_flag_rank1_graph",
    "build_gkm_graph",
    "catalan_quotient",
    "conjecture_vs_msv",
    "flag_rank1_module_slice",
    "freeness_check",
    "jd_root_slice",
    "jd_slice",
    "knot_compare",
    "msv_assemble",
    "ordinary_homology_quotient_slice",
    "punctual_series",
    "quotient_hilbert_slice",
    "quotient_table",
    "ring",
    "root_datum",
    "sl2_classes",
    "specialize_t0",
    "symbolic_power_oracle",
    "verify_residue_conditions",
]
