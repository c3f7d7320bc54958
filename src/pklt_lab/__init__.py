"""Exact-arithmetic surface birational geometry on blow-up towers."""

from .lattice import (
    DivisorClass,
    IntersectionForm,
    LatticeMismatchError,
    SingularMatrixError,
    gram_submatrix,
    intersect,
    is_negative_definite,
    rat,
    solve_exact,
)
from .surface import (
    AbstractLattice,
    BlowUpCenter,
    CurveSpec,
    ModelError,
    ProjectivePlane,
    RDivisor,
    Ruled,
    SurfaceModel,
    blow_up,
    make_base,
    pull_back,
    push_forward,
    total_transform,
    validate,
)
from .zariski import (
    NotPseudoeffectiveError,
    ZariskiDecomposition,
    is_big,
    zariski_decompose,
)
from .potential import (
    NEG_INFINITY,
    DiscrepancyLedger,
    FanoVerdict,
    IncidenceGraph,
    InvariantViolation,
    LocusComponent,
    PairError,
    PairSpec,
    PotentialReport,
    check_intersection_limit,
    check_monotonicity,
    check_witness,
    classify_pair,
    eps_spnklt,
    eps_threshold,
    fano_type_test,
    fano_verdict,
    incidence_graph,
    make_pair,
    nklt_locus,
    pnklt_locus,
    potential_ledger,
    total_potential_discrepancy,
)
from .rcc import is_rcc_locus, surface_rcc_via_pnklt

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
