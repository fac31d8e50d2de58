"""Interlaced-graph metrics, James-type norms, and coarse-embedding certificates.

Subpackage map:

* graphs     -- interlaced tuples, exact graph metric, BFS oracle, geodesics
* sequences  -- finite-support sequences, sup/James variation norms, summing embedding
* orlicz     -- Orlicz and iterated N-norms, delta transform, l_p comparisons
* tree       -- dyadic tree, exact James-tree norm and its oracle, branch embeddings
* moduli     -- empirical compression/expansion moduli, probes, report tables
* acceptance -- the certificate suite run by pytest and by `interlace suite`
* cli        -- argparse front end
"""

from .errors import InvalidInput, ResourceLimit
from .graphs import (
    InterlacedTuple,
    dist,
    dist_oracle_bfs,
    enumerate_tuples,
    geodesic_path,
    geodesic_step,
    is_adjacent,
    itup,
    walk_profile,
)
from .moduli import (
    EquicoarseRow,
    MapSample,
    ModuliReport,
    ProbeResult,
    compute_moduli,
    concentration_probe,
    equicoarse_report,
    lipschitz_constant,
)
from .orlicz import (
    ModulusSpec,
    OrliczSpec,
    ValidationReport,
    compare_lp,
    delta_transform,
    modulus_fixture,
    n_norm,
    orlicz_fixture,
    orlicz_norm,
    validate_modulus,
    validate_orlicz,
)
from .sequences import (
    FinSeq,
    james_norm,
    james_norm_bruteforce,
    successive_block_ratio,
    summing_distortion_check,
    summing_image,
    sup_norm,
)
from .tree import (
    Branch,
    Segment,
    TreeVec,
    f_difference_segments,
    f_embed,
    f_separation,
    g_embed,
    g_separation,
    jt_family_value,
    jt_norm_bruteforce,
    jt_norm_exact,
    pair,
    segment_functional,
)

__version__ = "0.1.0"
