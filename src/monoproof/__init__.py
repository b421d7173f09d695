"""Static equilibria of convex polytopes and exact infeasibility certificates.

Counts unstable (vertex) and stable (face) equilibria through shadowing
matrices, expands the mono-unstable condition for 0-skeletons into systems
of quadratic inequalities, and proves those systems unsolvable in every
dimension by searching for positive integer coefficients whose weighted
inequality sum is strictly convex with a strictly positive exact-rational
minimum.
"""

from monoproof.ratcore import parse_rational
from monoproof.equilibria import (
    FaceConfig,
    PointConfig,
    count_stable,
    count_unstable,
    equilibrium_indices,
    face_shadow_matrix,
    is_hull_vertex,
    load_config,
    vertex_shadow_matrix,
)
from monoproof.expansion import (
    ShadowSystem,
    enumerate_systems,
)
from monoproof.prover import (
    Certificate,
    Exhausted,
    ProofReport,
    SearchConfig,
    SystemResult,
    VerifyResult,
    prove_unsolvable,
    search_certificate,
    verify_certificate,
)
from monoproof.tables import (
    CertificateTable,
    ParseError,
    TableRow,
    bundled_table_path,
    parse_certificate_table,
    serialize_certificate_table,
)

__version__ = "0.1.0"
