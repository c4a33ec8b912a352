"""Antipodal-free families of (0, +1, -1)-vectors: enumeration, exact
optimization, closed-form bounds, and mechanized certification of the
counting arguments behind them.  See the individual modules for the
mathematics; the `antipodal` console script exposes everything from the
command line."""

from .bounds import (
    BoundEntry,
    BoundTable,
    bound_table,
    choose,
    ekr_bound,
    fk1_bound,
    theorem1_bound,
    theorem2_bound,
)
from .circle import (
    CircleReport,
    double_count_check,
    lemma3_count,
    lemma3_sweep,
    max_intersecting_cyclic,
    theorem2_certify,
)
from .constructions import (
    Permutation,
    apply_permutation,
    circle_family,
    example1,
    example2,
    random_permutation,
)
from .errors import (
    AntipodalError,
    BadCharacter,
    BadPair,
    BadT,
    DimensionMismatch,
    EmptyInput,
    GroundMismatch,
    InvalidParams,
    OverlapError,
    PreconditionError,
    RangeError,
    RegimeError,
    TooLarge,
)
from .familyfile import (
    family_from_json,
    family_from_text,
    family_to_json,
    family_to_text,
    load_family,
    save_family,
)
from .search import (
    Graph,
    SearchResult,
    antipodality_graph,
    disjointness_graph,
    kneser_graph,
    max_antipodal_free,
    max_independent_set,
    max_intersecting,
)
from .setfamilies import (
    Prop1Report,
    SetFamily,
    is_cross_intersecting,
    is_intersecting,
    proposition1_holds,
    verify_prop1_exhaustive,
)
from .theorem1 import (
    TraceReport,
    Violation,
    antipodal_free_precheck,
    certify_theorem1,
    deletion_procedure,
    family_b,
    lemma1_check,
    lemma2_check,
    subfamily,
)
from .vectors import (
    Params,
    SignedVector,
    VectorFamily,
    antipodal_degree,
    antipodal_neighbors,
    cardinality_exceeds,
    cardinality_v,
    enumerate_v,
    find_antipodal_pair,
    format_vector,
    is_antipodal,
    make_vector,
    parse_vector,
    partner_codes,
    scalar_product,
)

__version__ = "0.1.0"
