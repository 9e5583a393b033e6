"""Subgroup graphs of finitely presented groups.

Finite-index subgroups are represented as labeled graphs (folded X-graphs
whose loop language at a base vertex maps onto the subgroup).  The package
covers construction by folding and by coset enumeration, the subgroup
calculus (index, membership, conjugacy, normality, intersections),
exhaustive enumeration at a fixed index, and builders for prime-vertex
certificate graph families.
"""

from .errors import (
    AlphabetMismatch,
    CosetLimitExceeded,
    FulfillmentFailed,
    GluingInvalid,
    ParseError,
    PresentationMismatch,
    SearchBudgetExceeded,
    StallingsError,
)
from .words import (
    Alphabet,
    Presentation,
    Word,
    free_presentation,
    free_reduce,
    letter,
    letter_index,
    merge_alphabets,
    shift_word,
)
from .xgraph import (
    BasedXGraph,
    Morphism,
    XGraph,
    canonicalize,
    core,
    find_morphism,
    fold,
    free_basis,
    free_subgroup_graph,
    is_folded,
    trace,
    wedge_of_words,
)
from .subgroup import (
    CosetTable,
    SubgroupGraph,
    coset_enumerate,
    fulfills,
    subgroup_from_graph,
)
from .products import (
    ProductGraph,
    coset_meet,
    intersect,
    is_malnormal,
)
from .enumerator import (
    EnumerationTask,
    enumerate_graphs,
    hall_search,
)
from .families import (
    GluingSpec,
    OrbitCertificate,
    build_glued,
    build_parallel_circles,
    build_type1,
    build_type2,
    chain_primes,
    extend_with_loops,
    is_prime,
    verify_coprime_certificate,
)
from .fileio import (
    export_dot,
    parse_graph,
    parse_presentation,
    serialize_graph,
    serialize_presentation,
)

__version__ = "0.1.0"
