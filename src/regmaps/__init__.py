"""Regular maps as involution triples in finite permutation groups.

Core pieces: permutation algebra with brute-force closures and group
orders from Schreier generators (``perms``), map invariants and
operations on admissible triples (``maps``), small graph constructors
and exact isomorphism (``graphs``), the canonical wreath-product census
of nonorientable Hamming-graph embeddings (``wreath``), and the
projective matrix construction over the 9-element field, carried on the
10 points of PG(1,9) (``pgl29``).
"""

from .graphs import Graph, complete, hamming, is_isomorphic
from .maps import (
    AdmissibleTriple,
    CosetGraphError,
    InvalidTripleError,
    MapInvariants,
    ValidationReport,
    antipodal_cycle_triple,
    clique_submap,
    coset_graph,
    format_triple,
    invariants,
    is_orientable,
    named_triple,
    nonorientability_witness,
    parse_triple,
    petrie_dual,
    validate_admissible,
)
from .perms import (
    CapExceeded,
    GroupClosure,
    Perm,
    closure,
    compose,
    contains,
    element_order,
    evaluate_word,
    identity,
    inverse,
    is_involution,
    subgroup_index,
)
from .pgl29 import pgl_closure, pgl_triple, verify_construction
from .wreath import (
    BudgetExceeded,
    CanonicalTripleParams,
    MapRecord,
    TheoremReport,
    canonical_triple,
    classify,
    enumerate_sigma_candidates,
    expected_count,
    maps_isomorphic,
    records_from_json,
    records_to_json,
    triples_map_isomorphic,
    verify_theorem,
    wreath_to_perm,
)

__version__ = "0.1.0"
