"""Recognition and certified decomposition of arc-locally semicomplete digraphs.

The package recognizes the digraph classes cut out by forbidding single
orientations of the four-vertex path (arc-locally in-semicomplete,
arc-locally out-semicomplete, their intersection, 3-quasi-transitive,
3-anti-quasi-transitive) and decomposes members of the arc-locally
in/out-semicomplete classes into one of three certified outcomes: diperfect,
a tripartition around an odd extended cycle, or a clique cut.  Brute-force
oracles and exhaustive sweeps over all small digraphs double-check every
structural claim.
"""

from .decompose import (
    ALSOutcome,
    Decomposition,
    classify_arc_locally_semicomplete,
    decompose_in_semicomplete,
    decompose_out_semicomplete,
    is_diperfect_in_class,
    verify_als_outcome,
    verify_decomposition,
)
from .digraph import (
    Digraph,
    SetRelation,
    UndirectedGraph,
    format_edge_list,
    parse_edge_list,
    set_relation,
)
from .errors import (
    ArcLocalError,
    CapExceeded,
    ClassViolation,
    DisconnectedError,
    EdgeListError,
    InvariantViolation,
)
from .generators import (
    RandomModel,
    brute_force_has_clique_cut,
    brute_force_is_perfect,
    compose,
    digraph_count,
    digraph_from_index,
    directed_cycle,
    directed_path,
    enumerate_digraphs,
    enumerate_members,
    make_extended_cycle,
    make_extension,
    random_class_member,
    random_digraph,
)
from .patterns import (
    ClassReport,
    PatternWitness,
    classify,
    find_anti_circulant_violation,
    find_pattern_violation,
    is_3_anti_circulant,
    is_3_anti_quasi_transitive,
    is_3_quasi_transitive,
    is_arc_locally_in_semicomplete,
    is_arc_locally_out_semicomplete,
    is_arc_locally_semicomplete,
)
from .structure import (
    DEFAULT_ORACLE_CAP,
    ExtendedCycleCertificate,
    StrongDecomposition,
    check_extended_cycle_certificate,
    find_induced_nonoriented_odd_cycle_ge5,
    find_induced_odd_directed_cycle_ge5,
    recognize_extended_cycle,
    recognize_odd_extended_cycle,
    strong_components,
    verify_clique_cut,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
