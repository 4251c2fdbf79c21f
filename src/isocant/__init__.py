"""Exact max-plus matrix algebra and the combinatorics of isocanted alcoved polytopes.

The package realizes the matrix classes behind alcoved polytopes (normal,
normal idempotent, visualized and symmetric placements), the isocanted family
with its closed-form vertex map and face counts, an exact edge-walk vertex
enumerator for cross-checking the combinatorics, verification sweeps for the
classical face-count conjectures, and JSON/OFF/OBJ interchange.
"""

from .combinatorics import (
    FaceInterval,
    SkeletonGraph,
    antipode,
    box_fvector,
    build_face_lattice,
    cask_fvector,
    casks_and_belt,
    count_flags,
    count_flags_by_chains,
    diameter,
    distance,
    fatness_f03,
    fvector_tables,
    isocanted_fvector,
    skeleton,
    valence,
)
from .conjectures import (
    ConjectureReport,
    check_3d,
    check_argmax,
    check_barany,
    check_extremes,
    check_flag,
    check_log_concave,
    check_unimodal,
    cubical_g2,
    run_all,
)
from .geometry import (
    HRep,
    VertexSet,
    auxiliary_matrix,
    bounding_box,
    central_symmetry_check,
    closed_form_vertices,
    enumerate_vertices_oracle,
    hrep_from_matrix,
    isocanted_vertex,
    isocanted_vertex_sni,
    label_vertices,
    oracle_face_counts,
    poles,
    polytope_extremes,
    unique_vertex_conditions,
    verify_unique_vertex,
    zonotope_check,
)
from .matrices import (
    Decomposition,
    IsocantedSpec,
    PerturbationMatrix,
    apply_perturbation,
    box_sni,
    box_vni,
    cube_sni,
    cube_vni,
    decompose,
    is_isocanted,
    is_ni,
    is_normal,
    is_sni,
    is_vni,
    isocanted_box_vni,
    isocanted_sni,
    isocanted_vni,
)
from .serialize import (
    MatrixParseError,
    MeshExport,
    build_mesh,
    matrix_from_json,
    matrix_to_json,
    mesh_to_obj,
    mesh_to_off,
    parse_off,
    read_matrix,
    write_matrix,
    write_mesh,
)
from .tropical import (
    NEG_INF,
    MinorEvaluation,
    TropMatrix,
    conjugate_diag,
    laplace_terms,
    mat_mul,
    trop_add,
    trop_minor,
    trop_mul,
    trop_permanent,
)

__version__ = "0.1.0"
