"""Approximation toolkit for graph Diameter, Eccentricities, Radius and
S-T Diameter, with generators for orthogonal-vectors hardness gadgets
whose exactly known distance gaps serve as ground-truth fixtures."""

from .graph import (UNREACHABLE, Graph, GraphFormatError, Neighborhood,
                    format_graph, load_graph, load_vertex_set, parse_graph,
                    parse_vertex_set, save_graph)
from .search import (apsp_matrix, closest, degree3_blowup, eccentricities,
                     eccentricity, exact_diameter, exact_eccentricities,
                     exact_radius, exact_st_diameter, is_connected,
                     is_strongly_connected, k_closest, max_distances,
                     multi_source_distance, nearest, sssp)
from .eccen import (EccEstimate, ecc_2approx, ecc_2plusdelta,
                    ecc_folklore_3approx, source_radius)
from .stdiam import (EquivalenceGadget, STInstance, build_equivalence_gadget,
                     st_2approx_sqrt, st_2approx_true, st_2approx_weighted,
                     st_3approx, st_via_diameter)
from .diam import diam_folklore_2approx, diam_linear_lessthan2
from .dense import (CenterData, Spanner, additive2_spanner, approx_on_spanner,
                    diam_dense_32, ecc_dense_53, tz_center)
from .hardness import (ConstructionOutput, ConstructionSizeError, OVInstance,
                       build_diam_3km4, build_diam_5v8, build_diam_6v10,
                       build_diam_8v13, build_ecc_lb_directed,
                       build_ecc_lb_undirected, build_kov_layered, gen_ov,
                       load_construction, ov_brute_force, save_construction,
                       verify_construction)

__version__ = "0.1.0"
