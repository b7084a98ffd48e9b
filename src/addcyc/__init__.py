"""Cyclic additive codes over GF(q^t) with a twisted trace duality.

The package builds exact finite-field and group-algebra machinery, a
non-degenerate F_q-valued trace form on GF(q^t)^n twisted by a trace-zero
element, and the full classification apparatus for cyclic self-orthogonal
and self-dual F_q-linear codes over GF(q^2): minimal-ideal atlases,
constructive enumeration, closed-form counts, a brute-force oracle, duals
and minimum distances.
"""

from .bilinear import (
    DeltaContext,
    component_split_check,
    context,
    delta_form,
    delta_inner,
    module_law_check,
)
from .classify import (
    SubcodeChoice,
    brute_force_oracle,
    count_codes,
    enumerate_codes,
    good_code_report,
    pair_options,
    subcode_options,
)
from .codes import (
    AdditiveCode,
    CodeDecomposition,
    DistanceCertificate,
    code_from_vectors,
    code_record,
    cyclic_span,
    decompose,
    distance_certificate,
    dual_delta,
    generator_matrix_text,
    is_cyclic,
    is_self_dual,
    is_self_orthogonal,
    min_distance,
)
from .gf import (
    Field,
    TraceParams,
    embed,
    field,
    field_of_order,
    find_gamma,
    format_element,
    parse_element,
    parse_field_spec,
    psi,
    psi_inverse,
    subfield_map,
    trace,
)
from .polyring import Poly, SplittingData, factor_xn_minus_1, minimal_poly, splitting_data
from .ring import CyclicRing, GroupAlgebraElement, cyclic_ring
from .structure import (
    CosetTable,
    IdealAtlas,
    build_atlas,
    build_coset_table,
    cyclotomic_cosets,
    tau_ideal_image,
)
from .verify import run_reference_checks

__all__ = [
    "AdditiveCode",
    "CodeDecomposition",
    "CosetTable",
    "CyclicRing",
    "DeltaContext",
    "DistanceCertificate",
    "Field",
    "GroupAlgebraElement",
    "IdealAtlas",
    "Poly",
    "SplittingData",
    "SubcodeChoice",
    "TraceParams",
    "brute_force_oracle",
    "build_atlas",
    "build_coset_table",
    "code_from_vectors",
    "code_record",
    "component_split_check",
    "context",
    "count_codes",
    "cyclic_ring",
    "cyclic_span",
    "cyclotomic_cosets",
    "decompose",
    "delta_form",
    "delta_inner",
    "distance_certificate",
    "dual_delta",
    "embed",
    "enumerate_codes",
    "factor_xn_minus_1",
    "field",
    "field_of_order",
    "find_gamma",
    "format_element",
    "generator_matrix_text",
    "good_code_report",
    "is_cyclic",
    "is_self_dual",
    "is_self_orthogonal",
    "min_distance",
    "minimal_poly",
    "module_law_check",
    "pair_options",
    "parse_element",
    "parse_field_spec",
    "psi",
    "psi_inverse",
    "run_reference_checks",
    "splitting_data",
    "subcode_options",
    "subfield_map",
    "tau_ideal_image",
    "trace",
]

__version__ = "0.1.0"
