"""Exact series toolkit for colored vertex counts, transport kernels, and
framed generating functions of cyclic-quotient geometries.

Everything is computed in exact arithmetic: rationals, cyclotomic numbers,
and truncated multivariate series that track how much of the true object
their stored data guarantees.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .exactnum import CycloField, CycloNum, cyclo_field, cyclotomic_polynomial, field_for
from .series import (
    GradeCap,
    PrecisionError,
    Series,
    SeriesContext,
    VarSpec,
    coeff_from_data,
    coeff_to_data,
)
from .partitions import (
    aut_gamma,
    check_partition,
    colored_box_count,
    conjugate,
    gamma_vectors,
    hooks,
    kappa,
    partitions_of,
    z_aut,
)
from .characters import chi
from .hurwitz import (
    PhiKernel,
    burnside_value,
    factorization_oracle,
    simple_branch_count,
)
from .dt_vertex import (
    RationalForm,
    box_context,
    box_counting_series,
    correspondence_report,
    r_bullet_zero,
    reduced_vertex_closed,
    schur_rational,
    trig_context,
    verify_correspondence,
    vertex_side_series,
    volume_counts,
)
from .gw_vertex import (
    FramedVertex,
    abelian_lift,
    assemble_G0,
    cap_closed_form,
    character_image_order,
    connected_profile_series,
    g_bullet_mu,
    g_bullet_table,
    gw_context,
    lambda_g_psi_series,
    project_element,
    quantum_dim_hook,
    quantum_dim_sine,
    r_bullet_tau,
    transport_back,
)
from .localgw import (
    LocalBlock,
    block_from_data,
    block_to_data,
    cap_family,
    cap_level0,
    cap_series,
    emit_table,
    glue,
    identity_block,
    local_context,
    run_glue_plan,
    tube,
)
from .verify import mv_a1_check, phi_composition_check

# Every public name imported above, and the version.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
