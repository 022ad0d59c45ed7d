"""Narrow-sense BCH codes over GF(q) and bounds on their dual codes.

The top-level namespace re-exports the working API:

- field and polynomial arithmetic (:mod:`dualbch.gf`); an element of
  GF(q^k) is the int whose base-q digits are its coordinates,
- q-cyclotomic coset tables and closed-form largest leaders
  (:mod:`dualbch.cyclotomic`),
- code families ``Family(q, m, lam | s)``, validated once, BCH code specs
  (a family and a delta), defining sets as bool masks over Z_n, generator
  matrices and the families of the closed forms (:mod:`dualbch.bch`),
- dual-distance lower bounds, dually-BCH tests and the one-pass delta
  sweep (:mod:`dualbch.dualtools`),
- minimum-distance certification (:mod:`dualbch.mindist`): ``certify`` is
  the one distance search, exhaustive or information-set, for the codes
  that ``search_fits``,
- grid-based property sweeps (:mod:`dualbch.propchecks`).
"""

from .bch import (
    BchSpec,
    CodeParams,
    Family,
    bch_bound_from_set,
    bch_spec,
    code_params,
    defining_set,
    dual_code_params,
    dual_defining_set,
    generator_matrix,
    theorem_families,
)
from .cyclotomic import (
    CosetTable,
    coset_table,
    largest_leaders,
    largest_leaders_closed_form,
    leader_family_modulus,
    multiplicative_order,
)
from .dualtools import (
    BoundReport,
    PriorBound,
    bound_report,
    delta_sweep,
    dual_lower_bound,
    dually_bch_closed,
    dually_bch_direct,
    i_delta_closed_divisor_form,
    i_delta_closed_power_form,
    i_delta_direct,
    prior_bounds,
)
from .gf import (
    FieldCtx,
    Poly,
    ScalarField,
    field_new,
    minimal_polynomial,
    poly_eval_in_ext,
    prime_power,
    scalar_field,
)
from .mindist import (
    DistanceCertificate,
    certify,
    in_row_space,
    search_fits,
)
from .propchecks import (
    MANIFEST_SCHEMA,
    PropResult,
    check_leader_floor_divisor_form,
    check_leader_floor_power_form,
    check_tperp_leader_membership,
    load_grid_manifest,
    run_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BchSpec",
    "BoundReport",
    "CodeParams",
    "CosetTable",
    "DistanceCertificate",
    "Family",
    "FieldCtx",
    "MANIFEST_SCHEMA",
    "Poly",
    "PriorBound",
    "PropResult",
    "ScalarField",
    "__version__",
    "bch_bound_from_set",
    "bch_spec",
    "bound_report",
    "certify",
    "check_leader_floor_divisor_form",
    "check_leader_floor_power_form",
    "check_tperp_leader_membership",
    "code_params",
    "coset_table",
    "defining_set",
    "delta_sweep",
    "dual_code_params",
    "dual_defining_set",
    "dual_lower_bound",
    "dually_bch_closed",
    "dually_bch_direct",
    "field_new",
    "generator_matrix",
    "i_delta_closed_divisor_form",
    "i_delta_closed_power_form",
    "i_delta_direct",
    "in_row_space",
    "largest_leaders",
    "largest_leaders_closed_form",
    "leader_family_modulus",
    "load_grid_manifest",
    "minimal_polynomial",
    "multiplicative_order",
    "poly_eval_in_ext",
    "prime_power",
    "prior_bounds",
    "run_grid",
    "scalar_field",
    "search_fits",
    "theorem_families",
]
