"""Finite-group computations: build concrete permutation groups and decide,
by two independent routes, whether every cyclic-by-p subgroup is cyclic,
dihedral of order 2p^n, or A4 (the last for p = 2 only)."""

from .perm import Group, Perm, identity, make_perm, perm_from_cycles, mulclose, quotient_by
from .gf import Field, field
from .construct import build_group
from .analysis import (
    center,
    centralizer,
    chief_series_within,
    conjugacy_class,
    derived_subgroup,
    factor_action,
    fixed_space_dim,
    is_abelian,
    is_nilpotent,
    is_simple,
    is_solvable,
    minimal_normal_subgroups,
    normal_closure,
    normalizer,
    o_p_prime,
    o_pi,
    subgroups_of_p_group,
    sylow,
)
from .classify import (
    Context,
    OortVerdict,
    ShapeVerdict,
    StructureReport,
    cyclic_sylow_report,
    even_structure_report,
    is_o_group_by_criterion,
    is_o_group_by_definition,
    odd_structure_report,
    shape_of,
    theorem_audit,
)

__version__ = "0.1.0"
