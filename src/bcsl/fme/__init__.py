"""Exact Fourier-Motzkin elimination and Farkas certification toolkit."""

from .derivations import (
    APPENDIX_MERGE,
    INNER_ELIM_ORDER,
    TYPE1_ELIM_ORDER,
    appendix_reduction,
    base_system_for_appendix,
    derive_inner_bound,
    derive_type1_bound,
    load_fixture,
    load_identities,
)
from .farkas import (
    Certificate,
    DirectionReport,
    EquivalenceReport,
    certify,
    check_equivalence,
    remove_redundant,
)
from .system import Ineq, IneqSystem, is_constant_symbol, parse_mi_name

__all__ = [
    "APPENDIX_MERGE",
    "INNER_ELIM_ORDER",
    "TYPE1_ELIM_ORDER",
    "Certificate",
    "DirectionReport",
    "EquivalenceReport",
    "Ineq",
    "IneqSystem",
    "appendix_reduction",
    "base_system_for_appendix",
    "certify",
    "check_equivalence",
    "derive_inner_bound",
    "derive_type1_bound",
    "is_constant_symbol",
    "load_fixture",
    "load_identities",
    "parse_mi_name",
    "remove_redundant",
]
