"""Quasi-fixed points of polynomial maps over finite fields, and
finite-quotient certificates for mapping tori of free-group endomorphisms."""

__version__ = "0.1.0"

from .gf import FqElement, FqField, field_create
from .poly import IqSystem, MPoly, PolyMap, parse_poly
from .freegroup import FreeEndo, Word, endo_is_injective, sanov_embed, stallings_fold
from .matrep import Mat2, MatTuple, ProjPoint, find_periodic_orbit, pi_w
from .dynamics import (
    QuasiFixedWitness,
    VarietySpec,
    containment_check,
    enumerate_quasi_fixed,
    find_quasi_fixed_avoiding,
)
from .certify import (
    Certificate,
    CertifyConfig,
    build_wreath,
    search_certificate,
    verify_certificate,
)

__all__ = [
    "FqElement", "FqField", "field_create",
    "IqSystem", "MPoly", "PolyMap", "parse_poly",
    "FreeEndo", "Word", "endo_is_injective", "sanov_embed", "stallings_fold",
    "Mat2", "MatTuple", "ProjPoint", "find_periodic_orbit", "pi_w",
    "QuasiFixedWitness", "VarietySpec", "containment_check",
    "enumerate_quasi_fixed", "find_quasi_fixed_avoiding",
    "Certificate", "CertifyConfig", "build_wreath",
    "search_certificate", "verify_certificate",
]
