"""Bracket-polynomial invariants and surface representations of virtual knots."""

from .analysis import (
    Certificate,
    certify,
    mod2_span_criterion,
    per_torus_criterion,
    surface_bracket,
)
from .bracket import f_polynomial, jones, jones_in_t, kauffman_bracket
from .catalog import catalog, catalog_entry, catalog_names, catalog_p_family
from .diagram import (
    VirtualLinkDiagram,
    format_gauss_code,
    mirror,
    parse_gauss_code,
    smooth_crossing,
    switch_crossing,
    virtualize_crossing,
    writhe,
)
from .laurent import LOOP_VALUE, LaurentPoly, format_laurent
from .surface import HomologyClass, SurfaceRep, build_carter_surface, genus
from .tangle import (
    Tangle,
    alpha_beta_at_crossing,
    close_tangle,
    double_virtualization_report,
    expand_tangle,
    parse_tangle,
    virtualization_report,
    zerocor_check,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "HomologyClass",
    "LOOP_VALUE",
    "LaurentPoly",
    "SurfaceRep",
    "Tangle",
    "VirtualLinkDiagram",
    "alpha_beta_at_crossing",
    "build_carter_surface",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "catalog_p_family",
    "certify",
    "close_tangle",
    "double_virtualization_report",
    "expand_tangle",
    "f_polynomial",
    "format_gauss_code",
    "format_laurent",
    "genus",
    "jones",
    "jones_in_t",
    "kauffman_bracket",
    "mirror",
    "mod2_span_criterion",
    "parse_gauss_code",
    "parse_tangle",
    "per_torus_criterion",
    "smooth_crossing",
    "surface_bracket",
    "switch_crossing",
    "virtualization_report",
    "virtualize_crossing",
    "writhe",
    "zerocor_check",
]
