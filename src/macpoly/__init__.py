"""Exact combinatorial engine for Macdonald-type polynomial families.

Modules:

* :mod:`macpoly.polyring` -- sparse integer polynomials in x, q, t and
  factored q,t-fractions.
* :mod:`macpoly.shapes` -- diagrams, fillings, and tableau statistics.
* :mod:`macpoly.modified` -- the modified family by the all-fillings and
  sorted-tableaux routes.
* :mod:`macpoly.nonsymmetric` -- permuted-basement values E/F and their
  basement fillings.
* :mod:`macpoly.integral` -- normalization products, the integral form J by
  two routes, the integral form of E, and the monic symmetric P.
* :mod:`macpoly.quasisym` -- quasisymmetric values G, the quasisymmetry
  checker, qs_schur (G at q = t = 0), and the tableau oracle.
* :mod:`macpoly.verify` -- the executable identity battery.
"""

from .polyring import MPoly, Monomial, QtFactor, QtRational
from .shapes import Cell, CompositionStats, Diagram, Filling, composition_stats
from .modified import htilde_compact, htilde_plain
from .nonsymmetric import EResult, e_permuted_basement, f_poly
from .integral import JResult, integral_e, j_compact, j_plain, p_poly, hook_product, hook_product_inc
from .quasisym import g_poly, qs_schur, qsym_decompose, schur_ssyt

__all__ = [
    "MPoly",
    "Monomial",
    "QtFactor",
    "QtRational",
    "Cell",
    "CompositionStats",
    "Diagram",
    "Filling",
    "composition_stats",
    "htilde_compact",
    "htilde_plain",
    "EResult",
    "e_permuted_basement",
    "f_poly",
    "integral_e",
    "JResult",
    "j_compact",
    "j_plain",
    "p_poly",
    "hook_product",
    "hook_product_inc",
    "g_poly",
    "qs_schur",
    "qsym_decompose",
    "schur_ssyt",
]

__version__ = "0.1.0"
