"""Diagrammatic Kazhdan-Lusztig calculus for a maximal parabolic quotient
of type D: sign-sequence combinatorics, the Hecke-module recursion, cup
diagram and circle diagram geometry, and the decorated arc algebra acting
on cup diagrams.
"""

from .laurent import LaurentPoly
from .weyl import PMSequence, enumerate_wp, apply_generator, reduced_word, length
from .hecke import kl_basis, kl_poly, kl_table, expand_in_kl
from .cups import (
    DecoratedCupDiagram,
    decorated_cup,
    enumerate_decorated,
    kl_poly_diagrammatic,
    orientations_of,
)
from .circles import circle_diagram, hom_dim, hom_matrix
from .tangles import (
    DecoratedTangle,
    act,
    cell_datum,
    generator,
    mul,
    star,
    tlhat_basis,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "PMSequence",
    "enumerate_wp",
    "apply_generator",
    "reduced_word",
    "length",
    "kl_basis",
    "kl_poly",
    "kl_table",
    "expand_in_kl",
    "DecoratedCupDiagram",
    "decorated_cup",
    "enumerate_decorated",
    "kl_poly_diagrammatic",
    "orientations_of",
    "circle_diagram",
    "hom_dim",
    "hom_matrix",
    "DecoratedTangle",
    "act",
    "cell_datum",
    "generator",
    "mul",
    "star",
    "tlhat_basis",
    "__version__",
]
