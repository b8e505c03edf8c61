"""Diagrammatic Kazhdan-Lusztig calculus for a maximal parabolic quotient
of type D: sign-sequence combinatorics, the Hecke-module recursion, cup
diagram and circle diagram geometry, and the decorated arc algebra acting
on cup diagrams.

The layer modules are the API, each through its ``__all__``.  A layer loads
only the layers it imports, and ``cupkl.cli`` runs each layer on first use;
``checks`` reads every layer, and ``cups`` and ``circles`` read ``laurent``,
through the module, so under ``cupkl.cli`` a command runs only what it reads.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
