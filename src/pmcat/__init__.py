"""Toolkit for finite relative categories.

Everything here is exact and finite: categories are given by explicit
composition tables or built from such categories, weak equivalences by
marked subcategories, and all structural claims (axioms, universal
properties, naturality, homology) are established by exhaustive
checking rather than by proof.

Modules:

- ``fincat``   finite categories, functors, pushout/pullback search
- ``relcat``   relative categories, two-out-of-three / two-out-of-six,
               and ``diagram_category``, the one engine behind every
               category of shaped diagrams (A_k, B_k, zigzag hammocks,
               the arrow category of W, the classification nerve)
- ``pmc``      weak-equivalence calculus structures and their axioms
- ``sset``     truncated (bi)simplicial sets, nerves, pi0, homology
- ``smith``    Smith normal form over the integers
- ``hammock``  three-arrow zigzag mapping spaces and homotopy categories
- ``segal``    chain categories, zigzag-chain categories, retraction
               certificates
- ``yoneda``   finite evaluation of the mapping-space embedding
- ``document`` the .relcat file format
- ``fixtures`` the built-in fixture library
- ``cli``      command-line interface
"""

__version__ = "0.1.0"
