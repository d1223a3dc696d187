"""Built-in fixture library.

Six small relative categories exercise every code path:

- ``pt``  the terminal category;
- ``I1``  the arrow category [1] with only identities marked;
- ``Iw``  the arrow category [1] with everything marked;
- ``J``   the two-object groupoid with one isomorphism each way;
- ``B2``  the lattice of subsets of a two-element set, fully marked;
- ``P4``  the linear order [3] with the two long diagonals 02 and 13
          marked -- a relative category that fails two-out-of-six.

All five marked fixtures carry the trivial calculus data (every marked
map factors as identity-after-itself); P4 ships raw.  The .relcat files
under ``pmcat/fixtures/`` are the canonical serializer output of these
builders and are regenerated by ``python3 -m pmcat.fixtures``.
"""

import importlib.resources as resources
import pathlib

from .fincat import FinCategory
from .relcat import RelCategory, preorder_category as _poset  # also read by perfbench/probe.py
from .pmc import trivial_partial_model_structure
from .document import serialize_document

FIXTURES = ("pt", "I1", "Iw", "J", "B2", "P4")


def interval():
    return _poset(["0", "1"], [("0", "1")], lambda a, b: a + b)


def linear_order_three():
    elems = ["0", "1", "2", "3"]
    pairs = [(a, b) for a in elems for b in elems if a < b]
    return _poset(elems, pairs, lambda a, b: a + b)


def subset_lattice():
    contains = {"0": frozenset(), "1": frozenset("1"), "2": frozenset("2"),
                "12": frozenset("12")}
    elems = ["0", "1", "2", "12"]
    pairs = [(a, b) for a in elems for b in elems
             if a != b and contains[a] < contains[b]]
    return _poset(elems, pairs, lambda a, b: f"{a}<{b}")


def two_object_groupoid():
    rows = [("s", "a", "b"), ("t", "b", "a")]
    comp = {("s", "t"): "id:a", ("t", "s"): "id:b"}
    return FinCategory.build(["a", "b"], rows, comp)


def build(name):
    """Construct a fixture by name; calculus-equipped unless raw.

    The marked fixtures all carry U = V = W with the trivial
    factorization w = id.w (on J the identity-only V would not be
    pullback-closed under the deterministic pullback choice).
    """
    if name == "pt":
        cat = FinCategory.build(["*"], [], {})
        return trivial_partial_model_structure(RelCategory(cat, []))
    if name == "I1":
        return trivial_partial_model_structure(RelCategory(interval(), []))
    if name in ("Iw", "J", "B2"):
        cat = {"Iw": interval, "J": two_object_groupoid, "B2": subset_lattice}[name]()
        rc = RelCategory(cat, cat.morphisms)
        return trivial_partial_model_structure(rc, v_sub=rc.weq)
    if name == "P4":
        return RelCategory(linear_order_three(), ["02", "13"])
    raise KeyError(f"unknown fixture {name}")


def fixture_path(name):
    """Filesystem path of a packaged .relcat fixture file."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name}")
    return pathlib.Path(resources.files("pmcat") / "fixtures" / f"{name}.relcat")


def write_all(directory):
    """Regenerate the canonical fixture files."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in FIXTURES:
        path = directory / f"{name}.relcat"
        path.write_text(serialize_document(build(name)), encoding="utf-8")
    return [directory / f"{name}.relcat" for name in FIXTURES]


if __name__ == "__main__":
    here = pathlib.Path(__file__).parent / "fixtures"
    for p in write_all(here):
        print(p)
