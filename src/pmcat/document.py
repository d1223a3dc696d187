"""The .relcat document format.

A line-oriented plain-text description of a relative category,
optionally with calculus data.  Directives:

    relcat-version 1
    object <id>
    morphism <id> <src> <tgt>
    compose <f> <g> <h>          # h is g after f; non-identity pairs
    weq <morphism>               # identities are implicitly marked
    u <morphism>                 # identities implicit
    v <morphism>                 # identities implicit
    factor <w> <u> <mid> <v>     # w = v.u through the object <mid>
    middle <w> <w2> <a> <b> <m>  # middle map of the square (a, b)

A document is UTF-8 text.  Blank lines and ``#`` comments are ignored.
Identity morphisms are auto-generated with the reserved ids
``id:<object>``.  A document with any u/v/factor/middle line parses to
a calculus structure, otherwise to a raw relative category; omitting
weq lines leaves only the identities marked.

The serializer emits a canonical form (fixed directive order, input
order within each block), so parse -> serialize -> parse is the
identity on documents and serializer output round-trips byte-exactly.
"""

import hashlib

from .fincat import FinCategory, StructuralError, CategoryLawError, ID_PREFIX
from .relcat import RelCategory
from .pmc import PartialModelStructure

FORMAT_VERSION = "1"

# directive -> (words on its line, usage named when the count is wrong)
DIRECTIVES = {
    "relcat-version": (2, f"relcat-version {FORMAT_VERSION}"),
    "object": (2, "object <id>"),
    "morphism": (4, "morphism <id> <src> <tgt>"),
    "compose": (4, "compose <f> <g> <h>"),
    "weq": (2, "weq <morphism>"),
    "u": (2, "u <morphism>"),
    "v": (2, "v <morphism>"),
    "factor": (5, "factor <w> <u> <mid> <v>"),
    "middle": (6, "middle <w> <w2> <a> <b> <m>"),
}


class DocumentError(ValueError):
    """Parse-level failure; carries the offending line number."""

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


def parse_document(text):
    """Parse a .relcat document.

    Returns a PartialModelStructure when calculus data is present, else
    a RelCategory.  Identities are inserted, the category laws are
    validated, and every unresolved id is reported with its line.
    """
    objects = []
    morphisms = []
    comp = {}
    weq = []
    u_sub, v_sub = [], []
    factor = {}
    middle = {}
    has_calculus = False
    seen_version = False
    declared = set()
    mor_ids = set()
    line_of = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        head = parts[0]
        try:
            words, usage = DIRECTIVES[head]
        except KeyError:
            raise DocumentError(line_no, f"unknown directive '{head}'") from None
        if len(parts) != words:
            raise DocumentError(line_no, f"expected '{usage}'")
        # branches in the order of their frequency in calculus documents
        if head == "middle":
            sq, m = tuple(parts[1:5]), parts[5]
            if middle.setdefault(sq, m) != m:
                raise DocumentError(line_no, f"conflicting middle map for {sq}")
            line_of.setdefault(("middle", sq), line_no)
            has_calculus = True
        elif head == "compose":
            f, g, h = parts[1:]
            if comp.setdefault((f, g), h) != h:
                raise DocumentError(line_no, f"conflicting composite for ({f}, {g})")
            line_of.setdefault(("compose", f, g), line_no)
        elif head == "factor":
            w, entry = parts[1], tuple(parts[2:])
            if factor.setdefault(w, entry) != entry:
                raise DocumentError(line_no, f"conflicting factorization for {w}")
            line_of.setdefault(("factor", w), line_no)
            has_calculus = True
        elif head == "morphism":
            mid, src, tgt = parts[1:]
            if mid in mor_ids:
                raise DocumentError(line_no, f"morphism {mid} declared twice")
            if mid.startswith(ID_PREFIX):
                raise DocumentError(line_no, f"{ID_PREFIX} ids are reserved for identities")
            mor_ids.add(mid)
            line_of[mid] = line_no
            morphisms.append((mid, src, tgt))
        elif head == "weq":
            weq.append(parts[1])
            line_of.setdefault(("weq", parts[1]), line_no)
        elif head == "u" or head == "v":
            (u_sub if head == "u" else v_sub).append(parts[1])
            line_of.setdefault((head, parts[1]), line_no)
            has_calculus = True
        elif head == "object":
            if parts[1] in declared:
                raise DocumentError(line_no, f"object {parts[1]} declared twice")
            declared.add(parts[1])
            objects.append(parts[1])
        else:  # relcat-version
            if parts[1] != FORMAT_VERSION:
                raise DocumentError(line_no, f"unsupported version {parts[1]}")
            seen_version = True

    if not seen_version:
        raise DocumentError(1, "missing 'relcat-version 1' header")

    for mid, src, tgt in morphisms:
        for o in (src, tgt):
            if o not in declared:
                raise DocumentError(line_of[mid], f"unknown object {o}")
    all_mor = set(mor_ids) | {ID_PREFIX + o for o in objects}
    for (f, g), h in comp.items():
        for m in (f, g, h):
            if m not in all_mor:
                raise DocumentError(line_of[("compose", f, g)], f"unknown morphism {m}")
    for w in weq:
        if w not in all_mor:
            raise DocumentError(line_of[("weq", w)], f"unknown morphism {w}")

    try:
        cat = FinCategory.build(objects, morphisms, comp)
    except CategoryLawError as e:
        missing = [v for v in e.report.violations if v.law == "missing-composite"]
        if missing:
            f, g = missing[0].witness
            raise DocumentError(
                0, f"composition table not closed: no composite for ({f}, {g})") from None
        raise DocumentError(0, "not a category: " + e.report.describe()) from None
    except StructuralError as e:
        raise DocumentError(0, str(e)) from None

    rc = RelCategory(cat, weq)
    if not has_calculus:
        return rc
    for name, sub in (("u", u_sub), ("v", v_sub)):
        for m in sub:
            if m not in all_mor:
                raise DocumentError(line_of[(name, m)], f"unknown morphism {m} in {name} block")
    for w, (u, mid, v) in factor.items():
        for m in (w, u, v):
            if m not in all_mor:
                raise DocumentError(line_of[("factor", w)],
                                    f"unknown morphism {m} in factor block")
        if mid not in declared:
            raise DocumentError(line_of[("factor", w)], f"unknown object {mid} in factor block")
    for sq, m in middle.items():
        for x in sq + (m,):
            if x not in all_mor:
                raise DocumentError(line_of[("middle", sq)],
                                    f"unknown morphism {x} in middle block")
    return PartialModelStructure(rc, u_sub, v_sub, factor, middle)


def parse_file(path):
    """Parse the document at ``path`` from one read of its bytes:
    (parsed value, SHA-256 hex digest of the bytes)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as e:
        raise DocumentError(0, f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DocumentError(0, f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None
    return parse_document(text), hashlib.sha256(data).hexdigest()


def serialize_document(value):
    """Canonical text form of a RelCategory or PartialModelStructure."""
    if isinstance(value, PartialModelStructure):
        rc, pms = value.rc, value
    else:
        rc, pms = value, None
    cat = rc.cat
    lines = [f"relcat-version {FORMAT_VERSION}"]
    lines.extend(f"object {o}" for o in cat.objects)
    lines.extend(f"morphism {m} {cat.src[m]} {cat.tgt[m]}"
                 for m in cat.morphisms if not cat.is_identity(m))
    lines.extend(f"compose {f} {g} {h}" for (f, g), h in sorted(cat.composites())
                 if not (cat.is_identity(f) or cat.is_identity(g)))
    lines.extend(f"weq {w}" for w in rc.weq if not cat.is_identity(w))
    if pms is not None:
        for head, sub in (("u", pms.u_sub), ("v", pms.v_sub)):
            lines.extend(f"{head} {m}" for m in sub if not cat.is_identity(m))
        for w in sorted(pms.factorization):
            u, mid, v = pms.factorization[w]
            lines.append(f"factor {w} {u} {mid} {v}")
        for sq in sorted(pms.middle):
            lines.append(f"middle {' '.join(sq)} {pms.middle[sq]}")
    return "\n".join(lines) + "\n"
