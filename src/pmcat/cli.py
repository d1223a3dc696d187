"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when a verified
property fails (a witness is printed), 2 for unusable input (a file
that cannot be read or is not UTF-8, parse error, unresolved id,
non-closed composition table, or weak equivalences that are not a
subcategory where a nerve composes them) or bad usage (unknown flags,
malformed or out-of-range numbers).

Reports are emitted on stdout as human-readable text or, with
``--format json``, as a versioned machine-readable document that is
byte-identical across runs on identical input.  ``_write_json`` spells
JSON exactly as ``json.dumps(report, indent=2, sort_keys=True)`` would,
with the C string encoder, and the tests compare the two.  Each input is
read once, by ``parse_file``, which also returns the digest reports embed.
"""

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .fincat import StructuralError
from .relcat import validate_relative, check_two_of_three, check_two_of_six
from .pmc import PartialModelStructure, verify_partial_model
from .sset import rezk_nerve, nerve, pi0, IDENTITIES_CHECKED_ON
from .hammock import (
    homotopy_category, mapping_space, check_saturation, diagnostic_saturation,
    HoConsistencyError, ORACLE_MIN_BOUND,
)
from .segal import verify_segal
from .yoneda import verify_yoneda_relative
from .document import parse_file, DocumentError

REPORT_FORMAT = "pmcat-report/1"


def _emit(report, fmt):
    if fmt == "json":
        out = []
        _write_json(report, out, "\n")
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        _emit_text(report)


def _write_json(value, out, nl):
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2,
    sort_keys=True)`` spells it; ``nl`` is the newline and indent of the
    line the value starts on.  Only the types reports hold are written:
    dict with str keys, list, tuple, str, int, bool and None."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out += (sep, _quote(key), ": ")
            _write_json(value[key], out, inner)
            sep = comma
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = comma
        out.append(nl + "]")
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")


def _emit_text(value, pad="", out=None):
    """Write ``value`` as text indented by ``pad``: a dict as ``key: value``
    lines, a list or tuple as one ``- `` item per element, and a nested one
    on the lines under its key or from its item's line on, two further in."""
    lines = [] if out is None else out
    if isinstance(value, dict) and value:
        for key, item in value.items():
            if isinstance(item, (dict, list, tuple)) and item:
                lines.append(f"{pad}{key}:")
                _emit_text(item, pad + "  ", lines)
            else:
                lines.append(f"{pad}{key}: {[] if item == () else item}")
    elif isinstance(value, (list, tuple)) and value:
        for item in value:
            first = len(lines)
            _emit_text(item, pad + "  ", lines)
            lines[first] = f"{pad}- {lines[first][len(pad) + 2:]}"
    else:
        lines.append(f"{pad}{[] if value == () else value}")
    if out is None:
        sys.stdout.write("\n".join(lines) + "\n")


def _report(command, args, result, exit_code):
    return {
        "format": REPORT_FORMAT,
        "tool_version": __version__,
        "command": command,
        "input": {"file": os.path.basename(args.file), "sha256": args.sha256},
        "result": result,
        "exit_code": exit_code,
    }


def _load(args, need_calculus=False):
    """The parsed document and its relative category; the digest of the
    bytes read goes to ``args.sha256`` for the report."""
    value, args.sha256 = parse_file(args.file)
    is_pms = isinstance(value, PartialModelStructure)
    if need_calculus and not is_pms:
        raise DocumentError(0, "this command needs calculus data (u/v/factor lines)")
    return value, (value.rc if is_pms else value)


def _load_closed(args):
    """The document's relative category, refused unless its marked maps
    form a wide subcategory: the diagram categories behind the nerves
    compose marked maps componentwise."""
    _value, rc = _load(args)
    validate_relative(rc).require("the weak equivalences are not a subcategory "
                                  "(pmcat check lists every violation)")
    return rc


def cmd_check(args):
    value, rc = _load(args)
    if isinstance(value, PartialModelStructure):
        axioms = verify_partial_model(value)
        t23 = check_two_of_three(rc)
        result = {
            "kind": "calculus-structure",
            "axioms": axioms.to_dict(),
            "two_of_three": t23.to_dict(),
        }
        code = 0 if axioms.passed and t23.passed else 1
    else:
        laws = rc.cat.validate()
        rel = validate_relative(rc)
        t23 = check_two_of_three(rc)
        t26 = check_two_of_six(rc)
        result = {
            "kind": "relative-category",
            "category_laws": laws.to_dict(),
            "relative_laws": rel.to_dict(),
            "two_of_three": t23.to_dict(),
            "two_of_six": t26.to_dict(),
        }
        code = 0 if laws.ok and rel.ok and t23.passed and t26.passed else 1
    return _report("check", args, result, code)


def cmd_nerve(args):
    b = rezk_nerve(_load_closed(args), args.kmax, args.nmax)
    violations = b.validate_identities()
    counts = {f"({k},{n})": b.size(k, n)
              for k in range(args.kmax + 1) for n in range(args.nmax + 1)}
    result = {
        "kind": "classification-nerve",
        "k_max": args.kmax,
        "n_max": args.nmax,
        "bidegree_counts": counts,
        "identity_violations": violations[:10],
        "identity_violations_total": len(violations),
        "identities_ok": not violations,
        "identities_checked_on": IDENTITIES_CHECKED_ON,
    }
    return _report("nerve", args, result, 0 if not violations else 1)


def cmd_segal(args):
    pms, _rc = _load(args, need_calculus=True)
    axioms = verify_partial_model(pms)
    if not axioms.passed:
        result = {"kind": "fiber-square", "axioms": axioms.to_dict(),
                  "note": "structure does not satisfy the axioms; not attempted"}
        return _report("segal", args, result, 1)
    report = verify_segal(pms, args.k, args.dims, cell_budget=args.cell_budget,
                          allow_large=args.allow_large)
    result = {"kind": "fiber-square", "summary": report.describe().splitlines(),
              "detail": report.to_dict(full=args.full)}
    return _report("segal", args, result, 0 if report.passed else 1)


def cmd_ho(args):
    pms, _rc = _load(args, need_calculus=True)
    axioms = verify_partial_model(pms)
    if not axioms.passed:
        return _report("ho", args, {
            "kind": "homotopy-category",
            "note": "structure does not satisfy the axioms",
            "axioms": axioms.to_dict()}, 1)
    try:
        ho_cat, _class_of = homotopy_category(pms)
    except HoConsistencyError as e:
        return _report("ho", args, {"kind": "homotopy-category",
                                    "consistency_error": str(e)}, 1)
    hom = {f"{a}=>{b}": len(ho_cat.hom(a, b))
           for a in ho_cat.objects for b in ho_cat.objects}
    result = {
        "kind": "homotopy-category",
        "objects": list(ho_cat.objects),
        "hom_class_counts": hom,
        "laws_verified": True,
    }
    return _report("ho", args, result, 0)


def cmd_mapspace(args):
    rc = _load_closed(args)
    s = mapping_space(rc, args.src, args.tgt, args.nmax)
    result = {
        "kind": "mapping-space",
        "from": args.src,
        "to": args.tgt,
        "n_max": args.nmax,
        "simplex_counts": [s.size(n) for n in range(args.nmax + 1)],
        "components": len(pi0(s)) if args.nmax >= 1 else None,
        "convention": "zigzag morphisms are componentwise weak equivalences",
    }
    return _report("mapspace", args, result, 0)


def cmd_saturate(args):
    value, rc = _load(args)
    if isinstance(value, PartialModelStructure) and not args.diagnostic:
        axioms = verify_partial_model(value)
        if not axioms.passed:
            return _report("saturate", args, {
                "kind": "saturation",
                "note": "structure does not satisfy the axioms; "
                        "run with --diagnostic for the oracle mode",
                "axioms": axioms.to_dict()}, 1)
        try:
            report = check_saturation(value)
        except HoConsistencyError as e:
            return _report("saturate", args, {"kind": "saturation",
                                              "consistency_error": str(e)}, 1)
    else:
        report = diagnostic_saturation(rc, args.bound)
    result = {"kind": "saturation", **report.to_dict()}
    return _report("saturate", args, result, 0 if report.passed else 1)


def cmd_yoneda(args):
    report = verify_yoneda_relative(_load_closed(args), args.dims)
    result = {"kind": "mapping-space-embedding", **report.to_dict()}
    return _report("yoneda", args, result, 0 if report.passed else 1)


def cmd_export(args):
    if args.what == "rezk-nerve":
        b = rezk_nerve(_load_closed(args), args.kmax, args.nmax)
        data = {
            "kind": "bisimplicial-set",
            "k_max": b.k_max,
            "n_max": b.n_max,
            "simplices": {f"({k},{n})": [dict(zip(("objects", "horizontal", "vertical"), g))
                                         for g in grids] for (k, n), grids in b.simplices.items()},
            "h_faces": _by_key(b.hfaces),
            "v_faces": _by_key(b.vfaces),
            "h_degeneracies": _by_key(b.hdegens),
            "v_degeneracies": _by_key(b.vdegens),
        }
    else:
        _value, rc = _load(args)
        s = nerve(rc.cat, args.nmax)
        data = {
            "kind": "simplicial-set",
            "n_max": s.n_max,
            "simplices": dict(zip(map(str, range(s.n_max + 1)), s.simplices)),
            "faces": _by_key(s.faces),
            "degeneracies": _by_key(s.degeneracies),
        }
    return _report("export", args, data, 0)


def _by_key(tables):
    """Operator tables keyed "(k,n,i)" or "(n,i)", in key order."""
    return {f"({','.join(map(str, key))})": t for key, t in sorted(tables.items())}


def _at_least(low):
    """An integer flag of at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _chain_lengths(text):
    """``--k``: comma-separated chain lengths, each at least 2."""
    try:
        ks = tuple(int(k) for k in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if any(k < 2 for k in ks):
        raise argparse.ArgumentTypeError(f"chain lengths must be >= 2, got {text!r}")
    return ks


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pmcat",
        description="verify weak-equivalence axioms and reconstruct the "
                    "classification-nerve certificates of finite relative categories")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help=".relcat document")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="category, marking, and axiom checks")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("nerve", help="classification nerve sizes, identities checked on functors")
    common(p)
    p.add_argument("--kmax", type=_at_least(0), default=4)
    p.add_argument("--nmax", type=_at_least(0), default=4)
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("segal", help="strict fiber identity, retraction "
                                     "certificate, nerve corroboration")
    common(p)
    p.add_argument("--k", type=_chain_lengths, default="2,3",
                   help="comma-separated chain lengths, each >= 2")
    p.add_argument("--dims", type=_at_least(0), default=2)
    p.add_argument("--cell-budget", type=_at_least(0), default=200_000)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--full", action="store_true",
                   help="embed full per-object rows in the json certificate")
    p.set_defaults(func=cmd_segal)

    p = sub.add_parser("ho", help="homotopy category hom-set classes")
    common(p)
    p.set_defaults(func=cmd_ho)

    p = sub.add_parser("mapspace", help="zigzag mapping space between two objects")
    common(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="tgt", required=True)
    p.add_argument("--nmax", type=_at_least(0), default=2)
    p.set_defaults(func=cmd_mapspace)

    p = sub.add_parser("saturate", help="marking versus invertibility after localization")
    common(p)
    p.add_argument("--diagnostic", action="store_true",
                   help="force the bounded word oracle")
    p.add_argument("--bound", type=_at_least(ORACLE_MIN_BOUND), default=7)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("yoneda", help="mapping-space embedding diagnostics")
    common(p)
    p.add_argument("--dims", type=_at_least(0), default=2)
    p.set_defaults(func=cmd_yoneda)

    p = sub.add_parser("export", help="dump a (bi)simplicial set")
    common(p)
    p.add_argument("--what", choices=("rezk-nerve", "nerve"), default="rezk-nerve")
    p.add_argument("--kmax", type=_at_least(0), default=2)
    p.add_argument("--nmax", type=_at_least(0), default=2)
    p.set_defaults(func=cmd_export)

    return parser


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:  # built on first use, once per process
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report = args.func(args)
    except (DocumentError, StructuralError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    _emit(report, args.format)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
