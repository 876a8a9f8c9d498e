"""Command line surface.

One verb per library operation, grouped as ``lie``, ``der``, ``ihara``,
``motivic`` and ``malcev`` subcommands.  Every verb renders a plain-text
table by default and a deterministic JSON document under ``--json``
(sorted keys, no timestamps).  Exit codes: 0 success, 1 usage, 2
malformed expression (diagnostic includes the position), 3 violated
computation precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import derivations, ihara, malcev, motivic
from .errors import GrtError, LieSyntaxError
from .lie import LieElement, bracket, expand_assoc, lie_to_string
from .parsing import parse_lie
from .words import GradedAlphabet, lyndon_words, weighted_witt_dims, witt_dim

USAGE_EXIT, PARSE_EXIT, PRECONDITION_EXIT = 1, 2, 3


@dataclass
class CommandResult:
    status: int
    payload: dict = field(default_factory=dict)
    rendering: str = ""
    json_mode: bool = False


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1 instead of 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _jsonify(obj):
    """Make a payload JSON-clean: integral Fractions become ints, other
    Fractions 'p/q' strings, non-string dict keys their str()."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    return str(obj)


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; a token that is not one is a
    usage error that names it."""
    out = []
    for token in filter(None, text.split(",")):
        try:
            out.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {token!r}")
    return out


def _check_ihara_degree(n: int) -> None:
    if n > ihara.HARD_MAX_DEGREE:
        raise GrtError(f"degree {n} exceeds the hard cap "
                       f"ihara.HARD_MAX_DEGREE = {ihara.HARD_MAX_DEGREE}")
    if n < 1:
        raise GrtError("degree must be >= 1")


def _rows_table(rows, columns) -> str:
    head = [" ".join(f"{c:>9}" for c in columns)]
    for r in rows:
        head.append(" ".join(f"{str(r[c]):>9}" for c in columns))
    return "\n".join(head)


# ---------------------------------------------------------------------
# subcommand handlers: each returns (payload, rendering)
# ---------------------------------------------------------------------

def _cmd_lie_dim(args):
    if args.generator_degrees is not None:
        dims = weighted_witt_dims(args.generator_degrees, args.degree)
        rows = [{"degree": n, "dim": dims.get(n, 0)}
                for n in range(1, args.degree + 1)]
        return ({"generator_degrees": args.generator_degrees, "rows": rows},
                _rows_table(rows, ("degree", "dim")))
    d = witt_dim(args.letters, args.degree)
    return ({"letters": args.letters, "degree": args.degree, "dim": d},
            str(d))


def _cmd_lie_lyndon(args):
    alph = GradedAlphabet(args.alphabet)
    words = lyndon_words(alph, args.degree)
    texts = [str(w) for w in words]
    return ({"alphabet": args.alphabet, "degree": args.degree,
             "count": len(texts), "words": texts}, "\n".join(texts))


def _element_payload(e: LieElement) -> dict:
    text = lie_to_string(e)
    terms = {e.alphabet.word_str(w): c for w, c in e.terms.items()}
    return {"text": text, "terms": _jsonify(dict(sorted(terms.items())))}


def _cmd_lie_bracket(args):
    alph = GradedAlphabet(args.alphabet)
    a = parse_lie(args.left, alph)
    b = parse_lie(args.right, alph)
    out = bracket(a, b, args.max_degree)
    return _element_payload(out), lie_to_string(out)


def _cmd_lie_parse(args):
    alph = GradedAlphabet(args.alphabet)
    e = parse_lie(args.expression, alph)
    payload = _element_payload(e)
    degrees = sorted(e.graded_components())
    payload["degrees"] = degrees
    # mixed elements are legal input; only report a degree when unique
    payload["homogeneous_degree"] = degrees[0] if len(degrees) == 1 else None
    return payload, lie_to_string(e)


def _cmd_lie_expand(args):
    alph = GradedAlphabet(args.alphabet)
    e = parse_lie(args.expression, alph)
    p = expand_assoc(e)
    items = sorted((alph.word_str(w), c) for w, c in p.terms.items())
    rows = [{"word": w, "coefficient": c} for w, c in items]
    return ({"terms": _jsonify({w: c for w, c in items})},
            _rows_table(rows, ("word", "coefficient")))


def _cmd_der_outdim(args):
    d = derivations.outder_dim(args.degree)
    return ({"degree": args.degree, "outer_dim": d}, str(d))


def _cmd_der_apply(args):
    alph = derivations.XY
    ix = parse_lie(args.image_x, alph)
    iy = parse_lie(args.image_y, alph)
    target = parse_lie(args.target, alph)
    out = derivations.Derivation(ix, iy)(target)
    return _element_payload(out), lie_to_string(out)


def _cmd_ihara_basis(args):
    _check_ihara_degree(args.degree)
    basis = ihara.special_basis(args.degree)
    texts = [lie_to_string(f) for f in basis]
    return ({"degree": args.degree, "dim": len(texts), "basis": texts},
            "\n".join(texts) if texts else "(zero space)")


def _cmd_ihara_soule(args):
    _check_ihara_degree(args.degree)
    f = ihara.soule_generator(args.degree)
    return ({"degree": args.degree, "generator": lie_to_string(f)},
            lie_to_string(f))


def _cmd_ihara_bracket(args):
    for m in (args.left, args.right):
        _check_ihara_degree(m)
    f = ihara.soule_generator(args.left)
    g = ihara.soule_generator(args.right)
    out = ihara.ihara_bracket(f, g)
    payload = _element_payload(out)
    payload.update({"left": args.left, "right": args.right})
    return payload, lie_to_string(out)


def _cmd_ihara_congruence(args):
    report = ihara.check_congruence(args.modulus)
    lines = [f"modulus   {report['modulus']}",
             f"degree    {report['degree']}",
             f"gcd       {report['coordinate_gcd']}",
             f"divisible {report['divisible']}"]
    return _jsonify(report), "\n".join(lines)


def _cmd_ihara_freeness(args):
    _check_ihara_degree(args.max_degree)
    rows = ihara.freeness_table(args.max_degree)
    ok = all(r["match"] for r in rows)
    return ({"max_degree": args.max_degree, "rows": rows, "all_match": ok},
            _rows_table(rows, ("degree", "computed", "expected", "match")))


def _profile(args) -> motivic.NumberFieldProfile:
    return motivic.NumberFieldProfile(args.r1, args.r2, args.s)


def _cmd_motivic_dn(args):
    p = _profile(args)
    d = motivic.dn(p, args.n)
    return ({"profile": {"r1": p.r1, "r2": p.r2, "s_size": p.s_size},
             "n": args.n, "d_n": d}, str(d))


def _cmd_motivic_ext(args):
    p = _profile(args)
    d = motivic.ext_dim(p, args.i, args.n)
    return ({"profile": {"r1": p.r1, "r2": p.r2, "s_size": p.s_size},
             "i": args.i, "n": args.n, "ext": d}, str(d))


def _cmd_motivic_kdims(args):
    p = _profile(args)
    dims = motivic.k_graded_dims(p, args.max_degree)
    rows = [{"degree": n, "dim": dims[n]} for n in sorted(dims)]
    return ({"profile": {"r1": p.r1, "r2": p.r2, "s_size": p.s_size},
             "rows": rows}, _rows_table(rows, ("degree", "dim")))


def _cmd_motivic_image(args):
    dims = motivic.image_model_dims(args.max_degree)
    rows = [{"degree": n, "dim": dims[n]} for n in sorted(dims)]
    return ({"rows": rows}, _rows_table(rows, ("degree", "dim")))


def _cmd_malcev_bch(args):
    alph = GradedAlphabet(args.alphabet)
    a = malcev.NilpotentElement(parse_lie(args.left, alph), args.cls)
    b = malcev.NilpotentElement(parse_lie(args.right, alph), args.cls)
    out = malcev.bch(a, b)
    payload = _element_payload(out.value)
    payload["class"] = args.cls
    return payload, lie_to_string(out.value)


def _cmd_malcev_word(args):
    alph = GradedAlphabet(args.alphabet)
    out = malcev.word_to_group(args.word, alph, args.cls)
    payload = _element_payload(out.value)
    payload["class"] = args.cls
    return payload, lie_to_string(out.value)


def _cmd_malcev_filtration(args):
    if args.family == "FreeGroup":
        if len(args.params) != 2:
            raise GrtError("FreeGroup takes --params k,class")
        family_obj = malcev.FreeGroup(*args.params)
        default_m = family_obj.cls
    elif args.family == "LatticeTimesCyclic":
        if len(args.params) != 2:
            raise GrtError("LatticeTimesCyclic takes --params rank,torsion")
        family_obj = malcev.LatticeTimesCyclic(*args.params)
        default_m = 2
    elif args.family == "SubgroupOfNilpotent":
        if not args.generator:
            raise GrtError(
                "SubgroupOfNilpotent needs at least one --generator")
        alph = GradedAlphabet(args.alphabet)
        gens = [malcev.NilpotentElement(parse_lie(g, alph), args.cls)
                for g in args.generator]
        family_obj = malcev.SubgroupOfNilpotent(gens)
        default_m = args.cls
    else:
        raise GrtError(f"unknown family {args.family!r}")
    max_m = args.max_m if args.max_m is not None else default_m
    rows = malcev.filtration_report(family_obj, max_m)
    return ({"family": args.family, "rows": rows},
            _rows_table(rows, ("m", "rank", "torsion", "d_mod_l")))


# ---------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------

def _verb(verbs, name, handler, **kwargs):
    p = verbs.add_parser(name, **kwargs)
    p.set_defaults(handler=handler)
    p.add_argument("--json", action="store_true",
                   help="emit a JSON document instead of a table")
    return p


def _lie_verbs(lie) -> None:
    p = _verb(lie, "dim", _cmd_lie_dim, help="graded dimension counts")
    p.add_argument("--letters", type=int, default=2)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--generator-degrees", type=_int_list,
                   help="comma list; switches to weighted dimensions")
    p = _verb(lie, "lyndon", _cmd_lie_lyndon, help="list basis words")
    p.add_argument("--alphabet", default="x y")
    p.add_argument("--degree", type=int, required=True)
    p = _verb(lie, "bracket", _cmd_lie_bracket, help="bracket two expressions")
    p.add_argument("--alphabet", default="x y")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("left")
    p.add_argument("right")
    p = _verb(lie, "parse", _cmd_lie_parse, help="canonicalize an expression")
    p.add_argument("--alphabet", default="x y")
    p.add_argument("expression")
    p = _verb(lie, "expand", _cmd_lie_expand,
              help="expand into the tensor algebra")
    p.add_argument("--alphabet", default="x y")
    p.add_argument("expression")


def _der_verbs(der) -> None:
    p = _verb(der, "outdim", _cmd_der_outdim,
              help="outer derivation dimension")
    p.add_argument("--degree", type=int, required=True)
    p = _verb(der, "apply", _cmd_der_apply,
              help="apply the derivation with the given generator images")
    p.add_argument("--image-x", required=True)
    p.add_argument("--image-y", required=True)
    p.add_argument("target")


def _ihara_verbs(ih) -> None:
    p = _verb(ih, "basis", _cmd_ihara_basis, help="stable space basis")
    p.add_argument("--degree", type=int, required=True)
    p = _verb(ih, "soule", _cmd_ihara_soule, help="normalized generator")
    p.add_argument("--degree", type=int, required=True)
    p = _verb(ih, "bracket", _cmd_ihara_bracket,
              help="bracket of two normalized generators")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p = _verb(ih, "congruence", _cmd_ihara_congruence,
              help="divisibility report for the degree-12 combination")
    p.add_argument("--modulus", type=int, default=691)
    p = _verb(ih, "freeness", _cmd_ihara_freeness,
              help="stable dims vs free-model dims")
    p.add_argument("--max-degree", type=int,
                   default=ihara.DEFAULT_MAX_DEGREE)


def _motivic_verbs(mo) -> None:
    for name, handler, extra in (
            ("dn", _cmd_motivic_dn, (("--n", True),)),
            ("ext", _cmd_motivic_ext, (("--i", True), ("--n", True))),
            ("kdims", _cmd_motivic_kdims, (("--max-degree", True),))):
        p = _verb(mo, name, handler)
        p.add_argument("--r1", type=int, required=True)
        p.add_argument("--r2", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        for flag, req in extra:
            p.add_argument(flag, type=int, required=req)
    p = _verb(mo, "image", _cmd_motivic_image,
              help="free-model dimension table")
    p.add_argument("--max-degree", type=int, required=True)


def _malcev_verbs(ma) -> None:
    p = _verb(ma, "bch", _cmd_malcev_bch, help="truncated group product")
    p.add_argument("--class", dest="cls", type=int, required=True)
    p.add_argument("--alphabet", default="x y")
    p.add_argument("left")
    p.add_argument("right")
    p = _verb(ma, "word", _cmd_malcev_word,
              help="group word to logarithm coordinates")
    p.add_argument("--class", dest="cls", type=int, required=True)
    p.add_argument("--alphabet", default="x y")
    p.add_argument("word")
    p = _verb(ma, "filtration", _cmd_malcev_filtration,
              help="lower central series lattice report")
    p.add_argument("--family", required=True)
    p.add_argument("--params", type=_int_list, default=[])
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--class", dest="cls", type=int, default=2)
    p.add_argument("--alphabet", default="x y")
    p.add_argument("--generator", action="append", default=[])


_GROUPS = {"lie": _lie_verbs, "der": _der_verbs, "ihara": _ihara_verbs,
           "motivic": _motivic_verbs, "malcev": _malcev_verbs}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for ``argv``, with the verbs of the group it names only
    (of every group when it names none): the others are never read."""
    top = _Parser(prog="grt", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for name, wire in _GROUPS.items():
        group = groups.add_parser(name)
        if named == name or named not in _GROUPS:
            wire(group.add_subparsers(dest="verb", required=True))
    return top


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; never raises on expected error classes."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        payload, rendering = args.handler(args)
        return CommandResult(0, _jsonify(payload), rendering,
                             getattr(args, "json", False))
    except _UsageError as e:
        return CommandResult(USAGE_EXIT, {"error": str(e)}, str(e))
    except LieSyntaxError as e:
        return CommandResult(PARSE_EXIT, {"error": str(e)}, str(e))
    except GrtError as e:
        return CommandResult(PRECONDITION_EXIT, {"error": str(e)}, str(e))


def main() -> int:
    result = run(sys.argv[1:])
    if result.status != 0:
        print(result.rendering, file=sys.stderr)
    elif result.json_mode:
        print(json.dumps(result.payload, indent=2, sort_keys=True))
    else:
        print(result.rendering)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
