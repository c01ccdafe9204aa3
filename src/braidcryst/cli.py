"""Command-line front end.

Elements are entered either as braid words ("2 -1 5 -4") or as element JSON
({"n": ..., "perm": [...], "vec": {"i,j": c, ...}}); arguments starting with
"{" are treated as JSON.  Output is human-readable text by default and
stable JSON with --json.  Each ``_cmd_*`` handler returns its answer as
``(payload, text)``, and :func:`main` prints the one --json picks.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.

The engine is reached through the package, whose names load their modules
on first use, so each verb loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys

import braidcryst as bc


#: Most family members ``frobenius family --sample`` builds and verifies
#: (about 0.8 s for 1000).
SAMPLE_LIMIT = 1000


class UsageError(ValueError):
    pass


def _one_line(text: str) -> str:
    """``text`` with its line breaks turned into spaces, so that a message
    quoting the input stays one line."""
    return " ".join(text.splitlines())


#: In Python's refusal to read or print an integer past its digit limit.
_DIGIT_LIMIT = "integer string conversion"


def _error_text(exc: Exception) -> str:
    """``exc`` as one line, naming the digit limit instead of Python's hint."""
    if _DIGIT_LIMIT in str(exc):
        limit = sys.get_int_max_str_digits()
        return f"an integer is past the {limit}-digit limit on reading and printing integers"
    return _one_line(str(exc))


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` each of its subparsers, whose
    usage errors are one line on stderr, exit code 2, and which reads a comma
    list led by a negative number (``--r -1,0,0,0,0,0``) as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {_one_line(message)}\n")


def _json(text: str):
    """``json.loads``, with nesting too deep for the decoder's recursion
    refused as a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _element(args, text: str) -> bc.QuotientElement:
    text = text.strip()
    if text.startswith("{"):
        g = bc.QuotientElement.from_json(_json(text))
        if args.n is not None and args.n != g.n:
            raise ValueError(f"--n {args.n} conflicts with element n={g.n}")
        return g
    if args.n is None:
        raise UsageError("--n is required for word input")
    return bc.normalize(bc.BraidWord.from_text(args.n, text))


def _bounded_int(low: float = -math.inf, high: float = math.inf):
    """argparse type: an integer (:func:`permutation.parse_int`) in
    ``low..high``, else a one-line usage error."""
    bound = f" in {low}..{high}" if high < math.inf else f" >= {low}" if low > -math.inf else ""

    def parse(text: str) -> int:
        try:
            value = bc.parse_int(text)
        except ValueError as exc:
            if _DIGIT_LIMIT in str(exc):
                raise argparse.ArgumentTypeError(_error_text(exc)) from None
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be an integer{bound}, got {text!r}")
        return value

    return parse


def _need_n(args) -> int:
    if args.n is None:
        raise UsageError("--n is required for this command")
    return args.n


def _element_out(g: bc.QuotientElement) -> tuple[dict, str]:
    return g.to_json(), str(g)


def _orbit_text(table) -> str:
    return "\n".join(
        " -> ".join(f"{{{i},{j}}}" for (i, j) in orbit) for orbit in table.orbits
    )


def _cmd_nf(args) -> tuple[dict, str]:
    return _element_out(_element(args, args.word))


def _cmd_mul(args) -> tuple[dict, str]:
    return _element_out(_element(args, args.left) * _element(args, args.right))


def _cmd_inv(args) -> tuple[dict, str]:
    return _element_out(_element(args, args.element).inverse())


def _cmd_pow(args) -> tuple[dict, str]:
    return _element_out(_element(args, args.element) ** args.exponent)


def _cmd_order(args) -> tuple[dict, str]:
    k = bc.element_order(_element(args, args.element))
    order = None if k is bc.INFINITE else int(k)
    return {"order": order}, "infinite" if order is None else str(order)


def _cmd_delta(args) -> tuple[dict, str]:
    spec = bc.BlockSpec.from_text(_need_n(args), args.blocks)
    if args.emit_word:
        word = str(bc.torsion_element_word(spec))
        return {"word": word}, word
    return _element_out(bc.torsion_element(spec))


def _cmd_alpha(args) -> tuple[dict, str]:
    return _element_out(bc.block_cycle(args.r, args.k, _need_n(args)))


def _cmd_orbits(args) -> tuple[dict, str]:
    if (args.element is None) == (args.blocks is None):
        both = "" if args.blocks is None else ", not both"
        raise UsageError(f"orbits needs an element or --blocks{both}")
    if args.blocks is not None:
        table = bc.closed_form_orbits(bc.BlockSpec.from_text(_need_n(args), args.blocks))
    else:
        table = bc.enumerate_orbits(_element(args, args.element))
    return table.to_json(), _orbit_text(table)


def _cmd_conjugate_test(args) -> tuple[dict, str]:
    verdict, witness = bc.are_conjugate(
        _element(args, args.left), _element(args, args.right)
    )
    payload = {
        "conjugate": verdict,
        "witness": witness.to_json() if witness is not None else None,
    }
    text = {True: "conjugate", False: "not conjugate", None: "unknown"}[verdict]
    if witness is not None:
        text += f"\nwitness: {witness}"
    return payload, text


def _cmd_conjugator(args) -> tuple[dict, str]:
    g = _element(args, args.element)
    c = bc.conjugator_to_standard(g)
    spec = bc.BlockSpec(g.n, tuple(sorted(g.perm.cycle_type())))
    return {"conjugator": c.to_json(), "blocks": str(spec)}, f"{c}\nblocks: {spec}"


def _cmd_torsion_witness(args) -> tuple[dict, str]:
    w = bc.torsion_witness(bc.Permutation.from_text(_need_n(args), args.permutation))
    return {"witness": None if w is None else w.to_json()}, "no witness" if w is None else str(w)


def _cmd_count_classes(args) -> tuple[dict, str]:
    count = bc.count_conjugacy_classes(_need_n(args), args.k)
    return {"classes": count}, str(count)


def _cmd_holonomy(args) -> tuple[dict, str]:
    p = bc.Permutation.from_text(_need_n(args), args.permutation)
    M, det = bc.holonomy_matrix(p), bc.holonomy_det(p)
    return {"matrix": M, "det": det}, f"{bc.zlinalg.format_matrix(M)}\ndet: {det}"


def _cmd_bieberbach(args) -> tuple[dict, str]:
    H = bc.HolonomySubgroup.from_cycle_texts(_need_n(args), args.generators)
    chain = bc.StabilizerChain(H.n, H.generators)
    g = bc.torsion_certificate(chain)
    payload = {"order": chain.order(), "bieberbach": g is None}
    text = f"holonomy order {chain.order()}: {'Bieberbach' if g is None else 'has torsion'}"
    if g is not None:
        q = g.perm.order()
        payload["witness"] = {"order": q, "element": g.to_json()}
        text += f"\nwitness of order {q}: {g}"
    return payload, text


def _cmd_b3_catalog(args) -> tuple[dict, str]:
    report = bc.three_strand_catalog()
    lines = [
        f"{entry['name']}: holonomy order {entry['holonomy_order']}, "
        f"abelianization {entry['abelianization']}, "
        f"bieberbach {entry['bieberbach']}"
        for entry in report["subgroups"]
    ]
    return report, "\n".join(lines)


def _cmd_abelian_realization(args) -> tuple[dict, str]:
    spec = bc.BlockSpec.from_text(_need_n(args), args.blocks)
    gens = bc.abelian_realization(spec)
    payload = [
        {"element": g.to_json(), "order": int(bc.element_order(g))} for g in gens
    ]
    return {"generators": payload}, "\n".join(str(g) for g in gens)


def _parse_r(text: str) -> tuple[int, int, int, int, int, int]:
    """argparse type of ``--r``: six comma-separated integers."""
    try:
        parts = tuple(bc.parse_int(tok.strip()) for tok in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(f"expects six comma-separated integers, got {text!r}")
    return parts


def _cmd_frobenius_verify(args) -> tuple[dict, str]:
    offset = args.offset_json
    witness = bc.build_frobenius(
        bc.PairVector.from_json(bc.frobenius.N_STRANDS, _json(offset)) if offset else None
    )
    closure = bc.subgroup_closure(witness.x, witness.v)
    payload = witness.to_json()
    payload["subgroup_order"] = len(closure)
    text = "\n".join(
        f"{rec['relation']}: {'ok' if rec['holds'] else 'FAIL'}"
        for rec in witness.certificate
    ) + f"\nsubgroup order: {len(closure)}"
    return payload, text


def _cmd_frobenius_family(args) -> tuple[dict, str]:
    family = bc.solve_family()
    payload = {
        "rank": family.rank,
        "particular": family.particular.to_json(),
        "kernel": [v.to_json() for v in family.kernel],
    }
    if args.sample:
        rng = random.Random(args.seed)
        samples = []
        for _ in range(args.sample):
            r = tuple(rng.randint(-3, 3) for _ in range(6))
            N = bc.family_member(r)
            bc.build_frobenius(N)
            samples.append({"r": list(r), "offset": N.to_json()})
        payload["samples"] = samples
    return payload, f"rank {family.rank}, particular {family.particular}"


def _cmd_frobenius_conjugator(args) -> tuple[dict, str]:
    N = bc.family_member(args.r)
    theta = bc.conjugator_between(N)
    return {"offset": N.to_json(), "theta": theta.to_json()}, f"offset: {N}\ntheta: {theta}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidcryst",
        description="Exact arithmetic in the braid group quotients B_n/[P_n,P_n].",
    )
    parser.add_argument("--n", type=_bounded_int(2),
                        help="strand count (>= 2) for word/permutation input")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument(
        "--seed", type=_bounded_int(), default=0, help="seed for sampling commands (default 0)"
    )
    # One row per verb: the verb it is a step of (None at the top level), name,
    # handler (None for a verb with steps), help, and add_argument names with
    # their options.  Rows are built in order, the order ``-h`` lists them in.
    verbs = [
        (None, "nf", _cmd_nf, "normal form of a braid word", {"word": {}}),
        (None, "mul", _cmd_mul, "product of two elements", {"left": {}, "right": {}}),
        (None, "inv", _cmd_inv, "inverse of an element", {"element": {}}),
        (None, "pow", _cmd_pow, "integer power of an element",
         {"element": {}, "exponent": {"type": _bounded_int()}}),
        (None, "order", _cmd_order, "order of an element (or 'infinite')", {"element": {}}),
        (None, "delta", _cmd_delta, "block torsion element for a BlockSpec", {
            "--blocks": {"required": True, "help": 'e.g. "3,3" or "7"'},
            "--emit-word": {"action": "store_true", "help": "print the defining word instead"},
        }),
        (None, "alpha", _cmd_alpha, "positive block cycle element", {
            "--r": {"type": _bounded_int(), "default": 0, "help": "block offset (default 0)"},
            "--k": {"type": _bounded_int(), "required": True, "help": "block length"},
        }),
        (None, "orbits", _cmd_orbits, "pair-basis orbit table of an element", {
            "element": {"nargs": "?"},
            "--blocks": {"help": "use the closed-form table for this BlockSpec"},
        }),
        (None, "conjugate-test", _cmd_conjugate_test, "decide conjugacy, with witness",
         {"left": {}, "right": {}}),
        (None, "conjugator", _cmd_conjugator, "conjugator onto the standard block element",
         {"element": {}}),
        (None, "torsion-witness", _cmd_torsion_witness, "torsion witness for a permutation",
         {"permutation": {"help": 'cycle notation, e.g. "(1,3,2)"'}}),
        (None, "count-classes", _cmd_count_classes, "conjugacy classes of order-k elements",
         {"--k": {"type": _bounded_int(1), "required": True}}),
        (None, "holonomy", _cmd_holonomy, "pair-permutation matrix of a permutation",
         {"permutation": {}}),
        (None, "bieberbach", _cmd_bieberbach, "is the preimage of <generators> torsion free?",
         {"generators": {"nargs": "+", "help": "permutations in cycle notation"}}),
        (None, "b3-catalog", _cmd_b3_catalog, "three-strand subgroup catalog report", {}),
        (None, "frobenius", None, "order-21 Frobenius subgroup pipeline", {}),
        ("frobenius", "verify", _cmd_frobenius_verify, "certify the pair repaired by an offset",
         {"--offset-json": {"help": "offset vector JSON (default: the reference offset)"}}),
        ("frobenius", "family", _cmd_frobenius_family, "the rank-6 family of repair offsets",
         {"--sample": {"type": _bounded_int(0, SAMPLE_LIMIT), "default": 0,
                       "help": f"verify this many family samples (0..{SAMPLE_LIMIT})"}}),
        ("frobenius", "conjugator", _cmd_frobenius_conjugator,
         "pure conjugator onto a family member",
         {"--r": {"type": _parse_r, "required": True,
                  "help": "six comma-separated family parameters"}}),
        (None, "abelian-realization", _cmd_abelian_realization,
         "commuting generators per BlockSpec", {"--blocks": {"required": True}}),
    ]
    groups = {None: parser.add_subparsers(dest="command", required=True)}
    for group, name, func, summary, arguments in verbs:
        p = groups[group].add_parser(name, help=summary)
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
        if func is None:
            groups[name] = p.add_subparsers(dest="subcommand", required=True)
        else:
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text = args.func(args)
        print(json.dumps(payload) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, KeyError) as exc:
        # covers InfiniteOrder, NotASolution, NotFrobenius, bad JSON
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 1
    except MemoryError:
        # work sized by --n (n(n-1)/2 pairs and up) that does not fit in memory
        print("error: out of memory; try a smaller --n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
