"""Command-line front end.

Elements are entered either as braid words ("2 -1 5 -4") or as element JSON
({"n": ..., "perm": [...], "vec": {"i,j": c, ...}}); arguments starting with
"{" are treated as JSON, and --element-json forces that reading.  Output is
human-readable text by default and stable JSON with --json.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .braidword import BraidWord, PairVector
from .conjugacy import (
    are_conjugate,
    conjugator_to_standard,
    count_conjugacy_classes,
    standard_form,
)
from .orbits import closed_form_orbits, enumerate_orbits
from .permutation import Permutation
from .quotient import INFINITE, QuotientElement, element_order, normalize
from .subgroups import (
    HolonomySubgroup,
    holonomy_det,
    holonomy_matrix,
    is_bieberbach,
    three_strand_catalog,
)
from .torsion import (
    BlockSpec,
    abelian_realization,
    block_cycle,
    torsion_element,
    torsion_element_word,
    torsion_witness,
)
from . import frobenius as frob
from .zlinalg import format_matrix


class UsageError(ValueError):
    pass


def _element(args, text: str) -> QuotientElement:
    text = text.strip()
    if args.element_json or text.startswith("{"):
        g = QuotientElement.from_json(json.loads(text))
        if args.n is not None and args.n != g.n:
            raise ValueError(f"--n {args.n} conflicts with element n={g.n}")
        return g
    if args.n is None:
        raise UsageError("--n is required for word input")
    return normalize(BraidWord.from_text(args.n, text))


def _strand_count(text: str) -> int:
    """argparse type of ``--n``: an integer of at least 2."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return n


def _need_n(args) -> int:
    if args.n is None:
        raise UsageError("--n is required for this command")
    return args.n


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _element_out(args, g: QuotientElement) -> None:
    _emit(args, g.to_json(), str(g))


def _orbit_payload(table) -> list:
    return table.to_json()


def _orbit_text(table) -> str:
    return "\n".join(
        " -> ".join(f"{{{i},{j}}}" for (i, j) in orbit) for orbit in table.orbits
    )


def _cmd_nf(args) -> None:
    _element_out(args, _element(args, args.word))


def _cmd_mul(args) -> None:
    _element_out(args, _element(args, args.left) * _element(args, args.right))


def _cmd_inv(args) -> None:
    _element_out(args, _element(args, args.element).inverse())


def _cmd_pow(args) -> None:
    _element_out(args, _element(args, args.element) ** args.exponent)


def _cmd_order(args) -> None:
    k = element_order(_element(args, args.element))
    value = "infinite" if k is INFINITE else int(k)
    _emit(args, {"order": None if k is INFINITE else int(k)}, str(value))


def _cmd_delta(args) -> None:
    spec = BlockSpec.from_text(_need_n(args), args.blocks)
    if args.emit_word:
        word = torsion_element_word(spec)
        _emit(args, {"word": str(word)}, str(word))
    else:
        _element_out(args, torsion_element(spec))


def _cmd_alpha(args) -> None:
    _element_out(args, block_cycle(args.r, args.k, _need_n(args)))


def _cmd_orbits(args) -> None:
    if args.blocks is not None:
        table = closed_form_orbits(BlockSpec.from_text(_need_n(args), args.blocks))
    elif args.element is not None:
        table = enumerate_orbits(_element(args, args.element))
    else:
        raise UsageError("orbits needs an element or --blocks")
    _emit(args, _orbit_payload(table), _orbit_text(table))


def _cmd_conjugate_test(args) -> None:
    verdict, witness = are_conjugate(
        _element(args, args.left), _element(args, args.right)
    )
    payload = {
        "conjugate": verdict,
        "witness": witness.to_json() if witness is not None else None,
    }
    text = {True: "conjugate", False: "not conjugate", None: "unknown"}[verdict]
    if witness is not None:
        text += f"\nwitness: {witness}"
    _emit(args, payload, text)


def _cmd_conjugator(args) -> None:
    g = _element(args, args.element)
    c = conjugator_to_standard(g)
    _, spec = standard_form(g)
    _emit(
        args,
        {"conjugator": c.to_json(), "blocks": str(spec)},
        f"{c}\nblocks: {spec}",
    )


def _cmd_torsion_witness(args) -> None:
    p = Permutation.from_text(_need_n(args), args.permutation)
    w = torsion_witness(p)
    _emit(
        args,
        {"witness": w.to_json() if w is not None else None},
        "no witness" if w is None else str(w),
    )


def _cmd_count_classes(args) -> None:
    count = count_conjugacy_classes(_need_n(args), args.k)
    _emit(args, {"classes": count}, str(count))


def _cmd_holonomy(args) -> None:
    p = Permutation.from_text(_need_n(args), args.permutation)
    M = holonomy_matrix(p)
    _emit(
        args,
        {"matrix": M, "det": holonomy_det(p)},
        f"{format_matrix(M)}\ndet: {holonomy_det(p)}",
    )


def _cmd_bieberbach(args) -> None:
    H = HolonomySubgroup.from_cycle_texts(_need_n(args), args.generators)
    verdict = is_bieberbach(H)
    _emit(
        args,
        {"order": H.order, "bieberbach": verdict},
        f"holonomy order {H.order}: {'Bieberbach' if verdict else 'has torsion'}",
    )


def _cmd_b3_catalog(args) -> None:
    report = three_strand_catalog()
    lines = [
        f"{entry['name']}: holonomy order {entry['holonomy_order']}, "
        f"abelianization {entry['abelianization']}, "
        f"bieberbach {entry['bieberbach']}"
        for entry in report["subgroups"]
    ]
    _emit(args, report, "\n".join(lines))


def _cmd_abelian_realization(args) -> None:
    spec = BlockSpec.from_text(_need_n(args), args.blocks)
    gens = abelian_realization(spec)
    payload = [
        {"element": g.to_json(), "order": int(element_order(g))} for g in gens
    ]
    _emit(args, {"generators": payload}, "\n".join(str(g) for g in gens))


def _parse_r(text: str) -> tuple[int, int, int, int, int, int]:
    parts = tuple(int(tok) for tok in text.split(","))
    if len(parts) != 6:
        raise UsageError("--r expects six comma-separated integers")
    return parts


def _cmd_frobenius(args) -> None:
    if args.subcommand == "verify":
        N = (
            PairVector.from_json(frob.N_STRANDS, json.loads(args.offset_json))
            if args.offset_json
            else None
        )
        witness = frob.build_frobenius(N)
        closure = frob.subgroup_closure(witness.x, witness.v)
        payload = witness.to_json()
        payload["subgroup_order"] = len(closure)
        text = "\n".join(
            f"{rec['relation']}: {'ok' if rec['holds'] else 'FAIL'}"
            for rec in witness.certificate
        ) + f"\nsubgroup order: {len(closure)}"
        _emit(args, payload, text)
    elif args.subcommand == "family":
        family = frob.solve_family()
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
                N = frob.family_member(r)
                frob.build_frobenius(N)
                samples.append({"r": list(r), "offset": N.to_json()})
            payload["samples"] = samples
        text = f"rank {family.rank}, particular {family.particular}"
        _emit(args, payload, text)
    else:  # conjugator
        N = frob.family_member(_parse_r(args.r))
        theta = frob.conjugator_between(N)
        payload = {"offset": N.to_json(), "theta": theta.to_json()}
        _emit(args, payload, f"offset: {N}\ntheta: {theta}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcryst",
        description="Exact arithmetic in the braid group quotients B_n/[P_n,P_n].",
    )
    parser.add_argument("--n", type=_strand_count,
                        help="strand count (>= 2) for word/permutation input")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for sampling commands (default 0)"
    )
    parser.add_argument(
        "--element-json",
        action="store_true",
        help="force element arguments to be parsed as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a braid word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("mul", help="product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("inv", help="inverse of an element")
    p.add_argument("element")
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("pow", help="integer power of an element")
    p.add_argument("element")
    p.add_argument("exponent", type=int)
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("order", help="order of an element (or 'infinite')")
    p.add_argument("element")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("delta", help="block torsion element for a BlockSpec")
    p.add_argument("--blocks", required=True, help='e.g. "3,3" or "7"')
    p.add_argument(
        "--emit-word", action="store_true", help="print the defining word instead"
    )
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("alpha", help="positive block cycle element")
    p.add_argument("--r", type=int, default=0, help="block offset (default 0)")
    p.add_argument("--k", type=int, required=True, help="block length")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("orbits", help="pair-basis orbit table of an element")
    p.add_argument("element", nargs="?")
    p.add_argument("--blocks", help="use the closed-form table for this BlockSpec")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("conjugate-test", help="decide conjugacy, with witness")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_conjugate_test)

    p = sub.add_parser("conjugator", help="conjugator onto the standard block element")
    p.add_argument("element")
    p.set_defaults(func=_cmd_conjugator)

    p = sub.add_parser("torsion-witness", help="torsion witness for a permutation")
    p.add_argument("permutation", help='cycle notation, e.g. "(1,3,2)"')
    p.set_defaults(func=_cmd_torsion_witness)

    p = sub.add_parser("count-classes", help="conjugacy classes of order-k elements")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_count_classes)

    p = sub.add_parser("holonomy", help="pair-permutation matrix of a permutation")
    p.add_argument("permutation")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("bieberbach", help="is the preimage of <generators> torsion free?")
    p.add_argument("generators", nargs="+", help="permutations in cycle notation")
    p.set_defaults(func=_cmd_bieberbach)

    p = sub.add_parser("b3-catalog", help="three-strand subgroup catalog report")
    p.set_defaults(func=_cmd_b3_catalog)

    p = sub.add_parser("frobenius", help="order-21 Frobenius subgroup pipeline")
    p.add_argument("subcommand", choices=["verify", "family", "conjugator"])
    p.add_argument("--offset-json", help="offset vector JSON for verify")
    p.add_argument("--r", help="six comma-separated family parameters for conjugator")
    p.add_argument("--sample", type=int, default=0, help="verify this many family samples")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("abelian-realization", help="commuting generators per BlockSpec")
    p.add_argument("--blocks", required=True)
    p.set_defaults(func=_cmd_abelian_realization)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "frobenius" and args.subcommand == "conjugator" and not args.r:
        parser.error("frobenius conjugator requires --r")
    try:
        args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, KeyError) as exc:
        # covers NotPure, InfiniteOrder, NotASolution, NotFrobenius, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
