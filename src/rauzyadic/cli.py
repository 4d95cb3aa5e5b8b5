"""Command-line front end.

Thin adapters over the library: every subcommand parses flags, builds an
oracle or directive, calls one library entry point and emits files or
text.  Exit codes: 0 success/valid, 1 invalid, 2 undetermined, 3 error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cli_impl
from .errors import (NotInLanguage, OutOfMemory, RauzyadicError, UnreadableInput,
                     UnwritableOutput)
from .extraction import extract_directive
from .lengths import compute_length_state
from .morphism import decompose, generator_word_string
from .rauzy import build_graph, circuits_from, reduce_and_classify, reduced_graph, to_dot
from .sadic import (DirectiveWord, generate_one_sided, language_horizon,
                    parse_directive, parse_morphism_spec)
from .validator import cross_validate, validate_directive
from .words import FactorOracle, NAMED_SOURCES, complexity_profile, named_oracle


def _add_oracle_args(p):
    p.add_argument("--source", choices=sorted(NAMED_SOURCES),
                   help="built-in substitution fixed point")
    p.add_argument("--prefix-file", type=Path, help="file with an explicit digit prefix")
    p.add_argument("--directive-file", type=Path, help="directive word generating the language")
    p.add_argument("--horizon", type=int, default=30)


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc


def _oracle(args) -> FactorOracle:
    given = [x for x in (args.source, args.prefix_file, args.directive_file) if x]
    if len(given) != 1:
        raise RauzyadicError("exactly one of --source, --prefix-file, --directive-file is required")
    if args.source:
        return named_oracle(args.source, args.horizon)
    if args.prefix_file:
        text = _read(args.prefix_file).strip()
        return FactorOracle.from_prefix(text, args.horizon, source=str(args.prefix_file))
    dw = parse_directive(_read(args.directive_file))
    return language_horizon(dw, args.horizon)


def _directive(args) -> DirectiveWord:
    return parse_directive(_read(args.directive))


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rauzyadic", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="directive word -> word prefix")
    p.add_argument("directive")
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("complexity", help="oracle -> n,p,s CSV with identity checks")
    _add_oracle_args(p)
    p.add_argument("--upto", type=int, default=20)
    p.add_argument("--csv", type=Path)

    p = sub.add_parser("graph", help="oracle, order -> DOT of the graph and its reduction")
    _add_oracle_args(p)
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--dot", type=Path)

    p = sub.add_parser("circuits", help="oracle, order, vertex -> allowed circuits")
    _add_oracle_args(p)
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("extract", help="oracle -> directive extraction report")
    _add_oracle_args(p)
    p.add_argument("--upto", type=int, default=16)

    p = sub.add_parser("validate", help="directive file -> validity verdict")
    p.add_argument("directive")
    p.add_argument("--strict2", action="store_true",
                   help="demand exact first difference 2 (complexity 2n / 2n+1)")

    p = sub.add_parser("decompose", help="morphism rules -> generator word")
    p.add_argument("rules", help='e.g. "0->0;1->110;2->10"')

    p = sub.add_parser("lengths", help="finite directive prefix -> length state")
    p.add_argument("directive")

    p = sub.add_parser("crosscheck", help="directive -> generate, extract and compare")
    p.add_argument("directive")
    p.add_argument("--window", type=int, default=16)
    return ap


# built once: parse_args leaves the parser unchanged
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _run(args)
    except RauzyadicError as exc:
        return _refuse(exc)
    except MemoryError:
        # exit 1 would read as "invalid"; running out of memory is a refusal
        return _refuse(OutOfMemory(f"{args.cmd} ran out of memory"))


def _refuse(exc: RauzyadicError) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


def _run(args) -> int:
    if args.cmd == "generate":
        dw = _directive(args)
        res = generate_one_sided(dw, args.length)
        if args.out:
            _write(args.out, res.prefix + "\n")
        else:
            print(res.prefix)
        print(f"# certified factor horizon {res.certified_horizon}, "
              f"{res.levels_used} levels", file=sys.stderr)
        return 0

    if args.cmd == "complexity":
        oracle = _oracle(args)
        upto = min(args.upto, oracle.horizon - 2)
        if upto < 0:
            raise RauzyadicError(f"complexity needs --upto >= 0 and horizon >= 2, "
                                 f"got --upto {args.upto} at horizon {oracle.horizon}")
        prof = complexity_profile(oracle, upto)
        text = prof.to_csv()
        if args.csv:
            _write(args.csv, text)
        else:
            sys.stdout.write(text)
        return 0

    if args.cmd == "graph":
        oracle = _oracle(args)
        reduced, shape = reduce_and_classify(oracle, args.order)
        print(f"order {args.order}: {len(oracle.factors(args.order))} vertices, "
              f"{len(oracle.factors(args.order + 1))} edges, type {shape.type_id}"
              + (f" (next bispecial in {shape.gap})" if shape.gap else ""))
        if args.dot:
            # only the drawing needs the whole order-n graph
            _write(args.dot, to_dot(build_graph(oracle, args.order), name="G"))
            reduced_path = args.dot.with_suffix(".reduced.dot")
            _write(reduced_path, to_dot(reduced, name="g"))
            print(f"wrote {args.dot} and {reduced_path}")
        return 0

    if args.cmd == "circuits":
        oracle = _oracle(args)
        if args.vertex not in oracle.factors(args.order):
            raise NotInLanguage(f"--vertex {args.vertex!r} is not a factor of length "
                                f"--order {args.order}")
        # a vertex that is not right special has no circuits, even in a
        # periodic language, which has no reduced graph
        if oracle.is_right_special(args.vertex):
            g = reduced_graph(oracle, args.order)
            for c in circuits_from(g, args.vertex, oracle):
                print(f"{c.right_label}  length={len(c.right_label)} allowed={c.allowed}")
        return 0

    if args.cmd == "extract":
        oracle = _oracle(args)
        if args.upto < 0:
            raise RauzyadicError(f"extract needs --upto >= 0, "
                                 f"got --upto {args.upto} at horizon {oracle.horizon}")
        rep = extract_directive(oracle, args.upto)
        sys.stdout.write(rep.serialize())
        return 0

    if args.cmd == "validate":
        dw = _directive(args)
        verdict = validate_directive(dw, strict2=args.strict2)
        sys.stdout.write(verdict.serialize())
        return verdict.exit_code

    if args.cmd == "decompose":
        m = parse_morphism_spec(args.rules)
        word = decompose(m)
        print(generator_word_string(word))
        return 0

    if args.cmd == "lengths":
        dw = _directive(args)
        steps = cli_impl.route_prefix(dw)
        state = compute_length_state(steps)
        print(f"u1={state.u1} u2={state.u2} v1={state.v1} v2={state.v2} "
              f"K={state.K} h={state.h} p1={state.p1} p2={state.p2}")
        return 0

    if args.cmd == "crosscheck":
        if args.window < 0:
            raise RauzyadicError(f"crosscheck needs --window >= 0, got --window {args.window}")
        dw = _directive(args)
        rep = cross_validate(dw, horizon=args.window)
        sys.stdout.write(rep.serialize())
        return 0

    raise RauzyadicError(f"unknown command {args.cmd}")


if __name__ == "__main__":
    raise SystemExit(main())
