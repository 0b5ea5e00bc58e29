"""Command-line interface.

Exit codes: 0 for success (and corpus all-PASS / machines equivalent),
1 for analysis or parse errors, corpus failures, an oracle that
disagrees with the analysis and non-equivalence, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .autfile import parse_raw, serialize
from .automaton import Dfao, _check_same_radix, validate
from .corpus import evaluate_all
from .dot import to_dot
from .errors import AutSyntaxError, DfaoError, InstanceTooLarge
from .minimize import intrinsic_automaton, minimize
from .opacity import analyze_sequence, shortest_inhomogeneous_path
from .oracle import brute_force_opacity, oracle_bound

# Largest .aut file read, in bytes.  `analyze` on a random binary file just
# under it peaks at about 22 resident bytes per byte of text, so it still
# answers under a 600 MB address-space cap.
AUT_SIZE_LIMIT = 16 * 2**20
# Most terms `generate` prints.  At this count it peaks at about 169 MB
# resident on one-character outputs, under a 600 MB address-space cap.
TERM_LIMIT = 10**7
# Most characters of terms and separators `generate` prints, counted as
# the count times the longest output token plus the separator: all that
# TERM_LIMIT admits on one-character outputs with the default separator.
OUTPUT_LIMIT = 2 * TERM_LIMIT


def _load(path: str) -> Dfao:
    size = Path(path).stat().st_size
    if size > AUT_SIZE_LIMIT:
        raise InstanceTooLarge(
            f"{path}: {size} bytes of machine description, over the limit of {AUT_SIZE_LIMIT} bytes"
        )
    # A device or a pipe reports size 0, and a file can grow after `stat`,
    # so the read stops one byte over the limit.  It asks for the stated
    # size first, as a read allocates all that it asks for.
    with open(path, "rb") as handle:
        text = handle.read(size + 1)  # bytes until decoded
        if len(text) > size:
            text += handle.read(AUT_SIZE_LIMIT - size)
    if len(text) > AUT_SIZE_LIMIT:
        raise InstanceTooLarge(
            f"{path}: machine description over the limit of {AUT_SIZE_LIMIT} bytes"
        )
    try:
        # A byte-order mark is not part of the description; strip it after
        # decoding, so a decoding error counts bytes from the file's start.
        text = text.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise AutSyntaxError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    dfao, pruned = validate(parse_raw(text))
    if pruned:
        # The first ten names only: a large file can prune thousands.
        more = f" and {len(pruned) - 10} more" if len(pruned) > 10 else ""
        print(
            f"warning: pruned {len(pruned)} unreachable "
            f"{'state' if len(pruned) == 1 else 'states'}: {', '.join(pruned[:10])}{more}",
            file=sys.stderr,
        )
    return dfao


def _format_word(word: tuple[int, ...], k: int) -> str:
    sep = "" if k <= 10 else ","
    return sep.join(str(d) for d in word)


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _cmd_analyze(args) -> int:
    dfao = _load(args.file)
    report = analyze_sequence(dfao)
    names = report.intrinsic.states
    inhomogeneous = [names[s] for s, v in enumerate(report.state_homogeneity) if not v.homogeneous]
    w = report.witness
    if w is not None:
        word, clash = _format_word(w.word, report.k), names[w.collide_state]
    # The oracle's outcome: None when not asked for, the refusal's message,
    # or the length bound and the value found within it.
    oracle = None
    if args.oracle:
        bound = oracle_bound(report.intrinsic.automaton)
        try:
            oracle = bound, brute_force_opacity(report.intrinsic.automaton, bound)
        except InstanceTooLarge as exc:
            oracle = str(exc)
    agrees = not isinstance(oracle, tuple) or oracle[1] == report.opacity
    code = 0 if agrees else 1

    if args.json:
        obj = {
            "name": args.file,
            "k": report.k,
            "states": len(dfao.states),
            "strictly_accessible": report.strictly_accessible,
            "classification": report.classification.value,
            "opacity": _fraction_json(report.opacity.as_fraction()),
            "complexity": _fraction_json(report.complexity),
            **({} if w is None else {"witness": {
                "word": word, "state": clash, "pos_a": w.position_a, "pos_b": w.position_b,
            }}),
            "inhomogeneous_states": inhomogeneous,
            "minimized_states": report.states_count,
            **(
                {"oracle": {"L": oracle[0], "value": _fraction_json(oracle[1].as_fraction())}}
                if isinstance(oracle, tuple) else {}
            ),
        }
        print(json.dumps(obj))
        return code

    rows = [
        ("name", args.file),
        ("k", str(report.k)),
        ("input states", str(len(dfao.states))),
        ("intrinsic states", str(report.states_count)),
        ("strictly accessible", "yes" if report.strictly_accessible else "no"),
        ("classification", report.classification.value),
        ("opacity", str(report.opacity)),
        ("opacity complexity", str(report.complexity)),
        (
            "shortest witness",
            "none (every path is homogeneous)" if w is None
            else f"{word} (clashes at state {clash}, edges {w.position_a} and {w.position_b})",
        ),
        ("inhomogeneous states", ", ".join(inhomogeneous) or "none"),
    ]
    if isinstance(oracle, tuple):
        bound, value = oracle
        verdict = "agrees" if agrees else "DISAGREES"
        rows.append(("oracle", f"{value} at length bound {bound} ({verdict})"))
    elif oracle is not None:
        rows.append(("oracle", f"skipped: {oracle}"))
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")
    return code


def _cmd_minimize(args) -> int:
    fm = intrinsic_automaton(_load(args.file))
    text = serialize(fm.target)
    names = fm.target.states
    mapping = "\n".join(f"{s} -> {names[t]}" for s, t in zip(fm.source.states, fm.assignment))
    if args.output is None:
        sys.stdout.write(text)
        print(mapping, file=sys.stderr)
    else:
        # The mapping first: a name that stdout cannot encode leaves no file.
        print(mapping)
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def _term_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {count}")
    return count


def _cmd_generate(args) -> int:
    if args.count > TERM_LIMIT:
        raise InstanceTooLarge(f"{args.count} terms requested, over the limit of {TERM_LIMIT} terms")
    dfao = _load(args.file)
    width = max(map(len, dfao.output)) + len(args.sep)
    if args.count * width > OUTPUT_LIMIT:
        raise InstanceTooLarge(
            f"{args.count} terms of up to {width} characters with the separator, "
            f"over the limit of {OUTPUT_LIMIT} characters"
        )
    print(args.sep.join(dfao.generate(args.count)))
    return 0


def _cmd_dot(args) -> int:
    dfao = _load(args.file)
    witness = None
    if args.witness:
        witness = shortest_inhomogeneous_path(dfao.automaton)
        if witness is None:
            print("note: no clashing path to highlight", file=sys.stderr)
    sys.stdout.write(to_dot(dfao, witness))
    return 0


def _cmd_corpus(args) -> int:
    results = evaluate_all()
    if args.json:
        print(json.dumps([
            {
                "name": r.entry.name,
                "k": r.report.k,
                "states": r.report.states_count,
                "classification": r.report.classification.value,
                "opacity": _fraction_json(r.report.opacity.as_fraction()),
                "complexity": _fraction_json(r.report.complexity),
                "witness_length": r.report.opacity.witness_length,
                "oracle_length": r.oracle_length,
                "oracle_value": _fraction_json(r.oracle_value.as_fraction()),
                "sequence_ok": r.sequence_ok,
                "pass": r.passed,
            }
            for r in results
        ]))
    else:
        table = [
            ("entry", "k", "states", "classification", "opacity", "complexity",
             "witness", "oracle", "sequence", "result"),
            *(
                (
                    r.entry.name,
                    str(r.report.k),
                    str(r.report.states_count),
                    r.report.classification.value,
                    str(r.report.opacity),
                    str(r.report.complexity),
                    str(r.report.opacity.witness_length or "-"),
                    "agree" if r.oracle_ok else "MISMATCH",
                    "n/a" if r.sequence_ok is None else ("ok" if r.sequence_ok else "FAIL"),
                    "PASS" if r.passed else "FAIL",
                )
                for r in results
            ),
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        for row in table:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if all(r.passed for r in results) else 1


def _cmd_equiv(args) -> int:
    d1 = _load(args.file1)
    d2 = _load(args.file2)
    _check_same_radix(d1, d2)
    # Not `are_equivalent`: its product search keeps up to n1 * n2 pairs.
    if minimize(d1).target == minimize(d2).target:
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfao",
        description="Analyze digit machines: opacity, minimization, sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="opacity report for a machine file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="confirm the value by brute-force enumeration",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("minimize", help="write the intrinsic machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the .aut here instead of stdout")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("generate", help="print the first terms of the sequence")
    p.add_argument("file")
    p.add_argument("-n", "--count", type=_term_count, required=True, help="number of terms")
    p.add_argument("--sep", default=" ", help="term separator (default: space)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("dot", help="Graphviz rendering of a machine file")
    p.add_argument("file")
    p.add_argument(
        "--witness",
        action="store_true",
        help="highlight the shortest clashing path, if any",
    )
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("corpus", help="check every bundled machine, print a table")
    p.add_argument("--json", action="store_true", help="machine-readable rows")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("equiv", help="do two machine files generate the same words")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_equiv)

    return parser


# Built once per process; argparse looks up sys.stdout and sys.stderr only
# when it prints, so redirected output still reaches the caller.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    # A name that stdout's encoding cannot write is an error like any other.
    except (DfaoError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
