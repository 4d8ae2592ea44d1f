"""Command-line front end for the census and the fixed constructions.

Exit codes are a contract for scripted use:
  0  success / everything verified
  1  verification mismatch (an expected value failed)
  2  invalid input or configuration
  3  search budget exceeded (partial results)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .maps import (
    DEFAULT_BUDGET,
    InvalidTripleError,
    _invariants_from,
    builtin_triple_names,
    is_orientable,
    named_triple,
    parse_triple,
    validate_admissible,
)
from .pgl29 import verify_construction
from .wreath import (
    BudgetExceeded,
    DEFAULT_WITNESS_LEN,
    classify,
    records_to_json,
    verify_theorem,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _int_at_least(lower: int):
    """argparse type for an integer option with a least value; a bad
    value exits 2 before any work starts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lower - 1
        if value < lower:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lower}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _type_str(p: int, q: int, r: int) -> str:
    return f"{{{p},{q}}}_{r}"


def cmd_classify(args) -> int:
    records = classify(
        args.d,
        args.n,
        max_witness_len=args.max_witness_len,
        budget=args.budget,
    )
    if args.format == "json":
        _emit(records_to_json(records), args.output)
    else:
        lines = [f"# nonorientable regular embeddings of H({args.d},{args.n}): {len(records)}"]
        for rec in records:
            inv = rec.invariants
            sigma = "; ".join(" ".join(str(int(x)) for x in s.images) for s in rec.sigma)
            lines.append(
                f"type {inv.type_string}  genus {inv.genus}  |G| {inv.group_order}  "
                f"sigma [{sigma}]  witness {list(rec.witness) if rec.witness else None}"
                + (f"  # {rec.census_note}" if rec.census_note else "")
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _load_triple(spec: str):
    if spec in builtin_triple_names():
        return named_triple(spec)
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"no builtin triple or file named {spec!r}")
    return parse_triple(path.read_text(encoding="utf-8"))


def cmd_invariants(args) -> int:
    triple = _load_triple(args.triple)
    report = validate_admissible(triple, cap=args.budget)
    inv = None
    if report.ok:
        inv = _invariants_from(triple, report.group_order, is_orientable(triple, cap=args.budget))
    if args.format == "json":
        payload = {
            "validation": {
                "ok": report.ok,
                "group_order": report.group_order,
                "checks": [[name, ok] for name, ok in report.checks],
            },
            "invariants": None
            if inv is None
            else {
                "type": {"p": inv.covalency, "q": inv.valency, "r": inv.petrie},
                "V": inv.vertices,
                "E": inv.edges,
                "F": inv.faces,
                "chi": inv.chi,
                "orientable": inv.orientable,
                "genus": inv.genus,
                "group_order": inv.group_order,
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"validation: {'ok' if report.ok else 'FAILED'} (group order {report.group_order})"]
        lines += [f"  [{'PASS' if ok else 'FAIL'}] {name}" for name, ok in report.checks]
        if inv is not None:
            lines.append(
                f"type {inv.type_string}  V {inv.vertices}  E {inv.edges}  F {inv.faces}  "
                f"chi {inv.chi}  {'orientable' if inv.orientable else 'nonorientable'}  "
                f"genus {inv.genus}  |G| {inv.group_order}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_pgl29(args) -> int:
    report = verify_construction(classify_records=classify(2, 6, budget=args.budget))
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "checks": [[name, ok, detail] for name, ok, detail in report.checks],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else "")
                 for name, ok, detail in report.checks]
        lines.append("all checks passed" if report.ok else f"FAILED: {report.failed()}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_verify_theorem(args) -> int:
    report = verify_theorem(
        args.max_d,
        args.max_n,
        budget=args.budget,
        max_witness_len=args.max_witness_len,
    )
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "complete": report.complete,
            "cells": [
                {
                    "d": c.d,
                    "n": c.n,
                    "expected": c.expected,
                    "found": c.found,
                    "passed": c.passed,
                    "skipped": c.skipped,
                    "types": [r.invariants.type_string for r in c.records],
                }
                for c in report.cells
            ],
            "fixed_22": {
                "ok": report.fixed_22.ok,
                "checks": [[name, ok] for name, ok in report.fixed_22.checks],
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = ["  d  n  expected  found  status  types"]
        for c in report.cells:
            status = "SKIP" if c.skipped else ("pass" if c.passed else "FAIL")
            types = ", ".join(r.invariants.type_string for r in c.records)
            lines.append(f"  {c.d}  {c.n}  {c.expected:8d}  {c.found:5d}  {status:6s}  {types}")
        lines.append(f"fixed (2,2) construction: {'pass' if report.fixed_22.ok else 'FAIL'}")
        lines.append(
            "all cells verified" if report.ok
            else ("INCOMPLETE (budget)" if not report.complete else "MISMATCH")
        )
        _emit("\n".join(lines) + "\n", args.output)
    if not report.complete:
        return EXIT_BUDGET
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmaps",
        description="Census and verification of nonorientable regular Hamming-graph embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to a file instead of standard output")
        # a string default (the environment's) goes through the type check too
        p.add_argument("--budget", type=_positive_int,
                       default=os.environ.get("REGMAP_BUDGET") or DEFAULT_BUDGET,
                       help="cap on group order and candidate count (env REGMAP_BUDGET)")

    p = sub.add_parser("classify", help="enumerate one census cell")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-witness-len", type=_positive_int, default=DEFAULT_WITNESS_LEN)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invariants", help="validate a triple file and compute its invariants")
    p.add_argument("--triple", required=True,
                   help=f"triple file path or builtin name {builtin_triple_names()}")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("pgl29", help="verify the projective-matrix construction")
    p.add_argument("--verify", action="store_true", required=True)
    common(p)
    p.set_defaults(func=cmd_pgl29)

    p = sub.add_parser("verify-theorem", help="compare census counts against the classification")
    p.add_argument("--max-d", type=_positive_int, default=3)
    p.add_argument("--max-n", type=_int_at_least(3), default=7)
    p.add_argument("--max-witness-len", type=_positive_int, default=DEFAULT_WITNESS_LEN)
    common(p)
    p.set_defaults(func=cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, InvalidTripleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
