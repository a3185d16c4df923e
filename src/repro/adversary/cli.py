"""CLI for the feedback fuzzer: ``python -m repro.adversary fuzz``.

``fuzz --seeds A:B`` runs a seeded mutation corpus and prints a JSON
report.  It exits non-zero if any run violates the
full-delivery-or-clean-abort property and, with ``--repro-dir``, writes
one JSON artifact per failing run carrying the exact (scheme, seed,
mutation_rate) triple needed to replay it.  One adversary model's
transfer is a chaos scenario: ``python -m repro.chaos run --scenario
adv-<model>``, listed by ``python -m repro.chaos list``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.adversary.fuzz import FUZZ_SCHEMES, fuzz_corpus


def _parse_seeds(spec: str) -> list[int]:
    """``A:B`` (half-open range) or a comma list of ints."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(s) for s in spec.split(",") if s]


def _cmd_fuzz(args) -> int:
    seeds = _parse_seeds(args.seeds)
    schemes = tuple(args.schemes.split(",")) if args.schemes else FUZZ_SCHEMES
    report = fuzz_corpus(
        seeds,
        schemes=schemes,
        frames_target=args.frames_target,
        mutation_rate=args.mutation_rate,
        transfer_bytes=args.transfer_bytes,
        simsan=True,
    )
    doc = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
    if args.repro_dir and report.failures:
        os.makedirs(args.repro_dir, exist_ok=True)
        for fail in report.failures:
            path = os.path.join(
                args.repro_dir, f"fuzz-{fail.scheme}-seed{fail.seed}.json")
            with open(path, "w") as fh:
                json.dump(fail.to_dict(), fh, indent=2)
    print(json.dumps(doc, indent=2))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.adversary",
        description="the feedback fuzzer (adversary models run as "
                    "'python -m repro.chaos run --scenario adv-<model>')",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    fz = sub.add_parser("fuzz", help="seeded mutation corpus")
    fz.add_argument("--seeds", default="1:9",
                    help="A:B half-open range or comma list (default 1:9)")
    fz.add_argument("--schemes", default="",
                    help="comma list of fuzz schemes (default: all of "
                         f"{', '.join(FUZZ_SCHEMES)})")
    fz.add_argument("--frames-target", type=int, default=None,
                    help="stop after this many mutated frames")
    fz.add_argument("--mutation-rate", type=float, default=0.4)
    fz.add_argument("--transfer-bytes", type=int, default=600_000)
    fz.add_argument("--out", default="", help="write the report JSON here")
    fz.add_argument("--repro-dir", default="",
                    help="write per-failure repro artifacts here")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _cmd_fuzz(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
