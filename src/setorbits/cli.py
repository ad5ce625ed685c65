"""Command-line interface.

Subcommands:
  orbits          s(G) / per-size profile / orbit dump for one group
  prune           per-degree elimination verdicts for a target r
  subgroups       conjugacy classes of subgroups of S_n
  catalog-verify  rebuild and check every shipped catalog entry
  classify        full classification run for one r, with optional golden diff

Exit codes: 0 success; 1 a verification or diff failure, a data gap, a
request beyond a fixed limit (``GroupTooLargeError``, ``SubgroupCapError``),
a malformed catalog, or a golden file that cannot be read or parsed; 2 usage
error.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import catalog as cat
from . import pipeline
from .orbitcount import count_set_orbits, dump_orbits, orbit_profile
from .perm import GroupTooLargeError, PermGroup, build_group, parse_permutation
from .prune import degree_range, prune_degree
from .subgroups import SubgroupCapError, all_subgroups

USAGE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")


def positive_int(text: str) -> int:
    """An integer argument of at least 1; anything else is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_group(spec: str) -> PermGroup:
    """A group from a catalog id or inline ``gens:"(...);(...)"`` syntax."""
    if spec.startswith("gens:"):
        text = spec[len("gens:"):].strip()
        words = [g for g in text.split(";") if g]
        if not words:
            raise ValueError("empty generator list after gens:")
        # the largest number written; parse_permutation judges each point
        degree = max([1, *map(int, re.findall(r"\d+", text))])
        return build_group([parse_permutation(g, degree) for g in words],
                           degree=degree)
    try:
        entry = cat.by_id(spec)
    except KeyError:
        raise ValueError(f"unknown catalog id {spec!r}") from None
    return entry.group()


def cmd_orbits(args) -> int:
    try:
        G = _resolve_group(args.group)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # computed first, so a dump that fails prints nothing
    dump = dump_orbits(G) if args.dump else []
    if args.per_size:
        prof = orbit_profile(G)
        print(" ".join(map(str, prof.by_size)) + f" | s={prof.total}")
    else:
        print(f"s={count_set_orbits(G)}")
    for line in dump:
        print(line)
    return 0


def cmd_prune(args) -> int:
    degrees = degree_range(args.r)
    if args.max_degree is not None:
        if args.max_degree < degrees.start:
            print(f"error: argument --max-degree: must be at least "
                  f"{degrees.start} for r = {args.r}, got {args.max_degree}",
                  file=sys.stderr)
            return USAGE_ERROR
        # past the window step 1 eliminates every degree, and it says so
        degrees = range(degrees.start, args.max_degree + 1)
    for n in degrees:
        v = prune_degree(n, args.r)
        print(f"{n}\t{v.stage}\t{v.witness_text()}")
    return 0


def cmd_subgroups(args) -> int:
    for c in all_subgroups(args.degree):
        if args.transitive and not c.transitive:
            continue
        s = count_set_orbits(c.representative)
        gens = ";".join(str(g) for g in c.representative.generators) or "()"
        flag = "yes" if c.transitive else "no"
        print(f"{c.index}\t{c.order}\t{c.class_size}\t{flag}\t{s}\t{gens}")
    return 0


def cmd_catalog_verify(args) -> int:
    entries = cat.load_default()
    bad = 0
    for e in entries:
        failures = cat.verify_entry(e)
        bad += bool(failures)
        for f in failures:
            print(f"FAIL {e.id}: {f}")
    problems = cat.check_manifest(entries)
    for p in problems:
        print(f"FAIL manifest: {p}")
    total = len(entries)
    print(f"{total - bad}/{total} entries verified, "
          f"manifest {'ok' if not problems else 'INCOMPLETE'}")
    return 0 if not bad and not problems else 1


def cmd_classify(args) -> int:
    golden = None
    if args.golden:  # read and checked before the run prints anything
        # utf-8-sig also reads a table an editor saved with a byte-order mark
        with open(args.golden, encoding="utf-8-sig") as fh:
            golden = pipeline.parse_golden(fh.read(), args.r)
    report = pipeline.classify(args.r)
    if args.format == "tsv":
        sys.stdout.write(report.to_tsv())
    else:
        print(f"classification for r={args.r}: {len(report.rows)} group(s)")
        for row in report.rows:
            print(f"  n={row.degree:2d}  {row.name:28s} order {row.order:<8d} "
                  f"s={row.s_value}  [{row.group_label}]")
        print("candidates per surviving degree (source: count, routes):")
        for d in report.degrees:
            if d.verdict.eliminated:
                continue
            head = f"  n={d.verdict.n:2d}  {d.source}"
            if d.gap is not None:
                print(f"{head}: data gap")
                continue
            routes = ", ".join(f"{route} {k}" for route, k in sorted(d.routes))
            print(f"{head}: {sum(k for _, k in d.routes)}"
                  f"{' (' + routes + ')' if routes else ''}")
    for gap in report.gaps.values():
        print(f"error: data gap: {gap}", file=sys.stderr)
    failed = bool(report.gaps)
    if golden is not None:
        diff = pipeline.compare_to_golden(report, golden)
        print(f"golden diff: {diff.summary()}", file=sys.stderr)
        for g in diff.missing:
            print(f"missing: {g}", file=sys.stderr)
        for row in diff.extra:
            print(f"extra: {row}", file=sys.stderr)
        failed = failed or not diff.empty
    return 1 if failed else 0


def build_parser() -> _Parser:
    p = _Parser(prog="setorbits",
                description="set-orbit counting and classification for "
                            "permutation groups")
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("orbits", help="set-orbit counts for one group")
    po.add_argument("--group", required=True,
                    help="catalog id (e.g. 12P2) or gens:\"(1,2);(1,2,3)\"")
    po.add_argument("--per-size", action="store_true")
    po.add_argument("--dump", action="store_true")
    po.set_defaults(func=cmd_orbits)

    pp = sub.add_parser("prune", help="degree elimination verdicts")
    pp.add_argument("--r", type=positive_int, required=True, metavar="R",
                    help="any R >= 1")
    pp.add_argument("--max-degree", type=int, default=None,
                    help="last degree listed (default: the degree bound)")
    pp.set_defaults(func=cmd_prune)

    ps = sub.add_parser("subgroups", help="subgroup classes of S_n")
    ps.add_argument("--degree", type=positive_int, required=True)
    ps.add_argument("--transitive", action="store_true")
    ps.set_defaults(func=cmd_subgroups)

    pv = sub.add_parser("catalog-verify", help="check every catalog entry")
    pv.set_defaults(func=cmd_catalog_verify)

    pc = sub.add_parser("classify", help="classification run for one r")
    pc.add_argument("--r", type=int, required=True, metavar="R",
                    choices=range(pipeline.MIN_R, pipeline.MAX_R + 1),
                    help=f"{pipeline.MIN_R}..{pipeline.MAX_R}")
    pc.add_argument("--golden", default=None,
                    help="reference table to diff against")
    pc.add_argument("--format", choices=("tsv", "pretty"), default="pretty")
    pc.set_defaults(func=cmd_classify)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (GroupTooLargeError, SubgroupCapError, cat.CatalogError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
