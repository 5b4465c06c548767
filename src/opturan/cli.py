"""Command-line front end.

Subcommands: construct, bound, oracle, certify, analyze. All machine
output is exact integers or integer pairs; identical invocations produce
byte-identical files. Exit codes: 0 success, 1 verification or bound
failure, 2 invalid input, 3 resource refusal (an oracle run above its
cap, a chain or input graph above the vertex cap, or graph6 output above
its own).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import construct
from .graph import Graph, graph_from_text, graph_to_graph6, graph_to_json
from .embedding import (
    OuterplaneEmbedding,
    cycle_length_set,
    embedding_to_dot,
    embedding_to_json,
    recognize_outerplanar,
)
from .dual import (
    classify_terminal,
    face_block_incidence,
    find_reducible_face,
    incidence_to_dot,
    triangular_blocks,
    weak_dual,
    weak_dual_to_dot,
)
from .turan import (
    FANG_CAVEAT,
    bound_holds,
    comparison_csv,
    comparison_rows,
    sharp_residue,
    upper_bound,
)
from .construct import ChainSizeError, build_chain
from .oracle import DEFAULT_ORACLE_CAP, OracleCapError, OracleCheckError, exact_ex
from .certify import CoverageError, build_certificate, certificate_to_json, verify_certificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_REFUSED = 3

FORMATS = ("json", "embjson", "dot", "g6")


def _parse_range(text: str) -> range:
    """`a..b` or `a`; a range is lazy, so a huge upper end costs nothing up front."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text}")
        return range(lo, hi + 1)
    n = int(text)
    return range(n, n + 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opturan",
        description="outerplanar cycle-Turan toolkit: bounds, constructions, "
        "exact oracle, and proof-replay certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the extremal chain")
    p.set_defaults(run=_cmd_construct)
    p.add_argument("-k", type=int, required=True, help="forbidden cycle length")
    p.add_argument("-m", type=int, default=0, help="number of gadget merges")
    p.add_argument("--out", help="directory for emitted files")
    p.add_argument(
        "--formats",
        default="json",
        help="comma list of: " + ",".join(FORMATS),
    )

    p = sub.add_parser("bound", help="exact upper bound as an integer pair")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=str, required=True, help="vertex count or a..b range")

    p = sub.add_parser(
        "oracle", help="exact maximum edges by interval DP over the convex polygon"
    )
    p.set_defaults(run=_cmd_oracle)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=str, required=True, help="vertex count or a..b range")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--csv", help="write the comparison table here")
    p.add_argument("--out", help="directory for witness graph JSON files")

    p = sub.add_parser("certify", help="build and audit a decomposition certificate")
    p.set_defaults(run=_cmd_certify)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--in", dest="input_path", required=True, help="graph JSON or graph6")
    p.add_argument("--out", help="write the certificate JSON here")

    p = sub.add_parser("analyze", help="faces, dual, blocks, spectrum of a graph")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("--in", dest="input_path", required=True, help="graph JSON or graph6")
    p.add_argument("--dot", help="directory for DOT exports")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Check what argparse cannot, in place: -n becomes the tuple of its counts
    and --formats the tuple of its names."""
    if getattr(args, "k", 3) < 3:
        raise ValueError(f"-k must be at least 3, got {args.k}")
    if getattr(args, "n", None) is not None:
        args.n = _parse_range(args.n)
    if getattr(args, "jobs", 1) < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if getattr(args, "cap", DEFAULT_ORACLE_CAP) < 2:
        raise ValueError(f"--cap must be at least 2, the least vertex count, got {args.cap}")
    if getattr(args, "m", 0) < 0:
        raise ValueError(f"-m must be non-negative, got {args.m}")
    if hasattr(args, "formats"):
        args.formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
        for f in args.formats:
            if f not in FORMATS:
                raise ValueError(f"unknown format {f!r}; choose from {FORMATS}")


def _emit_graph_files(
    emb: OuterplaneEmbedding, stem: str, out_dir: str, formats: tuple[str, ...]
) -> list[Path]:
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "json":
            path = base / f"{stem}.graph.json"
            path.write_text(graph_to_json(emb.graph) + "\n")
        elif fmt == "embjson":
            path = base / f"{stem}.embedding.json"
            path.write_text(embedding_to_json(emb) + "\n")
        elif fmt == "dot":
            path = base / f"{stem}.dot"
            path.write_text(embedding_to_dot(emb))
        else:
            path = base / f"{stem}.g6"
            path.write_text(graph_to_graph6(emb.graph) + "\n")
        written.append(path)
    return written


def _cmd_construct(args: argparse.Namespace) -> int:
    emb = build_chain(args.k, args.m)
    g = emb.graph
    if args.out and "g6" in args.formats and g.n > construct.MAX_G6_VERTICES:
        raise ChainSizeError(f"graph6 of {g.n} vertices is above the cap {construct.MAX_G6_VERTICES}")
    check = bound_holds(g.e, args.k, g.n)
    sharp = sharp_residue(args.k, g.n)
    print(
        f"k={args.k} m={args.m} n={g.n} e={g.e} "
        f"sharp={'yes' if sharp else 'no'} "
        f"bound={upper_bound(args.k, g.n)} "
        f"equality={'yes' if check.equality else 'no'}"
    )
    if args.out:
        for path in _emit_graph_files(
            emb, f"chain_k{args.k}_m{args.m}", args.out, args.formats
        ):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    for n in args.n:
        bound = upper_bound(args.k, n)
        print(
            f"k={args.k} n={n} bound={bound} floor={bound.floor()} "
            f"integer={'yes' if bound.is_integer() else 'no'} "
            f"sharp_residue={'yes' if sharp_residue(args.k, n) else 'no'}"
        )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    values: dict[int, int] = {}
    for n in args.n:
        result = exact_ex(n, args.k, cap=args.cap)
        values[n] = result.value
        check = bound_holds(result.value, args.k, n)
        print(
            f"n={n} k={args.k} value={result.value} "
            f"bound={upper_bound(args.k, n)} "
            f"equality={'yes' if check.equality else 'no'}"
        )
        print(
            f"  states={result.states} elapsed={result.elapsed:.2f}s",
            file=sys.stderr,
        )
        if args.out:
            base = Path(args.out)
            base.mkdir(parents=True, exist_ok=True)
            path = base / f"witness_k{args.k}_n{n}.graph.json"
            path.write_text(graph_to_json(result.witness) + "\n")
    if args.csv:
        rows = comparison_rows(args.k, args.n, values)
        Path(args.csv).write_text(comparison_csv(rows))
        print(f"wrote {args.csv}")
        print(f"note: fang_as_stated column is the {FANG_CAVEAT}", file=sys.stderr)
    return EXIT_OK


def _read_graph(path: str) -> Graph:
    """The graph in the file at `path`, refused before any work per vertex above the cap."""
    g = graph_from_text(Path(path).read_text())
    if g.n > construct.MAX_CHAIN_VERTICES:
        raise ChainSizeError(f"graph has {g.n} vertices, above the cap {construct.MAX_CHAIN_VERTICES}")
    return g


def _cmd_certify(args: argparse.Namespace) -> int:
    g = _read_graph(args.input_path)
    emb = recognize_outerplanar(g)
    cert = build_certificate(emb, args.k)
    report = verify_certificate(cert, args.k)
    for line in report.format_lines():
        print(line)
    if args.out:
        Path(args.out).write_text(certificate_to_json(cert) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAILED


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.input_path)
    emb = recognize_outerplanar(g)
    dual = weak_dual(emb)
    partition = classify_terminal(triangular_blocks(dual, g.edges), dual)
    spectrum = sorted(cycle_length_set(emb))
    print(f"n={g.n} e={g.e}")
    sizes = ",".join(str(len(f)) for f in dual.faces)
    print(f"inner_faces={len(dual.faces)} sizes=[{sizes}]")
    print(f"weak_dual_nodes={len(dual.faces)} weak_dual_edges={sum(map(len, dual.links)) // 2}")
    trivial = sum(1 for b in partition.blocks if b.trivial)
    terminal = sum(1 for b in partition.blocks if b.terminal)
    print(
        f"triangular_blocks={len(partition.blocks)} "
        f"trivial={trivial} nontrivial={len(partition.blocks) - trivial} "
        f"terminal={terminal}"
    )
    found = find_reducible_face(dual)
    if found is None:
        print("reducible_face=none")
    else:
        face, held = found  # each face edge lies in its own block
        print(
            f"reducible_face={'-'.join(map(str, face))} "
            f"size={len(face)} terminal_blocks={len(face) - len(held)}"
        )
    print(f"cycle_lengths={spectrum}")
    if args.dot:
        base = Path(args.dot)
        base.mkdir(parents=True, exist_ok=True)
        (base / "embedding.dot").write_text(embedding_to_dot(emb))
        (base / "weak_dual.dot").write_text(weak_dual_to_dot(dual))
        (base / "incidence.dot").write_text(incidence_to_dot(face_block_incidence(dual, partition)))
        print(f"wrote DOT files to {base}")
    return EXIT_OK


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        _check_args(args)
        return args.run(args)
    except (OracleCapError, ChainSizeError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OracleCheckError as exc:
        print(f"oracle check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except CoverageError as exc:
        print(f"certificate construction failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
