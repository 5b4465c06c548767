"""Command-line front end.

Subcommands: construct, bound, oracle, certify, analyze. All machine
output is exact integers or integer pairs; identical invocations produce
byte-identical files. Exit codes: 0 success, 1 verification or bound
failure, 2 invalid input, 3 resource refusal (including an input too deep
for the recursion limit).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .graph import Graph, GraphError, graph_from_text, graph_to_graph6, graph_to_json
from .embedding import (
    NotOuterplanarError,
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
    BoundDomainError,
    bound_holds,
    comparison_csv,
    comparison_rows,
    sharp_residue,
    upper_bound,
)
from .construct import build_chain
from .oracle import DEFAULT_ORACLE_CAP, OracleCapError, OracleCheckError, exact_ex
from .certify import (
    ContainsForbiddenCycleError,
    CoverageError,
    build_certificate,
    certificate_to_json,
    verify_certificate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_REFUSED = 3

FORMATS = ("json", "embjson", "dot", "g6")


@dataclass(frozen=True)
class RunConfig:
    command: str
    k: int = 0
    m: int = 0
    ns: tuple[int, ...] = ()
    input_path: str | None = None
    out: str | None = None
    formats: tuple[str, ...] = ("json",)
    csv: str | None = None
    cap: int = DEFAULT_ORACLE_CAP


def _parse_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opturan",
        description="outerplanar cycle-Turan toolkit: bounds, constructions, "
        "exact oracle, and proof-replay certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the extremal chain")
    p.add_argument("-k", type=int, required=True, help="forbidden cycle length")
    p.add_argument("-m", type=int, default=0, help="number of gadget merges")
    p.add_argument("--out", help="directory for emitted files")
    p.add_argument(
        "--formats",
        default="json",
        help="comma list of: " + ",".join(FORMATS),
    )

    p = sub.add_parser("bound", help="exact upper bound as an integer pair")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=str, required=True, help="vertex count or a..b range")

    p = sub.add_parser(
        "oracle", help="exact maximum edges by interval DP over the convex polygon"
    )
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=str, required=True, help="vertex count or a..b range")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--csv", help="write the comparison table here")
    p.add_argument("--out", help="directory for witness graph JSON files")

    p = sub.add_parser("certify", help="build and audit a decomposition certificate")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--in", dest="input_path", required=True, help="graph JSON or graph6")
    p.add_argument("--out", help="write the certificate JSON here")

    p = sub.add_parser("analyze", help="faces, dual, blocks, spectrum of a graph")
    p.add_argument("--in", dest="input_path", required=True, help="graph JSON or graph6")
    p.add_argument("--dot", help="directory for DOT exports")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    k = getattr(args, "k", 3)
    if k < 3:
        raise ValueError(f"-k must be at least 3, got {k}")
    ns: tuple[int, ...] = ()
    if getattr(args, "n", None) is not None:
        ns = _parse_range(args.n)
        if not ns:
            raise ValueError("empty -n range")
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    cap = getattr(args, "cap", DEFAULT_ORACLE_CAP)
    if cap < 2:
        raise ValueError(f"--cap must be at least 2, the least vertex count, got {cap}")
    m = getattr(args, "m", 0)
    if m < 0:
        raise ValueError(f"-m must be non-negative, got {m}")
    formats = tuple(
        f.strip() for f in getattr(args, "formats", "json").split(",") if f.strip()
    )
    for f in formats:
        if f not in FORMATS:
            raise ValueError(f"unknown format {f!r}; choose from {FORMATS}")
    return RunConfig(
        command=args.command,
        k=k,
        m=m,
        ns=ns,
        input_path=getattr(args, "input_path", None),
        out=getattr(args, "out", None),
        formats=formats,
        csv=getattr(args, "csv", None),
        cap=cap,
    )


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


def _load_graph(path: str | None) -> Graph:
    if path is None:
        raise ValueError("--in is required")
    return graph_from_text(Path(path).read_text())


def _cmd_construct(cfg: RunConfig) -> int:
    emb = build_chain(cfg.k, cfg.m)
    g = emb.graph
    check = bound_holds(g.e, cfg.k, g.n)
    sharp = sharp_residue(cfg.k, g.n)
    print(
        f"k={cfg.k} m={cfg.m} n={g.n} e={g.e} "
        f"sharp={'yes' if sharp else 'no'} "
        f"bound={upper_bound(cfg.k, g.n)} "
        f"equality={'yes' if check.equality else 'no'}"
    )
    if cfg.out:
        for path in _emit_graph_files(
            emb, f"chain_k{cfg.k}_m{cfg.m}", cfg.out, cfg.formats
        ):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_bound(cfg: RunConfig) -> int:
    for n in cfg.ns:
        bound = upper_bound(cfg.k, n)
        print(
            f"k={cfg.k} n={n} bound={bound} floor={bound.floor()} "
            f"integer={'yes' if bound.is_integer() else 'no'} "
            f"sharp_residue={'yes' if sharp_residue(cfg.k, n) else 'no'}"
        )
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig) -> int:
    values: dict[int, int] = {}
    for n in cfg.ns:
        result = exact_ex(n, cfg.k, cap=cfg.cap)
        values[n] = result.value
        check = bound_holds(result.value, cfg.k, n)
        print(
            f"n={n} k={cfg.k} value={result.value} "
            f"bound={upper_bound(cfg.k, n)} "
            f"equality={'yes' if check.equality else 'no'}"
        )
        print(
            f"  states={result.states} elapsed={result.elapsed:.2f}s",
            file=sys.stderr,
        )
        if cfg.out:
            base = Path(cfg.out)
            base.mkdir(parents=True, exist_ok=True)
            path = base / f"witness_k{cfg.k}_n{n}.graph.json"
            path.write_text(graph_to_json(result.witness) + "\n")
    if cfg.csv:
        rows = comparison_rows(cfg.k, cfg.ns, values)
        Path(cfg.csv).write_text(comparison_csv(rows))
        print(f"wrote {cfg.csv}")
        print(f"note: fang_as_stated column is the {FANG_CAVEAT}", file=sys.stderr)
    return EXIT_OK


def _cmd_certify(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input_path)
    emb = recognize_outerplanar(g)
    cert = build_certificate(emb, cfg.k)
    report = verify_certificate(cert, cfg.k)
    for line in report.format_lines():
        print(line)
    if cfg.out:
        Path(cfg.out).write_text(certificate_to_json(cert) + "\n")
        print(f"wrote {cfg.out}")
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAILED


def _cmd_analyze(cfg: RunConfig, dot_dir: str | None) -> int:
    g = _load_graph(cfg.input_path)
    emb = recognize_outerplanar(g)
    dual = weak_dual(emb)
    partition = classify_terminal(triangular_blocks(dual, g.edges), dual)
    spectrum = sorted(cycle_length_set(emb))
    print(f"n={g.n} e={g.e}")
    sizes = ",".join(str(f.size) for f in dual.faces)
    print(f"inner_faces={len(dual.faces)} sizes=[{sizes}]")
    print(f"weak_dual_nodes={len(dual.faces)} weak_dual_edges={len(dual.edges)}")
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
            f"reducible_face={'-'.join(map(str, face.vertices))} "
            f"size={face.size} terminal_blocks={face.size - len(held)}"
        )
    print(f"cycle_lengths={spectrum}")
    if dot_dir:
        base = Path(dot_dir)
        base.mkdir(parents=True, exist_ok=True)
        (base / "embedding.dot").write_text(embedding_to_dot(emb))
        (base / "weak_dual.dot").write_text(weak_dual_to_dot(dual))
        (base / "incidence.dot").write_text(incidence_to_dot(face_block_incidence(dual, partition)))
        print(f"wrote DOT files to {base}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _config_from_args(args)
        if cfg.command == "construct":
            return _cmd_construct(cfg)
        if cfg.command == "bound":
            return _cmd_bound(cfg)
        if cfg.command == "oracle":
            return _cmd_oracle(cfg)
        if cfg.command == "certify":
            return _cmd_certify(cfg)
        if cfg.command == "analyze":
            return _cmd_analyze(cfg, getattr(args, "dot", None))
        raise ValueError(f"unknown command {cfg.command!r}")
    except OracleCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except RecursionError as exc:
        print(f"refused: input needs deeper recursion than Python allows ({exc})", file=sys.stderr)
        return EXIT_REFUSED
    except OracleCheckError as exc:
        print(f"oracle check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except CoverageError as exc:
        print(f"certificate construction failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ContainsForbiddenCycleError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (
        GraphError,
        NotOuterplanarError,
        BoundDomainError,
        ValueError,
        OSError,
    ) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
