"""Mutation survey of the certificate verifier's failure sites.

Every `audit.fail(...)` and `raise SelectionError(...)` statement of
src/opturan/certify.py is a failure site. One at a time, each is replaced
by `pass` in a copy of the checkout in a temporary directory, and
`pytest -x -q` runs there. A site is killed when some test then fails, and
survives when the whole suite still passes: no test tells that check from
`pass`, so it either guards nothing or guards something no test covers.

    python3 tests/mutate_verifier.py [--root CHECKOUT]

Prints one line per site, `killed` or `survived`, then the count of
survivors, and exits 1 when any site survives. The working tree is never
edited. pytest does not collect this file, whose name does not start with
test_. Hypothesis runs with a fixed seed and no example database, so each
site gets the same examples and the table is repeatable.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TARGET = Path("src/opturan/certify.py")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
SUITE_TIMEOUT_S = 900  # the whole tier-1 suite takes well under a minute


def failure_sites(source: str) -> list[ast.stmt]:
    """The `audit.fail(...)` calls and `raise SelectionError(...)` statements, in line order."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr == "fail" and getattr(func.value, "id", None) == "audit":
                sites.append(node)
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) == "SelectionError":
                sites.append(node)
    return sorted(sites, key=lambda s: s.lineno)


def without(source: str, site: ast.stmt) -> str:
    """`source` with the statement `site` replaced by `pass`; every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first = site.lineno - 1
    lines[first] = " " * site.col_offset + "pass\n"
    for i in range(first + 1, site.end_lineno):
        lines[i] = "\n"
    return "".join(lines)


def run_suite(checkout: Path) -> bool:
    """Whether `pytest -x -q` passes in `checkout`, with a fresh Hypothesis state."""
    shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    try:
        done = subprocess.run(
            command, cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=SUITE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # a suite that hangs does not pass
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to survey")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutate-verifier-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(args.root, checkout, ignore=IGNORE)
        target = checkout / TARGET
        source = target.read_text()
        if not run_suite(checkout):
            print("the unmutated suite fails; nothing to survey", file=sys.stderr)
            return 2
        sites = failure_sites(source)
        survivors = 0
        for site in sites:
            target.write_text(without(source, site))
            survived = run_suite(checkout)
            survivors += survived
            text = ast.get_source_segment(source, site).splitlines()[0]
            print(f"{TARGET.name}:{site.lineno:<5} {'survived' if survived else 'killed':9} {text:.90}", flush=True)
    print(f"{survivors} of {len(sites)} sites survive")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
