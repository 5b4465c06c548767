"""Guards on the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opturan"


def test_no_assert_statements():
    """`python -O` strips `assert`, so no check in the package may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) >= 9
    assert found == []


def test_no_rank_bookkeeping():
    """Selections are recorded in the certified graph's own labels, so no
    module of the package ranks vertices by bisection."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in modules if name.split(".")[0] == "bisect"]
    assert found == []


def _bench_layers():
    path = PACKAGE.parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve():
    """`bench/run.py --trace 1` wraps these functions and walks certificate trees."""
    layers = _bench_layers()
    missing = [
        f"{module}.{name}"
        for module, name in layers.LAYERS.values()
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    from opturan.certify import CertNode, Certificate

    assert {"kind", "children"} <= {f.name for f in dataclasses.fields(CertNode)}
    assert "root" in {f.name for f in dataclasses.fields(Certificate)}


def test_certificates_stay_off_the_block_partition():
    """The builder picks peels off the weak dual and every split derives its
    children from the node graph, so certify.py names none of the partition's
    parts (they serve `analyze`)."""
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    partition = {
        "triangular_blocks", "classify_terminal", "face_block_incidence", "BlockPartition", "Face"
    }
    assert names & partition == set()


def test_one_face_form():
    """A face is its canonical boundary tuple and the weak dual is its faces
    plus each face's (neighbour, shared edge) links, as the face scan makes
    them: no module wraps a face in a class, and the certificate builder
    walks the links as built, so certify.py names no other form of the dual."""
    from opturan.dual import WeakDualForest

    classes = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "Face"
    ]
    assert classes == []
    assert tuple(f.name for f in dataclasses.fields(WeakDualForest)) == ("faces", "links")
    names = {
        getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(ast.parse((PACKAGE / "certify.py").read_text()))
    }
    assert names & {"shared_edges", "adjacency"} == set()


def test_verifier_reads_no_embedding_off_a_parent():
    """A derived child is vouched for by a flag: the verifier never restricts
    its parent's embedding."""
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    verifier = {"verify_certificate", "_verify_node", "_verify_split"}
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in verifier:
            found[node.name] = {
                getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)
            }
    assert set(found) == verifier
    assert all(not names & {"restrict_embedding", "_restricted"} for names in found.values())


def test_builder_reads_no_embedding_off_a_parent():
    """The builder walks the faces of one weak dual and keeps each contracted
    peel as faces, so certify.py names no embedding restriction and no
    graph-level builder, and the builder's code, from build_certificate up
    to the Verifier section, neither recognises nor builds a graph."""
    source = (PACKAGE / "certify.py").read_text()
    tree = ast.parse(source)
    names = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) for n in ast.walk(tree)}
    assert names & {"restrict_embedding", "_embedded", "_block_graph"} == set()
    start = next(n.lineno for n in tree.body if getattr(n, "name", None) == "build_certificate")
    end = source.splitlines().index("# Verifier") + 1
    builder = [n for n in tree.body if start <= n.lineno < end]
    assert {"_face_step", "_contracted_peel", "_cut_split"} <= {getattr(n, "name", None) for n in builder}
    used = {getattr(n, "id", getattr(n, "attr", None)) for node in builder for n in ast.walk(node)}
    assert used & {"recognize_outerplanar", "subgraph_on_edges"} == set()


def test_one_owner_for_the_shape_of_a_node():
    """CertNode checks a node's kind, selection fields and child count when
    the node is made, so the writer and the verifier check none of them,
    and only the reader names an unknown kind, a document's."""
    source = (PACKAGE / "certify.py").read_text()
    defs = {n.name: n for n in ast.parse(source).body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert "__post_init__" in {n.name for n in defs["CertNode"].body if isinstance(n, ast.FunctionDef)}
    for name in ("certificate_to_json", "_verify_node", "_verify_split"):
        found = list(ast.walk(defs[name]))
        assert "CertificateFormatError" not in {getattr(n, "id", getattr(n, "attr", None)) for n in found}, name
        counts = [n for n in found if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "len"]
        assert "node.children" not in {ast.unparse(n.args[0]) for n in counts}, name
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    for gone in ("leaf node must not have children", "cut split lacks its side", r"expected .* children, found"):
        assert not any(re.search(gone, text) for text in texts), gone
    reader = ast.get_source_segment(source, defs["_tree"])
    assert sum(text.count("unknown node kind") for text in texts) == reader.count("unknown node kind") == 1


def _recursive_functions(package: Path) -> set[str]:
    """Names of the package's functions, methods and named lambdas that can
    call themselves again, on the call graph keyed by the called name."""
    calls: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = node.name, node
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                name, body = getattr(node.targets[0], "id", "<lambda>"), node.value
            else:
                continue
            called = calls.setdefault(name, set())
            for call in ast.walk(body):  # nested functions and lambdas included
                if isinstance(call, ast.Call):
                    called.add(getattr(call.func, "id", getattr(call.func, "attr", None)))
    found = set()
    for start in calls:
        stack, seen = [start], set()
        while stack:
            for callee in calls.get(stack.pop(), ()):
                if callee == start:
                    found.add(start)
                if callee in calls and callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
    return found


def test_no_recursion_but_the_triangulation_enumerator():
    """A certificate can be as deep as its input, so no function of the
    package may reach itself again: the builder and the verifier each loop
    over a work stack. The one exception is oracle._chord_sets, which
    enumerates the triangulations of small polygons for the tests."""
    assert _recursive_functions(PACKAGE) == {"_chord_sets"}
