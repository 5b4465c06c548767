import resource
import subprocess
import sys
from pathlib import Path

import pytest

import opturan as op
from opturan import cli as cli_module, construct as construct_module, oracle as oracle_module
from opturan.certify import CoverageError
from opturan.cli import main
from opturan.turan import BoundValue

from helpers import ladder, pendant_polygon

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cap_memory():
    """Cap a child's address space at 1 GiB, so that building what the cap
    should refuse ends in a MemoryError instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*argv):
    return subprocess.run(
        [sys.executable, "-m", "opturan", *argv],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_memory,
    )


class TestConstruct:
    def test_figure_case(self, capsys):
        code, out, _ = run(capsys, "construct", "-k", "5", "-m", "1")
        assert code == 0
        assert "n=18 e=30 sharp=yes" in out
        assert "equality=yes" in out

    def test_k4_m2(self, capsys):
        code, out, _ = run(capsys, "construct", "-k", "4", "-m", "2")
        assert code == 0
        assert "n=17 e=27" in out

    def test_k3_m2(self, capsys):
        code, out, _ = run(capsys, "construct", "-k", "3", "-m", "2")
        assert code == 0
        assert "n=6 e=7" in out

    @pytest.mark.parametrize(
        "k, m, need", [("3", "100000000000", 200000000006), ("100000", "1", 19999699999)]
    )
    def test_huge_chain_is_refused_without_building_it(self, k, m, need):
        """The chain's and its gadget's vertex counts are known in closed
        form, so a chain too large to build refuses at once."""
        done = run_capped("construct", "-k", k, "-m", m)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"refused: chain k={k} m={m} needs {need} vertices")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_chain_at_the_vertex_cap_is_built(self, capsys, monkeypatch):
        # k=5, m=2: 4 + 2*14 chain vertices and 16 in the gadget
        monkeypatch.setattr(construct_module, "MAX_CHAIN_VERTICES", 48)
        assert run(capsys, "construct", "-k", "5", "-m", "2")[0] == 0
        code, out, err = run(capsys, "construct", "-k", "5", "-m", "3")
        assert (code, out) == (3, "")
        assert err == "refused: chain k=5 m=3 needs 62 vertices, above the cap 48\n"

    def test_chain_without_merges_builds_no_gadget(self):
        """With m = 0 the chain is its seed fan alone: 1000 vertices at
        k=1001, whose gadget would have 1001000."""
        done = run_capped("construct", "-k", "1001", "-m", "0")
        assert (done.returncode, done.stderr) == (0, "")
        assert " n=1000 e=1997 " in done.stdout

    def test_large_chain_is_written_as_graph6_in_capped_memory(self, tmp_path):
        """graph6 sets one bit per vertex pair in place, so the 28,004
        vertices of k=5 m=2000 (65 MB of text) fit under the memory cap."""
        done = run_capped("construct", "-k", "5", "-m", "2000", "--out", str(tmp_path), "--formats", "g6")
        assert (done.returncode, done.stderr) == (0, "")
        path, n = tmp_path / "chain_k5_m2000.g6", 28004
        assert path.stat().st_size == len("~xyz") + (n * (n - 1) // 2 + 5) // 6 + len("\n")
        with path.open("rb") as f:
            assert f.read(4) == b"~Etc"  # n = 6*64^2 + 53*64 + 36, each digit plus 63
        path.unlink()

    def test_graph6_above_its_cap_is_refused(self, tmp_path):
        # k=5, m=2400 has 33,604 vertices, above the 2^15 of MAX_G6_VERTICES
        assert construct_module.MAX_G6_VERTICES == 1 << 15
        done = run_capped("construct", "-k", "5", "-m", "2400", "--out", str(tmp_path), "--formats", "json,g6")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "refused: graph6 of 33604 vertices is above the cap 32768\n"
        assert list(tmp_path.iterdir()) == []

    def test_file_output_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run(
                capsys,
                "construct", "-k", "4", "-m", "1",
                "--out", str(d),
                "--formats", "json,embjson,dot,g6",
            )
            assert code == 0
        for name in (
            "chain_k4_m1.graph.json",
            "chain_k4_m1.embedding.json",
            "chain_k4_m1.dot",
            "chain_k4_m1.g6",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        g = op.graph_from_json((a / "chain_k4_m1.graph.json").read_text())
        assert (g.n, g.e) == (10, 15)
        assert op.graph_from_graph6((a / "chain_k4_m1.g6").read_text()) == g

    def test_bad_k(self, capsys):
        code, _, err = run(capsys, "construct", "-k", "2", "-m", "1")
        assert code == 2


class TestBound:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "bound", "-k", "5", "-n", "18")
        assert code == 0 and "bound=420/14 floor=30" in out
        code, out, _ = run(capsys, "bound", "-k", "3", "-n", "2")
        assert code == 0 and "floor=1" in out
        code, out, _ = run(capsys, "bound", "-k", "4", "-n", "10")
        assert code == 0 and "bound=105/7 floor=15" in out

    def test_range(self, capsys):
        code, out, _ = run(capsys, "bound", "-k", "4", "-n", "2..5")
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestOracle:
    def test_k3_sweep(self, capsys):
        code, out, _ = run(capsys, "oracle", "-k", "3", "-n", "2..8")
        assert code == 0
        values = [
            int(line.split("value=")[1].split()[0])
            for line in out.strip().splitlines()
            if "value=" in line
        ]
        assert values == [1, 2, 4, 5, 7, 8, 10]

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "oracle", "-k", "5", "-n", "65")
        assert code == 3
        assert "cap 64" in err and "1024 (length, apex) pairs" in err

    def test_huge_range_is_refused_without_building_it(self, tmp_path):
        """The range stays lazy, so the first n above the cap refuses at once."""
        done = run_capped("oracle", "-k", "4", "-n", "65..4611686018427387904")
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("refused: ")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("command", ["oracle", "certify"])
    def test_huge_k_is_clamped_to_the_vertex_count(self, tmp_path, command):
        """No cycle is longer than n, so a -k far past n builds no k-bit
        table: the oracle's DP stops at n+1 and the spectrum at n."""
        square = tmp_path / "square.json"
        square.write_text(op.graph_to_json(op.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
        source = ["-n", "5"] if command == "oracle" else ["--in", str(square)]
        done = run_capped(command, "-k", "100000000000", *source)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert ("value=7 " if command == "oracle" else "verdict=true") in done.stdout

    @pytest.mark.parametrize("cap", ["1", "0", "-5"])
    def test_cap_below_two_is_invalid_input(self, capsys, cap):
        code, out, err = run(capsys, "oracle", "-k", "4", "-n", "3", "--cap", cap)
        assert (code, out) == (2, "")
        assert "--cap must be at least 2" in err

    def test_cap_of_two_admits_n_two(self, capsys):
        code, out, _ = run(capsys, "oracle", "-k", "4", "-n", "2", "--cap", "2")
        assert code == 0 and "n=2 k=4 value=1" in out

    def test_jobs_output_byte_identical(self, tmp_path, capsys):
        outs = []
        for jobs in ("1", "2"):
            d = tmp_path / jobs
            code, out, _ = run(capsys, "oracle", "-k", "5", "-n", "3..12", "--jobs", jobs, "--out", str(d))
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            outs.append((out, files))
        assert outs[0] == outs[1]
        code, _, err = run(capsys, "oracle", "-k", "5", "-n", "4", "--jobs", "0")
        assert code == 2 and "--jobs" in err

    @pytest.mark.parametrize(
        "patch",
        [
            ("_witness_edges", lambda opened, closed, mask: [(0, 1), (1, 2), (0, 2), (2, 3)]),
            ("_witness_edges", lambda opened, closed, mask: [(0, 1), (1, 2), (2, 3), (0, 1)]),
            ("upper_bound", lambda k, n: BoundValue(k, n, 3, 1)),
        ],
        ids=["triangle", "duplicate", "bound"],
    )
    def test_failed_self_check_exit1(self, monkeypatch, capsys, patch):
        monkeypatch.setattr(oracle_module, *patch)
        code, out, err = run(capsys, "oracle", "-k", "3", "-n", "4")
        assert code == 1
        assert "oracle check failed: n=4 k=3" in err and out == ""

    def test_csv_and_witness(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys,
            "oracle", "-k", "4", "-n", "3..6",
            "--csv", str(csv_path),
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("n,k,bound_num,bound_den,sharp_residue")
        assert len(lines) == 5
        witness = op.graph_from_json(
            (tmp_path / "witness_k4_n6.graph.json").read_text()
        )
        assert not op.has_cycle_of_length(witness, 4)


class TestCertify:
    def test_chain(self, tmp_path, capsys):
        graph_path = tmp_path / "chain.json"
        graph_path.write_text(op.graph_to_json(op.build_chain(5, 1).graph))
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "certify", "-k", "5", "--in", str(graph_path), "--out", str(cert_path)
        )
        assert code == 0
        assert "verdict=true root_slack=0" in out
        cert = op.certificate_from_json(cert_path.read_text())
        assert op.verify_certificate(cert, 5).verdict

    def test_contains_cycle_exit2(self, tmp_path, capsys):
        graph_path = tmp_path / "fan5.json"
        graph_path.write_text(op.graph_to_json(op.fan(5).graph))
        code, _, err = run(capsys, "certify", "-k", "5", "--in", str(graph_path))
        assert code == 2
        assert "cycle of length 5" in err

    def test_fan4(self, tmp_path, capsys):
        graph_path = tmp_path / "fan4.json"
        graph_path.write_text(op.graph_to_json(op.fan(4).graph))
        code, out, _ = run(capsys, "certify", "-k", "5", "--in", str(graph_path))
        assert code == 0
        assert "maximal_leaf" in out and "root_slack=0" in out

    def test_not_outerplanar_exit2(self, tmp_path, capsys):
        graph_path = tmp_path / "k4.json"
        k4 = op.make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        graph_path.write_text(op.graph_to_json(k4))
        code, _, _ = run(capsys, "certify", "-k", "5", "--in", str(graph_path))
        assert code == 2

    def test_graph6_input(self, tmp_path, capsys):
        graph_path = tmp_path / "c4.g6"
        graph_path.write_text("Cl\n")
        code, out, _ = run(capsys, "certify", "-k", "3", "--in", str(graph_path))
        assert code == 0 and "verdict=true" in out

    def test_truncated_graph6_exit2(self, tmp_path, capsys):
        graph_path = tmp_path / "bad.g6"
        graph_path.write_text("~??\n")
        code, out, err = run(capsys, "analyze", "--in", str(graph_path))
        assert code == 2 and out == ""
        assert "truncated graph6 vertex count" in err

    def test_overlong_graph6_exit2(self, tmp_path, capsys):
        # K2 with four more body characters: refused like a short body, not read as K2
        graph_path = tmp_path / "long.g6"
        graph_path.write_text("A_????\n")
        code, out, err = run(capsys, "analyze", "--in", str(graph_path))
        assert (code, out) == (2, "")
        assert err == "invalid input: graph6 string too long for its vertex count\n"

    def test_large_graph6_is_read_in_place(self, tmp_path):
        """The body is scanned for its chunks other than '?', not expanded to
        one character per vertex pair: reading back the 16 MB graph6 of chain
        k=5 m=1000 (n = 14,004) raises the reader's peak RSS by under 10 MiB
        (the expansion took about 100 MiB)."""
        path = tmp_path / "chain.g6"
        g = construct_module.build_chain_graph(5, 1000)
        path.write_text(op.graph_to_graph6(g) + "\n")
        script = (
            "import resource, sys\n"
            "from opturan.graph import graph_from_text\n"
            "text = open(sys.argv[1]).read()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "g = graph_from_text(text)\n"
            "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(g.n, g.e, hash(g.edges), grew < 10 * 1024)\n"  # ru_maxrss is in KiB
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True, timeout=120,
        )
        assert done.stderr == ""
        assert done.stdout == f"{g.n} {g.e} {hash(g.edges)} True\n"

    def test_malformed_json_exit2(self, tmp_path, capsys):
        # nested past the recursion limit: bad input too, not a refusal
        nested = '{"n": 3, "edges": ' + "[" * 5000 + '"a"' + "]" * 5000 + "}"
        for text in ('{"n": 3, "edges": [[0, 1]', '{"n": 3}', '{"n": 3, "edges": [[0]]}', "{", nested):
            graph_path = tmp_path / "bad.json"
            graph_path.write_text(text)
            code, _, err = run(capsys, "certify", "-k", "3", "--in", str(graph_path))
            assert code == 2 and "invalid input" in err, text

    def test_coverage_error_exit1(self, tmp_path, capsys, monkeypatch):
        def no_step(emb, k):
            raise CoverageError("no decomposition step applies")

        monkeypatch.setattr(cli_module, "build_certificate", no_step)
        graph_path = tmp_path / "fan4.json"
        graph_path.write_text(op.graph_to_json(op.fan(4).graph))
        code, out, err = run(capsys, "certify", "-k", "5", "--in", str(graph_path))
        assert (code, out) == (1, "")
        assert err == "certificate construction failed: no decomposition step applies\n"

    def test_deep_certificate_is_written_and_reads_back(self, tmp_path):
        """A 600-rung ladder peels one square per level, and a 600-gon with a
        pendant edge at every vertex cuts one pendant off per level, so both
        certificates are about 600 nodes deep. Both are built and verified
        at Python's default recursion limit, and each file holds its nodes
        as one flat list that reads back to the same audit."""
        for name, graph in (("ladder", ladder(600)), ("pendants", pendant_polygon(600))):
            graph_path, cert_path = tmp_path / f"{name}.json", tmp_path / f"{name}.cert.json"
            graph_path.write_text(op.graph_to_json(graph))
            done = subprocess.run(
                [sys.executable, "-m", "opturan", "certify", "-k", "5", "--in", str(graph_path), "--out", str(cert_path)],
                env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True, timeout=120,
            )
            assert (done.returncode, done.stderr) == (0, ""), name
            assert done.stdout.splitlines()[-2].startswith("verdict=true "), name
            report = op.verify_certificate(op.certificate_from_json(cert_path.read_text()), 5)
            assert report.format_lines() + [f"wrote {cert_path}"] == done.stdout.splitlines(), name


class TestGraphInput:
    @pytest.mark.parametrize("command", [["certify", "-k", "5"], ["analyze"]])
    def test_huge_graph_is_refused_without_building_it(self, tmp_path, command):
        """A graph's vertex count is read before any work per vertex, so a
        graph with more vertices than a chain may have refuses at once."""
        graph_path = tmp_path / "huge.json"
        graph_path.write_text('{"n": 100000000, "edges": []}')
        done = run_capped(*command, "--in", str(graph_path))
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "refused: graph has 100000000 vertices, above the cap 1000000\n"

    @pytest.mark.parametrize("command", [["certify", "-k", "5"], ["analyze"]])
    def test_graph_at_the_vertex_cap_is_read(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(construct_module, "MAX_CHAIN_VERTICES", 4)
        graph_path = tmp_path / "path.json"
        graph_path.write_text(op.graph_to_json(op.make_graph(4, [(0, 1), (1, 2), (2, 3)])))
        assert run(capsys, *command, "--in", str(graph_path))[0] == 0
        graph_path.write_text(op.graph_to_json(op.make_graph(5, [(0, 1), (1, 2), (2, 3)])))
        code, out, err = run(capsys, *command, "--in", str(graph_path))
        assert (code, out) == (3, "")
        assert err == "refused: graph has 5 vertices, above the cap 4\n"


class TestAnalyze:
    def test_non_integer_vertex_ids_exit2(self, tmp_path, capsys):
        graph_path = tmp_path / "ids.json"
        graph_path.write_text('{"n": 3, "edges": [[0, 1.7], ["1", 2]]}')
        code, out, err = run(capsys, "analyze", "--in", str(graph_path))
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: ")

    def test_gadget(self, tmp_path, capsys):
        graph_path = tmp_path / "h5.json"
        graph_path.write_text(op.graph_to_json(op.build_H(5).graph))
        code, out, _ = run(capsys, "analyze", "--in", str(graph_path))
        assert code == 0
        assert "inner_faces=11" in out
        assert "triangular_blocks=6" in out
        assert "reducible_face=0-1-2-3-4-5 size=6 terminal_blocks=6" in out

    def test_square(self, tmp_path, capsys):
        graph_path = tmp_path / "c4.json"
        graph_path.write_text(
            op.graph_to_json(op.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        )
        code, out, _ = run(capsys, "analyze", "--in", str(graph_path))
        assert code == 0
        assert "inner_faces=1" in out and "trivial=4" in out

    def test_fan5_no_reducible_face(self, tmp_path, capsys):
        graph_path = tmp_path / "fan5.json"
        graph_path.write_text(op.graph_to_json(op.fan(5).graph))
        code, out, _ = run(capsys, "analyze", "--in", str(graph_path))
        assert code == 0 and "reducible_face=none" in out

    def test_dot_export(self, tmp_path, capsys):
        graph_path = tmp_path / "h4.json"
        graph_path.write_text(op.graph_to_json(op.build_H(4).graph))
        code, _, _ = run(capsys, "analyze", "--in", str(graph_path), "--dot", str(tmp_path))
        assert code == 0
        assert (tmp_path / "weak_dual.dot").exists()
        assert (tmp_path / "incidence.dot").exists()

    def test_graph6_sizes_59_to_63(self, tmp_path, capsys):
        for n in range(59, 64):
            g = op.make_graph(n, [(i, (i + 1) % n) for i in range(n)])
            graph_path = tmp_path / f"c{n}.g6"
            graph_path.write_text(op.graph_to_graph6(g) + "\n")
            code, out, _ = run(capsys, "analyze", "--in", str(graph_path))
            assert code == 0, n
            assert out.splitlines()[0] == f"n={n} e={n}"


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main must not build a parser")

    monkeypatch.setattr(cli_module, "_build_parser", no_parser)
    code, out, _ = run(capsys, "bound", "-k", "5", "-n", "18")
    assert code == 0 and "bound=420/14 floor=30" in out
    code, _, err = run(capsys, "bound", "-k", "2", "-n", "18")
    assert code == 2 and "-k must be at least 3" in err


def test_missing_file_exit2(capsys):
    code, _, _ = run(capsys, "certify", "-k", "5", "--in", "/nonexistent/file.json")
    assert code == 2


def test_construct_then_certify_under_python_O(tmp_path):
    """No result check may depend on `assert`, which `python -O` strips."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PATH": ""}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "opturan", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    built = cli("construct", "-k", "5", "-m", "4", "--out", ".")
    assert built.returncode == 0, built.stderr
    checked = cli("certify", "-k", "5", "--in", "chain_k5_m4.graph.json")
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout.splitlines()[-1] == "verdict=true root_slack=0"


def test_oracle_under_python_O(tmp_path):
    """The oracle's self-check must not depend on `assert` either."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-m", "opturan", "oracle", "-k", "4", "-n", "3..11"],
        cwd=tmp_path, env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    values = [int(line.split("value=")[1].split()[0]) for line in done.stdout.splitlines()]
    assert values == [3, 4, 6, 7, 9, 11, 13, 15, 16]
