import json
import subprocess
import sys
from pathlib import Path

import opturan as op
from opturan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "oracle", "-k", "5", "-n", "12")
        assert code == 3
        assert "16796" in err

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


class TestAnalyze:
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
