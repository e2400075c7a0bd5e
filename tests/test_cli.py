"""Command-line interface: grammar, exit codes, and output determinism."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys

import jsonschema
import pytest

from distcrit import is_distance_critical_pairs
from distcrit.cli import run
from distcrit.graph6 import decode_graph6

SCHEMA_PATH = "schemas/cli_output.schema.json"

C5 = "Dhc"
K4 = "C~"
C4 = "Cl"
C8 = "GhCGKC"


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    """Run the CLI in process and capture (exit_code, stdout, stderr)."""
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_json_lines(out: str, schema) -> list[dict]:
    """Every stdout line must be a JSON object matching the schema."""
    records = []
    for line in out.splitlines():
        record = json.loads(line)
        jsonschema.validate(record, schema)
        records.append(record)
    return records


class TestCheck:
    def test_critical_cycle_on_stdin(self, capsys, schema, monkeypatch):
        code, out, _ = invoke(capsys, ["check"], stdin=f"{C5}\n",
                              monkeypatch=monkeypatch)
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert record["critical"] is True
        assert record["n"] == 5

    def test_critical_cycle_flag(self, capsys, schema):
        code, out, _ = invoke(capsys, ["check", "--graph", C5])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert record["critical"] is True

    def test_non_critical_clique(self, capsys, schema):
        code, out, _ = invoke(capsys, ["check", "--graph", K4])
        assert code == 1
        (record,) = check_json_lines(out, schema)
        assert record["critical"] is False

    def test_methods_agree(self, capsys, schema):
        verdicts = {}
        for method in ("pairs", "direct", "both"):
            code, out, _ = invoke(
                capsys, ["check", "--graph", C8, "--method", method])
            (record,) = check_json_lines(out, schema)
            verdicts[method] = (code, record["critical"])
        assert len(set(verdicts.values())) == 1

    def test_stdin_batch(self, capsys, schema, monkeypatch):
        code, out, _ = invoke(
            capsys, ["check"], stdin=f"{C5}\n{K4}\n", monkeypatch=monkeypatch)
        assert code == 1  # any non-critical input gives the negative verdict
        records = check_json_lines(out, schema)
        assert [r["critical"] for r in records] == [True, False]

    def test_malformed_graph6_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, ["check", "--graph", "!!!"])
        assert code == 2
        assert out == ""
        assert err != ""

    def test_no_partial_output_on_bad_batch(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, ["check"], stdin=f"{C5}\n!!!\n", monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""

    def test_empty_stdin_is_usage_error(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, ["check"], stdin="",
                              monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""


class TestPairs:
    def test_full_listing(self, capsys, schema):
        code, out, _ = invoke(capsys, ["pairs", "--graph", C5])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert len(record["witnesses"]) == 5

    def test_single_vertex(self, capsys, schema):
        code, out, _ = invoke(capsys, ["pairs", "--graph", C5,
                                       "--vertex", "2"])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        # C5 vertex 2 is determined by its neighbors 1 and 3
        assert record["pairs"] == [[1, 3]]

    def test_vertex_out_of_range(self, capsys):
        code, out, _ = invoke(capsys, ["pairs", "--graph", C5,
                                       "--vertex", "9"])
        assert code == 2
        assert out == ""


class TestStats:
    def test_shape(self, capsys, schema):
        code, out, _ = invoke(capsys, ["stats", "--graph", C5])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert set(record) == {
            "n", "edges", "girth", "min_degree", "max_degree",
            "clique_number", "connected", "two_connected", "critical",
            "involved_size"}
        assert record["girth"] == 5 and record["involved_size"] == 5


class TestConstruct:
    def test_gamma_with_layout(self, capsys, schema):
        code, out, _ = invoke(capsys, ["construct", "gamma", "-m", "4",
                                       "--layout"])
        assert code == 0
        g6, layout_line = out.splitlines()
        assert decode_graph6(g6).n == 18
        layout = json.loads(layout_line)
        jsonschema.validate(layout, schema)
        assert layout["m"] == 4
        assert len(layout["a"]) == 6 and len(layout["b"]) == 4
        assert len(layout["c"]) == 8

    def test_regular(self, capsys):
        code, out, _ = invoke(capsys, ["construct", "regular", "-n", "12"])
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.degree_sequence() == (5,) * 12

    def test_cycle_power(self, capsys):
        code, out, _ = invoke(capsys,
                              ["construct", "cycle-power", "-n", "9",
                               "-k", "2"])
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.n == 9 and g.edge_count() == 18

    def test_max_degree(self, capsys):
        code, out, _ = invoke(capsys, ["construct", "max-degree", "-n", "10"])
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.max_degree() == 6

    def test_embed(self, capsys, schema):
        code, out, _ = invoke(capsys, ["construct", "embed", "--graph", C5,
                                       "--layout"])
        assert code == 0
        g6, layout_line = out.splitlines()
        host = decode_graph6(g6)
        layout = json.loads(layout_line)
        jsonschema.validate(layout, schema)
        assert len(layout["injection"]) == 5
        assert all(0 <= w < host.n for _, w in layout["injection"])

    def test_gamma_too_small(self, capsys):
        code, out, _ = invoke(capsys, ["construct", "gamma", "-m", "2"])
        assert code == 2
        assert out == ""


class TestProduct:
    def test_cartesian_of_criticals(self, capsys):
        code, out, _ = invoke(capsys,
                              ["product", "--kind", "cartesian", C5, C5])
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.n == 25 and g.degree_sequence() == (4,) * 25
        assert is_distance_critical_pairs(g).verdict

    def test_tensor_counterexample(self, capsys):
        code, out, _ = invoke(capsys, ["product", "--kind", "tensor", C5, C4])
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.n == 20
        assert not is_distance_critical_pairs(g).verdict

    def test_bad_kind(self, capsys):
        code, out, _ = invoke(capsys,
                              ["product", "--kind", "lexicographic", C5, C5])
        assert code == 2
        assert out == ""


class TestEnumerate:
    def test_count_only_n7(self, capsys, schema):
        code, out, _ = invoke(capsys, ["enumerate", "-n", "7", "--count-only"])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert record["critical_count"] == 4
        assert record["connected_count"] == 853

    def test_edge_maximal(self, capsys, schema):
        code, out, _ = invoke(capsys, ["enumerate", "-n", "7", "--count-only",
                                       "--edge-maximal"])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert record["maximal_count"] == 2

    def test_emit_graph6(self, capsys):
        code, out, err = invoke(capsys, ["enumerate", "-n", "7",
                                         "--emit", "graph6"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            g = decode_graph6(line)
            assert g.n == 7 and is_distance_critical_pairs(g).verdict
        tally = json.loads(err.splitlines()[0])
        assert tally["critical_count"] == 4

    def test_emit_graph6_n8_is_pinned(self, capsys):
        # the hash was taken before the child cut table, inert splitters
        # and numpy orbit table went in
        code, out, _ = invoke(capsys, ["enumerate", "-n", "8",
                                       "--emit", "graph6"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eb8e61d96534aee86a66d2ba076666720baf6070a8bfad8f0e32518906a96a24")

    def test_sharding_partitions_the_count(self, capsys, schema):
        total = 0
        for shard in range(3):
            code, out, _ = invoke(capsys, ["enumerate", "-n", "7",
                                           "--count-only", "--shards", "3",
                                           "--shard", str(shard)])
            assert code == 0
            (record,) = check_json_lines(out, schema)
            total += record["critical_count"]
        assert total == 4

    def test_long_run_guard(self, capsys):
        code, out, _ = invoke(capsys, ["enumerate", "-n", "11",
                                       "--count-only"])
        assert code == 2
        assert out == ""

    def test_bad_shard_index(self, capsys):
        code, out, _ = invoke(capsys, ["enumerate", "-n", "6", "--shards", "2",
                                       "--shard", "2"])
        assert code == 2
        assert out == ""


class TestVerify:
    def test_single_lemma_text(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--lemma", "GIRTH",
                                       "--n-cap", "7"])
        assert code == 0
        assert out.splitlines() == ["GIRTH: PASS checked=4"]

    def test_single_lemma_json(self, capsys, schema):
        code, out, _ = invoke(capsys, ["verify", "--lemma", "NO_DOM",
                                       "--n-cap", "7", "--json"])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert record == {"id": "NO_DOM",
                          "universe": "distance-critical graphs, n <= 7",
                          "checked": 6, "violations": [], "ok": True}

    def test_all_lemmas(self, capsys, schema):
        code, out, _ = invoke(capsys, ["verify", "--lemma", "all",
                                       "--n-cap", "6", "--json"])
        assert code == 0
        records = check_json_lines(out, schema)
        assert len(records) == 14
        assert all(r["ok"] for r in records)

    def test_unknown_lemma(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--lemma", "BOGUS",
                                       "--n-cap", "6"])
        assert code == 2
        assert out == ""


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["check", "--graph", C8, "--method", "both"],
        ["pairs", "--graph", C5],
        ["stats", "--graph", C8],
        ["construct", "gamma", "-m", "3", "--layout"],
        ["construct", "regular", "-n", "12"],
        ["enumerate", "-n", "6", "--count-only", "--edge-maximal"],
        ["verify", "--lemma", "all", "--n-cap", "5", "--json"],
    ])
    def test_repeat_runs_byte_identical(self, capsys, argv):
        code1, out1, _ = invoke(capsys, argv)
        code2, out2, _ = invoke(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_elapsed_not_in_stdout(self, capsys):
        _, out, _ = invoke(capsys, ["enumerate", "-n", "6", "--count-only"])
        assert "elapsed" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "distcrit", "check", "--graph", C5],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["critical"] is True
