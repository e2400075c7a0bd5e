"""Command-line interface: grammar, exit codes, and output determinism."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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
        # "~??Dhc" is C5 behind a non-minimal 4-character size header
        for bad in ("!!!", "~??Dhc"):
            code, out, err = invoke(capsys, ["check", "--graph", bad])
            assert code == 2
            assert out == ""
            assert err != ""
        assert "non-minimal size header" in err

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

    def test_regular_multiple_of_four_above_32(self, capsys):
        code, out, _ = invoke(capsys, ["construct", "regular", "-n", "36"])
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.degree_sequence() == (17,) * 36

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

    @pytest.mark.parametrize("argv", [
        ["regular", "-n", "100001"],
        ["cycle-power", "-n", "1000000000", "-k", "1"],
        ["max-degree", "-n", "1000000000"],
        ["gamma", "-m", "100000"],
    ])
    def test_oversized_order_is_refused_before_building(self, capsys, argv):
        # each would build far more edges than memory holds before the
        # vertex limit is checked, if the order were not checked first
        code, out, _ = invoke(capsys, ["construct", *argv])
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
        code, out, err = invoke(capsys, ["enumerate", "-n", "7"])
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
        # and the table of subset orbit minima went in
        code, out, _ = invoke(capsys, ["enumerate", "-n", "8"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eb8e61d96534aee86a66d2ba076666720baf6070a8bfad8f0e32518906a96a24")

    def test_critical_only_n8_prints_the_same_graphs(self, capsys, schema):
        code, out, err = invoke(capsys, ["enumerate", "-n", "8",
                                         "--critical-only"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eb8e61d96534aee86a66d2ba076666720baf6070a8bfad8f0e32518906a96a24")
        (record,) = check_json_lines(err.splitlines()[0], schema)
        assert record == {"n": 8, "critical_count": 15, "partition": [0, 1]}
        code, out, _ = invoke(capsys, ["enumerate", "-n", "8", "--count-only",
                                       "--critical-only", "--edge-maximal"])
        assert code == 0
        (record,) = check_json_lines(out, schema)
        assert record == {"n": 8, "critical_count": 15, "maximal_count": 4,
                          "partition": [0, 1]}

    def test_emit_flag_is_gone(self, capsys):
        # graph6 was its only choice; the hits are printed without it
        code, out, _ = invoke(capsys, ["enumerate", "-n", "5",
                                       "--emit", "graph6"])
        assert code == 2
        assert out == ""

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
        code, out, _ = invoke(capsys, ["enumerate", "-n", "11",
                                       "--critical-only"])
        assert code == 2
        assert out == ""

    def test_order_above_the_range_is_not_a_long_run(self, capsys):
        # no flag can make n = 12 valid, so the range error comes first
        for argv in (["enumerate", "-n", "12"],
                     ["enumerate", "-n", "12", "--allow-long-run"]):
            code, out, err = invoke(capsys, argv)
            assert code == 2
            assert out == ""
            assert "n must be in 1..11" in err
            assert "--allow-long-run" not in err

    def test_bad_shard_index(self, capsys):
        code, out, _ = invoke(capsys, ["enumerate", "-n", "6", "--shards", "2",
                                       "--shard", "2"])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "-n", "0"],
        ["enumerate", "-n", "6", "--jobs", "0"],
    ])
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        code, out, _ = invoke(capsys, argv)
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

    def test_jobs_option_is_gone(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--lemma", "all",
                                       "--n-cap", "5", "--jobs", "2"])
        assert code == 2
        assert out == ""

    def test_all_lemmas_json_n7_is_pinned(self, capsys):
        # the hash was taken before the lemmas moved onto one registry
        code, out, _ = invoke(capsys, ["verify", "--lemma", "all",
                                       "--n-cap", "7", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fc39f67835f48da0c7e0f062baa1cf8e706be578e24ac752cf6378fd01de2c29")

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


def fresh_run(argv, env):
    """Exit code and stdout of python -m distcrit in a new process."""
    proc = subprocess.run([sys.executable, "-m", "distcrit", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


class TestParserPerProcess:
    """run builds the parser once per process; calls in one process print
    what fresh processes print."""

    @pytest.fixture
    def env(self, monkeypatch):
        # help is wrapped to the terminal width, so pin it on both sides
        import distcrit
        monkeypatch.setenv("COLUMNS", "80")
        return {**os.environ, "PYTHONPATH": str(
            Path(distcrit.__file__).resolve().parents[1])}

    def test_calls_in_one_process_match_fresh_runs(self, capsys, env):
        sequence = [
            ["check", "--graph", C8, "--method", "both"],
            ["pairs", "--graph", C5, "--vertex", "0"],
            ["stats", "--graph", C8],
            ["check", "--graph", C5, "--method", "bogus"],
            ["check", "--graph", K4],
        ]
        codes = []
        for argv in sequence:
            code, out, _ = invoke(capsys, argv)
            assert (code, out) == fresh_run(argv, env)
            codes.append(code)
        assert codes == [0, 0, 0, 2, 1]

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"],
                                      ["construct", "regular", "--help"]])
    def test_help_is_unchanged(self, capsys, env, argv):
        first = invoke(capsys, argv)[:2]
        invoke(capsys, ["stats", "--graph", C5])
        assert invoke(capsys, argv)[:2] == first == fresh_run(argv, env)
        assert first[0] == 0 and first[1].startswith("usage: distcrit")

    def test_second_run_builds_no_parser(self, capsys, monkeypatch):
        invoke(capsys, ["check", "--graph", C5])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        assert invoke(capsys, ["stats", "--graph", C8])[0] == 0
        assert invoke(capsys, ["check", "--graph", K4])[0] == 1
        assert built == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "distcrit", "check", "--graph", C5],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["critical"] is True


def test_closed_stdout_exits_quietly():
    # the 87 kB graph6 line overfills the pipe, so the write after the
    # reader closes it fails with a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "distcrit", "construct", "regular", "-n",
         "1023"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"~?N~~~~~~~"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


def test_startup_imports_neither_numpy_nor_multiprocessing():
    # the library has no runtime dependency, and only a process pool
    # (enumerate --jobs > 1) loads multiprocessing
    import distcrit
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import distcrit, distcrit.cli\n"
            "print(sorted(m for m in ('numpy', 'multiprocessing')"
            " if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code,
         str(Path(distcrit.__file__).resolve().parents[1])],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
