"""Command-line interface: grammar, exit codes, and output determinism."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from distcrit import cli, is_distance_critical_pairs
from distcrit.cli import run
from distcrit.constructions import cycle, gamma
from distcrit.graph6 import decode_graph6, encode_graph6
from conftest import SRC, random_graph, relabeled, run_capped

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

    def test_vertex_out_of_range_for_a_later_graph(self, capsys,
                                                   monkeypatch):
        # vertex 6 is in C8 but not in C5: nothing is printed for C8
        code, out, err = invoke(capsys, ["pairs", "--vertex", "6"],
                                stdin=f"{C8}\n{C5}\n",
                                monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert "vertex 6 outside 0..4" in err

    def test_vertex_of_the_null_graph(self, capsys):
        # not a range 0..-1: the graph has no vertex at all
        code, out, err = invoke(capsys, ["pairs", "--graph", "?",
                                         "--vertex", "0"])
        assert code == 2
        assert out == ""
        assert "vertex 0 outside the graph, which has no vertices" in err
        assert "0..-1" not in err


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

    def test_null_graph_is_pinned(self, capsys, schema):
        # the graph with no vertices has no degrees; the bytes were taken
        # before its record stopped being a literal of its own
        code, out, _ = invoke(capsys, ["stats", "--graph", "?"])
        assert code == 0
        assert out == (
            '{"n": 0, "edges": 0, "girth": null, "min_degree": null, '
            '"max_degree": null, "clique_number": 0, "connected": true, '
            '"two_connected": false, "critical": false, "involved_size": 0}\n')
        check_json_lines(out, schema)

    @staticmethod
    def corpus() -> str:
        """Relabeled C_3..C_200, G(n, 3/n) and G(n, 1/2) for n = 1..64,
        and gamma(3..6), as graph6 lines."""
        rng = random.Random(4101)
        graphs = [relabeled(cycle(n), rng) for n in range(3, 201)]
        for n in range(1, 65):
            graphs.append(random_graph(n, 3 / n, rng))
            graphs.append(random_graph(n, 0.5, rng))
        graphs += [gamma(m)[0] for m in range(3, 7)]
        return "".join(encode_graph6(g) + "\n" for g in graphs)

    def test_corpus_stdout_is_pinned(self, capsys, monkeypatch):
        # taken before girth peeled its 2-core and the clique search
        # listed only the colours that can still win
        code, out, _ = invoke(capsys, ["stats"], stdin=self.corpus(),
                              monkeypatch=monkeypatch)
        assert code == 0
        assert len(out.splitlines()) == 198 + 128 + 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "adf5717341b06ca8e41b6ecfa316b4c0da99ab6949bffbc6f06bbc780e1c70fe")


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

    def test_regular_multiple_of_four_is_refused_under_a_memory_cap(self):
        # building the chords first would die of MemoryError, exit 1
        proc = run_capped(["-m", "distcrit", "construct", "regular", "-n",
                           "400000000"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""


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
        # the hash was re-taken when rule (b) came to choose the deletion
        # by the vertex key, which moved the generation order and labels
        code, out, _ = invoke(capsys, ["enumerate", "-n", "8"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d5047a19f7296a128ecdf98a3493e2057b8af438fd8ed8ae205e1ffb79f6a2aa")

    def test_critical_only_n8_prints_the_same_graphs(self, capsys, schema):
        code, out, err = invoke(capsys, ["enumerate", "-n", "8",
                                         "--critical-only"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d5047a19f7296a128ecdf98a3493e2057b8af438fd8ed8ae205e1ffb79f6a2aa")
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

    @pytest.mark.parametrize("argv", [["-n", "3"],
                                      ["-n", "3", "--count-only"],
                                      ["-n", "6"]])
    def test_huge_jobs_runs_under_a_memory_cap(self, argv):
        # the jobs are capped at the CPU count before any is set up;
        # setting up 10^8 of them dies of MemoryError, exit 1
        argv = ["-m", "distcrit", "enumerate", *argv]
        proc = run_capped([*argv, "--jobs", "100000000"])
        assert proc.returncode == 0, proc.stderr
        serial = run_capped([*argv, "--jobs", "1"])
        assert serial.returncode == 0, serial.stderr
        assert proc.stdout == serial.stdout


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

    def test_all_lemmas_json_n9_is_pinned(self, capsys):
        # the hash was taken while GIRTH was still decided by a girth > 4
        # shortcut in the criticality test
        code, out, _ = invoke(capsys, ["verify", "--lemma", "all",
                                       "--n-cap", "9", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cd17d6931e56d504c8937a54b87d2d6eabb65df02f577fc97a2e3699af87cabc")

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


class TestPairOutputPins:
    """The stdout bytes of every pairs-method command on a fixed batch:
    sparse and dense G(n, p) with n = 16..96, cycles and gamma graphs.
    The hashes were taken before the pair queries moved onto one
    sole-partner mask per vertex."""

    @staticmethod
    def batch() -> str:
        rng = random.Random(34)
        graphs = []
        for _ in range(12):
            n = rng.randint(16, 96)
            graphs.append(random_graph(
                n, rng.choice((2.5 / n, 5 / n, 0.3, 0.6)), rng))
        graphs += [cycle(n) for n in (5, 8, 13)]
        graphs += [gamma(m)[0] for m in (3, 4)]
        return "".join(encode_graph6(g) + "\n" for g in graphs)

    @pytest.mark.parametrize("argv, code, digest", [
        (["check", "--method", "both"], 1,
         "fbd58a9fdb552d1d8c57d880b66e70cc0a7beb00750dbd650332c28a0db50c81"),
        (["pairs"], 0,
         "f1c1de1eec4bdf91f647c8a87024589365438441a8a3c255d4b8cf34f4c4668e"),
        (["pairs", "--vertex", "3"], 0,
         "39d88fb36c483cc23d879a50b9a65d849ab41e9ac40e6883abaaea103a5ca4e0"),
        (["stats"], 0,
         "816a0b4be75167b29fd15465efd8e67e6ee151efb8cb48e3a29d8439438ecda1"),
    ])
    def test_stdout_is_pinned(self, capsys, monkeypatch, argv, code, digest):
        got = invoke(capsys, argv, stdin=self.batch(),
                     monkeypatch=monkeypatch)
        assert got[0] == code
        assert hashlib.sha256(got[1].encode()).hexdigest() == digest


def src_env() -> dict:
    """The caller's environment with this distcrit on PYTHONPATH, so a new
    process runs the code under test."""
    return {**os.environ, "PYTHONPATH": SRC}


def fresh_run(argv, env):
    """Exit code, stdout and stderr of python -m distcrit in a new
    process."""
    proc = subprocess.run([sys.executable, "-m", "distcrit", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserPerProcess:
    """run builds the parser once per process; calls in one process print
    what fresh processes print."""

    @pytest.fixture
    def env(self, monkeypatch):
        # help is wrapped to the terminal width, so pin it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        return src_env()

    def test_calls_in_one_process_match_fresh_runs(self, capsys, env):
        sequence = [
            ["check", "--graph", C8, "--method", "both"],
            ["pairs", "--graph", C5, "--vertex", "0"],
            ["stats", "--graph", C8],
            ["check", "--graph", C5, "--method", "bogus"],
            ["check", "--graph", K4],
            ["construct", "gamma", "-m", "3", "extra"],
        ]
        codes = []
        for argv in sequence:
            got = invoke(capsys, argv)
            fresh = fresh_run(argv, env)
            # stderr is compared on the usage errors, where argparse wrote it
            assert got[:2] == fresh[:2]
            if got[0] == 2:
                assert got[2] == fresh[2]
            codes.append(got[0])
        assert codes == [0, 0, 0, 2, 1, 2]

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"],
                                      ["construct", "regular", "--help"]])
    def test_help_is_unchanged(self, capsys, env, argv):
        first = invoke(capsys, argv)
        invoke(capsys, ["stats", "--graph", C5])
        assert invoke(capsys, argv) == first == fresh_run(argv, env)
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
        assert invoke(capsys, ["construct", "gamma", "-m", "3"])[0] == 0
        assert invoke(capsys, ["product", "--kind", "strong", C5, C4])[0] == 0
        assert built == []

    def test_path_table_holds_every_command_path(self):
        assert set(cli._parser_table()) == {
            (), ("check",), ("pairs",), ("product",), ("construct",),
            ("enumerate",), ("verify",), ("stats",),
            ("construct", "cycle-power"), ("construct", "gamma"),
            ("construct", "embed"), ("construct", "max-degree"),
            ("construct", "regular")}
        assert cli._parser_table()[()] is cli.build_parser()


def reference_run(argv) -> int:
    """run as it was when the top parser parsed every argv: parse_args
    walks the whole subparser tree, then the command is dispatched."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        return cli._fail(str(exc))


# every command and family, option spellings and positions, help at each
# level, bad values, leftovers at each level, "--", unknown commands
PARSE_CORPUS = [
    ["check", "--graph", C5],
    ["pairs", "--graph", C5],
    ["product", "--kind", "strong", C5, C4],
    ["enumerate", "-n", "4", "--count-only"],
    ["verify", "--lemma", "GIRTH", "--n-cap", "5"],
    ["stats", "--graph", K4],
    ["construct", "cycle-power", "-n", "7", "-k", "2"],
    ["construct", "gamma", "-m", "3", "--layout"],
    ["construct", "embed", "--graph", C4, "--layout"],
    ["construct", "max-degree", "-n", "8"],
    ["construct", "regular", "-n", "10"],
    ["check"],
    ["check", f"--graph={C8}", "--method=direct"],
    ["check", "--graph", C8, "--meth", "both"],
    ["check", "--gr", C5, "--method", "pa"],
    ["pairs", "--vertex=2", "--graph", C5],
    ["construct", "gamma", "-m3"],
    ["construct", "cycle-power", "-k2", "-n", "8"],
    ["construct", "regular", "-n=10"],
    ["construct", "gamma", "--lay", "-m", "3"],
    ["product", C5, "--kind", "tensor", C4],
    ["product", C5, C4, "--kind=cartesian"],
    ["enumerate", "--count", "-n4", "--edge-max"],
    ["-h"],
    ["--help"],
    ["--he", "check"],
    ["check", "-h"],
    ["stats", "--graph", C5, "--help"],
    ["construct", "-h"],
    ["construct", "gamma", "-h"],
    ["construct", "regular", "-n", "10", "--help"],
    ["check", "--graph"],
    ["construct"],
    ["construct", "gamma"],
    ["construct", "cycle-power", "-n", "5"],
    ["product", "--kind", "strong", C5],
    ["verify", "--n-cap", "5"],
    ["enumerate"],
    ["check", "--graph", C5, "--method", "bogus"],
    ["product", "--kind", "lexicographic", C5, C5],
    ["verify", "--lemma", "BOGUS", "--n-cap", "5"],
    ["construct", "hexagon", "-n", "5"],
    ["construct", "regular", "-n", "ten"],
    ["pairs", "--graph", C5, "--vertex", "x"],
    ["enumerate", "-n", "4.5"],
    ["verify", "--lemma", "GIRTH", "--n-cap", "five"],
    ["--bogus"],
    ["--bogus", "check", "--graph", C5],
    ["check", "--graph", C5, "extra"],
    ["check", "--graph", C5, "--bogus"],
    ["stats", "--graph", C5, "--bogus", "x", "y"],
    ["construct", "--bogus", "gamma", "-m", "3"],
    ["construct", "gamma", "-m", "3", "extra"],
    ["construct", "regular", "-n", "10", "--bogus=1"],
    ["construct", "embed", "--graph", C5, "-x", "--layout"],
    ["product", "--kind", "strong", C5, C4, C8],
    ["enumerate", "-n", "4", "--emit", "graph6"],
    ["--"],
    ["--", "check", "--graph", C5],
    ["check", "--", "--graph", C5],
    ["product", "--kind", "strong", "--", C5, C4],
    ["construct", "gamma", "--", "-m", "3"],
    ["bogus"],
    ["checks", "--graph", C5],
    ["gamma", "-m", "3"],
    [],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_run_matches_the_whole_tree_parse(capsys, monkeypatch, argv):
    # the leaf parser and the top parser's walk print the same bytes and
    # exit with the same code, errors and help included
    results = []
    for entry in (run, reference_run):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code = entry(list(argv))
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "distcrit", "check", "--graph", C5],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["critical"] is True


def test_closed_stdout_exits_quietly():
    # the 87 kB graph6 line overfills the pipe, so the write after the
    # reader closes it fails with a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "distcrit", "construct", "regular", "-n",
         "1023"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.read(10) == b"~?N~~~~~~~"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


PUBLIC_NAMES = [
    "CanonicalForm", "CriticalityReport", "EnumerationTally", "GammaLayout",
    "Graph", "Graph6Error", "LEMMA_IDS", "LemmaCheck", "MAX_VERTICES",
    "ProductKind", "UNREACHABLE", "all_pairs_distances",
    "articulation_points", "automorphism_orbits", "canonical_form",
    "check_product_lemmas", "cycle", "cycle_power", "decode_graph6",
    "determining_pairs_of", "disjoint_union", "embed_host", "encode_graph6",
    "gamma", "girth", "graham_pollak_determinant", "involved_set",
    "is_connected", "is_distance_critical", "is_distance_critical_direct",
    "is_distance_critical_pairs", "is_edge_maximal_critical",
    "is_two_connected", "iter_all_graphs", "iter_connected",
    "max_clique_size", "max_degree_extremal", "product", "regular_extremal",
    "run_all_lemmas", "run_enumeration", "run_lemma",
]


def test_public_surface_is_pinned():
    # a name added to or dropped from the package shows up as a diff here
    import distcrit
    assert len(PUBLIC_NAMES) == 42
    assert sorted(distcrit.__all__) == PUBLIC_NAMES
    assert all(hasattr(distcrit, name) for name in PUBLIC_NAMES)


def test_startup_imports_neither_numpy_nor_multiprocessing():
    # the library has no runtime dependency, and only a process pool
    # (enumerate --jobs > 1) loads multiprocessing
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import distcrit, distcrit.cli\n"
            "print(sorted(m for m in ('numpy', 'multiprocessing')"
            " if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
