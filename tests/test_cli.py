import argparse
import hashlib
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import KITTENS_GRAMMAR, KITTENS_SENTENCE, fresh_python
import icmup
from icmup import cli, codecs, reporting
from icmup.cli import main
from icmup.reporting import format_bits
from icmup.setnum import newton_table

ADDER_TSV = ("in:a\tin:b\tout:sum\tout:carry\n"
             "1\t1\t0\t1\n1\t0\t1\t0\n0\t1\t1\t0\n0\t0\t0\t0\n")
SUCCESSOR_TM = "s0 1 -> s0 R\ns0 0 -> s1 W1\ns1 1 -> s1 L\ns1 0 -> s2 R\n"
XOR_CIRCUIT = ("input a\ninput b\n"
               "gate g1 a b\ngate g2 a g1\ngate g3 b g1\ngate g4 g2 g3\n"
               "output g4\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def grammar_file(tmp_path):
    path = tmp_path / "toy.grammar"
    path.write_text(KITTENS_GRAMMAR)
    return str(path)


class TestCompressDecompress:
    def test_chunk_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcdefghijINFORMATIONklmnopqrstINFORMATIONuvwxyz")
        stream = tmp_path / "s.json"
        out = tmp_path / "back.txt"
        code, stdout, _ = run(capsys, "compress", str(corpus), "--chars",
                              "--out", str(stream))
        assert code == 0
        assert "chunks=1" in stdout
        assert "w1 count=2" in stdout
        doc = json.loads(stream.read_text())
        assert [t for t in doc["stream"] if "code" in t] == [
            {"code": "w1"}, {"code": "w1"}]
        code, stdout, _ = run(capsys, "decompress", str(stream), "--chars",
                              "--out", str(out))
        assert code == 0
        assert out.read_text() == corpus.read_text() + "\n"

    def test_chunks_listed_in_discovery_order(self, tmp_path, capsys):
        # eleven pairs, each seen twice, first seen in the order p0 .. p10:
        # codes follow discovery, so w10 comes after w9, not after w1
        corpus = tmp_path / "c.txt"
        corpus.write_text(" ".join(f"p{k} q{k} f{k} p{k} q{k} g{k}" for k in range(11)))
        stream = tmp_path / "s.json"
        report = tmp_path / "r.json"
        code, stdout, _ = run(capsys, "compress", str(corpus), "--out", str(stream),
                              "--report", str(report))
        assert code == 0
        codes = [f"w{k}" for k in range(1, 12)]
        assert stdout.splitlines()[1:12] == [f"{c} count=2 len=2" for c in codes]
        entries = json.loads(stream.read_text())["dictionary"]
        assert [(e["code"], e["symbols"]) for e in entries] == [
            (c, [f"p{k}", f"q{k}"]) for k, c in enumerate(codes)]
        chunks = json.loads(report.read_text())["details"]["chunks"]
        assert [c["code"] for c in chunks] == codes

    def test_whitespace_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b a b x\n")
        stream = tmp_path / "s.json"
        out = tmp_path / "d.txt"
        assert run(capsys, "compress", str(corpus), "--out", str(stream))[0] == 0
        assert run(capsys, "decompress", str(stream), "--out", str(out))[0] == 0
        assert out.read_text() == "a b a b a b x\n"

    @pytest.mark.parametrize("mode", ["chunk", "rle"])
    def test_a_literal_that_spells_a_code_round_trips(self, tmp_path, capsys, mode):
        # chunk w1 is a b, and the first symbol, the literal w1, spells its
        # code; both codecs give the corpus back byte for byte
        corpus = tmp_path / "c.txt"
        corpus.write_text("w1 x a b y a b\n")
        stream = tmp_path / "s.json"
        out = tmp_path / "d.txt"
        assert run(capsys, "compress", str(corpus), "--mode", mode,
                   "--out", str(stream))[0] == 0
        assert run(capsys, "decompress", str(stream), "--out", str(out))[0] == 0
        assert out.read_text() == corpus.read_text()

    def test_all_unique_ratio_one(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("q w e r t y")
        code, stdout, _ = run(capsys, "compress", str(corpus), "--out",
                              str(tmp_path / "s.json"))
        assert code == 0
        assert "ratio=1.000" in stdout

    def test_rle_mode(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("INFORMATION" * 5)
        stream = tmp_path / "s.json"
        code, stdout, _ = run(capsys, "compress", str(corpus), "--chars",
                              "--mode", "rle", "--out", str(stream))
        assert code == 0
        assert "runs=1" in stdout and "r1 count=5" in stdout
        out = tmp_path / "back.txt"
        assert run(capsys, "decompress", str(stream), "--chars",
                   "--out", str(out))[0] == 0
        assert out.read_text() == "INFORMATION" * 5 + "\n"

    def test_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("")
        for mode, unit, doc in (
                ("chunk", "chunks", {"dictionary": [], "stream": []}),
                ("rle", "runs", {"runs": []})):
            stream = tmp_path / f"{mode}.json"
            report = tmp_path / f"{mode}.report.json"
            code, stdout, _ = run(capsys, "compress", str(corpus), "--mode", mode,
                                  "--out", str(stream), "--report", str(report))
            assert code == 0
            assert stdout.splitlines()[0] == f"mode={mode} symbols=0 alphabet=0 {unit}=0"
            assert json.loads(stream.read_text()) == doc
            assert json.loads(report.read_text())["details"]["mode"] == mode
            out = tmp_path / f"{mode}.txt"
            assert run(capsys, "decompress", str(stream), "--out", str(out))[0] == 0
            assert out.read_text() == ""

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "compress", str(tmp_path / "missing.txt"),
                           "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert err

    def test_unknown_code_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "s.json"
        stream.write_text('{"dictionary": [], "stream": [{"code": "w1"}]}')
        code, _, err = run(capsys, "decompress", str(stream), "--out",
                           str(tmp_path / "d.txt"))
        assert code == 2 and "w1" in err

    @pytest.mark.parametrize("doc", [
        '{"dictionary": [], "stream": [{"lit": 7}]}',
        '{"dictionary": [{"code": "w1", "symbols": ["a", null], "count": 2}], "stream": []}',
        '{"runs": [{"symbols": [7], "count": 2}]}',
    ])
    def test_non_string_symbol_exits_2(self, tmp_path, capsys, doc):
        stream = tmp_path / "s.json"
        stream.write_text(doc)
        code, _, err = run(capsys, "decompress", str(stream), "--out",
                           str(tmp_path / "d.txt"))
        assert code == 2 and "must be a string" in err

    @pytest.mark.parametrize("doc, message", [
        ('{"runs": [{"symbols": ["a"], "count": 2.9}]}', "malformed runs file"),
        ('{"runs": [{"symbols": ["a"], "count": "3"}]}', "malformed runs file"),
        ('{"runs": [{"symbols": ["a"], "count": true}]}', "malformed runs file"),
        ('{"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 2.9}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": "3"}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"runs": [{"symbols": "ab", "count": 2}]}', "malformed runs file"),
        ('{"runs": [{"symbols": [], "count": 2}]}', "malformed runs file"),
        ('{"dictionary": [{"code": "w1", "symbols": [], "count": 2}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"dictionary": [{"code": "w1", "symbols": "ab", "count": 2}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 2}],'
         ' "stream": [{"code": "w1", "lit": "z"}]}', "exactly one of 'code' and 'lit'"),
        ('{"dictionary": [{"code": 7, "symbols": ["a", "b"], "count": 2}],'
         ' "stream": [{"code": 7}]}', "malformed stream file"),
        ('{"dictionary": [], "stream": [{"lit": "c", "extra": 1}]}',
         "exactly one of 'code' and 'lit'"),
        ('{"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 2, "x": 0}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"runs": [{"symbols": ["a"], "count": 2, "x": 0}]}', "malformed runs file"),
        ('{"dictionary": [], "stream": [{"lit": "a"}], "x": 0}', "malformed stream file"),
        ('{"runs": [{"symbols": ["a"], "count": 2}], "x": 0}', "malformed runs file"),
        ('{"runs": [{"symbols": ["a"], "count": 2}], "dictionary": [],'
         ' "stream": [{"lit": "a"}]}', "malformed runs file"),
        # a chunk occurs at least twice, spans two symbols, has its own code
        ('{"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 1}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"dictionary": [{"code": "w1", "symbols": ["a"], "count": 2}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        ('{"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 2},'
         ' {"code": "w1", "symbols": ["c", "d"], "count": 2}],'
         ' "stream": [{"code": "w1"}]}', "malformed stream file"),
        # every section is a JSON array, as every entry's symbols are
        ('{"dictionary": "", "stream": ""}',
         "malformed stream file: dictionary must be a JSON array, got str"),
        ('{"dictionary": {}, "stream": {}}',
         "malformed stream file: dictionary must be a JSON array, got dict"),
        ('{"dictionary": [], "stream": "ab"}',
         "malformed stream file: stream must be a JSON array, got str"),
        ('{"runs": ""}', "malformed runs file: runs must be a JSON array, got str"),
        ('{"runs": {}}', "malformed runs file: runs must be a JSON array, got dict"),
        ('{"runs": "ab"}', "malformed runs file: runs must be a JSON array, got str"),
        # and every entry of a section is a JSON object
        ('{"runs": [1]}', "malformed runs file: runs entry must be a JSON object, got int"),
        ('{"runs": ["ab"]}', "malformed runs file: runs entry must be a JSON object, got str"),
        ('{"dictionary": [7], "stream": []}',
         "malformed stream file: dictionary entry must be a JSON object, got int"),
        ('{"dictionary": [], "stream": [3]}',
         "malformed stream file: stream entry must be a JSON object, got int"),
    ])
    def test_repaired_file_exits_2(self, tmp_path, capsys, doc, message):
        stream = tmp_path / "s.json"
        stream.write_text(doc)
        out = tmp_path / "d.txt"
        code, _, err = run(capsys, "decompress", str(stream), "--out", str(out))
        assert code == 2 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("counts", [
        [10 ** 30],
        [codecs.DECODE_CAP + 1],
        [1, codecs.DECODE_CAP],  # each run alone is within the cap
    ], ids=["huge", "one-over", "together"])
    def test_decode_past_the_cap_exits_3(self, tmp_path, capsys, counts):
        stream = tmp_path / "runs.json"
        stream.write_text(json.dumps(
            {"runs": [{"symbols": ["a"], "count": c} for c in counts]}))
        out = tmp_path / "d.txt"
        code, stdout, err = run(capsys, "decompress", str(stream), "--out", str(out))
        assert (code, stdout) == (3, "") and "Traceback" not in err
        assert err == (f"TooLarge: run 'r{len(counts)}' takes the output past "
                       f"the cap of {codecs.DECODE_CAP} symbols\n")
        assert not out.exists()

    def test_chunk_decode_past_the_cap_exits_3(self, tmp_path, capsys):
        # a ~165 KB file: one 1,000-symbol entry and 10,001 references to it
        refs = codecs.DECODE_CAP // 1000 + 1
        stream = tmp_path / "s.json"
        stream.write_text(json.dumps(
            {"dictionary": [{"code": "w1", "symbols": ["a"] * 1000, "count": refs}],
             "stream": [{"code": "w1"}] * refs}))
        out = tmp_path / "d.txt"
        code, stdout, err = run(capsys, "decompress", str(stream), "--out", str(out))
        assert (code, stdout) == (3, "") and "Traceback" not in err
        assert err == (f"TooLarge: token {refs} (code 'w1') takes the output past "
                       f"the cap of {codecs.DECODE_CAP} symbols\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[" * 200_000, '{"runs": ' + "[" * 200_000],
                             ids=["arrays", "in-runs"])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, text):
        stream = tmp_path / "s.json"
        stream.write_text(text)
        out = tmp_path / "d.txt"
        code, stdout, err = run(capsys, "decompress", str(stream), "--out", str(out))
        assert (code, stdout) == (2, "") and "Traceback" not in err
        assert "nests too deeply" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["chunk", "rle"])
    def test_past_the_symbol_limit_exits_3(self, tmp_path, capsys, monkeypatch, mode):
        # the coders run out of characters three symbols in: chr() is moved
        # up so that the fourth distinct symbol asks for the code point
        # past the last, as the 1,114,113th of a real corpus can
        monkeypatch.setattr(codecs, "chr", lambda i: chr(i + codecs.MAX_SYMBOLS - 2),
                            raising=False)
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c d a b")
        out = tmp_path / "s.json"
        code, stdout, err = run(capsys, "compress", str(corpus), "--mode", mode,
                                "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == ("TooLarge: more than 1114111 distinct symbols: the coders "
                       "spell each one as a character\n")
        assert not out.exists()

    def test_malformed_stream_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "s.json"
        stream.write_text("{broken")
        assert run(capsys, "decompress", str(stream), "--out",
                   str(tmp_path / "d.txt"))[0] == 2

    def test_two_part_bits(self, tmp_path, capsys):
        # the stream alone is free, but the dictionary is not: 10 symbols
        # plus one to end the entry, at log2(10) bits each
        corpus = tmp_path / "c.txt"
        corpus.write_text("q w e r t y u i o p q w e r t y u i o p")
        report = tmp_path / "r.json"
        code, stdout, _ = run(capsys, "compress", str(corpus), "--out",
                              str(tmp_path / "s.json"), "--report", str(report))
        assert code == 0
        assert stdout.splitlines()[-1] == (
            "raw_bits=66.439 encoded_bits=0.000 ratio=0.000 "
            "dictionary_bits=36.541 total_bits=36.541")
        doc = json.loads(report.read_text())
        assert doc["dictionary_bits"] == pytest.approx(11 * math.log2(10))
        assert doc["total_bits"] == doc["encoded_bits"] + doc["dictionary_bits"]

    def test_two_part_bits_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("")
        code, stdout, _ = run(capsys, "compress", str(corpus), "--out",
                              str(tmp_path / "s.json"))
        assert code == 0
        assert stdout.splitlines()[-1] == (
            "raw_bits=0.000 encoded_bits=0.000 ratio=1.000 "
            "dictionary_bits=0.000 total_bits=0.000")

    def test_rle_has_no_dictionary(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b")
        report = tmp_path / "r.json"
        code, stdout, _ = run(capsys, "compress", str(corpus), "--mode", "rle",
                              "--out", str(tmp_path / "s.json"),
                              "--report", str(report))
        assert code == 0
        assert "dictionary_bits" not in stdout
        assert "dictionary_bits" not in json.loads(report.read_text())

    def test_failed_run_writes_no_report(self, tmp_path, capsys, grammar_file):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b")
        report = tmp_path / "r.json"
        failing = [
            ["compress", str(tmp_path / "missing.txt"), "--out",
             str(tmp_path / "s.json")],
            ["compress", str(corpus), "--out", str(tmp_path / "no" / "s.json")],
            ["align", str(corpus), "--new", "a b"],
            ["align", grammar_file, "--new", "a b", "--top", "0"],
        ]
        for argv in failing:
            assert run(capsys, *argv, "--report", str(report))[0] == 2
            assert not report.exists()
        # a report that cannot be written fails the run before it starts:
        # nothing printed, no --out file
        out = tmp_path / "s.json"
        for argv in (["compress", str(corpus), "--out", str(out)],
                     ["align", grammar_file, "--new", "a b"],
                     ["newton"]):
            code, stdout, err = run(capsys, *argv, "--report",
                                    str(tmp_path / "nodir" / "r.json"))
            assert (code, stdout) == (2, "") and "nodir" in err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compress", "IN", "--out", "IN"],
        ["compress", "IN", "--out", "s.json", "--report", "IN"],
        ["decompress", "IN", "--out", "IN"],
        ["align", "IN", "--new", "k i t", "--report", "IN"],
    ], ids=["compress-out", "compress-report", "decompress-out", "align-report"])
    def test_output_over_input_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        source = Path("input")
        source.write_text({"compress": "a b a b", "align": KITTENS_GRAMMAR,
                           "decompress": '{"dictionary": [], "stream": [{"lit": "a"}]}'
                           }[argv[0]])
        before = source.read_bytes()
        # the output names the input by another spelling of its path
        argv = argv[:1] + ["input"] + [os.path.join(".", "input") if a == "IN" else a
                                       for a in argv[2:]]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and "is the input file" in err
        assert source.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["input"]

    @pytest.mark.parametrize("spelling, exists", [
        ("s.json", False), (os.path.join(".", "s.json"), False), ("s.json", True)])
    def test_report_over_out_exits_2(self, tmp_path, capsys, monkeypatch,
                                     spelling, exists):
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text("a b a b")
        if exists:
            Path("s.json").write_text("kept")
        code, stdout, err = run(capsys, "compress", "c.txt", "--out", "s.json",
                                "--report", spelling)
        assert (code, stdout) == (2, "") and "is the --out file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["c.txt", "s.json"] if exists else ["c.txt"])
        assert not exists or Path("s.json").read_text() == "kept"

    @pytest.mark.parametrize("argv", [
        ["compress", "c.txt", "--out", "DIR"],
        ["compress", "c.txt", "--out", "s.json", "--report", "DIR"],
        ["decompress", "s.json", "--out", "DIR"],
    ], ids=["compress-out", "compress-report", "decompress-out"])
    def test_output_naming_a_directory_exits_2(self, tmp_path, capsys, monkeypatch,
                                               argv):
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text("a b a b")
        if argv[0] == "decompress":
            Path("s.json").write_text('{"dictionary": [], "stream": [{"lit": "a"}]}')
        Path("outputs").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        code, stdout, err = run(capsys, *["outputs" if a == "DIR" else a
                                          for a in argv])
        assert (code, stdout) == (2, "") and "'outputs' is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not any(Path("outputs").iterdir())

    @pytest.mark.parametrize("argv, denied", [
        (["compress", "c.txt", "--out", "locked/s.json"], "locked"),
        (["compress", "c.txt", "--out", "old.json"], "old.json"),
        (["compress", "c.txt", "--out", "s.json", "--report", "locked/r.json"], "locked"),
        (["compress", "c.txt", "--out", "s.json", "--report", "old.json"], "old.json"),
        (["decompress", "old.json", "--out", "locked/d.txt"], "locked"),
        (["align", "g.txt", "--new", "k i t", "--report", "r.json"], os.curdir),
    ], ids=["out-folder", "out-file", "report-folder", "report-file",
            "decompress-out", "align-report-here"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, argv,
                                       denied):
        # the tests may run as root, which file modes do not stop, so the
        # permission is refused by standing in for os.access
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text("a b a b")
        Path("g.txt").write_text(KITTENS_GRAMMAR)
        Path("old.json").write_text('{"dictionary": [], "stream": [{"lit": "a"}]}')
        Path("locked").mkdir()
        access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            path != denied and access(path, mode)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and "cannot be written" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert not any(Path("locked").iterdir())

    def test_report_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b a b")
        report = tmp_path / "r.json"
        run(capsys, "compress", str(corpus), "--out", str(tmp_path / "s.json"),
            "--report", str(report))
        doc = json.loads(report.read_text())
        assert doc["command"] == "compress"
        assert doc["ratio"] == doc["encoded_bits"] / doc["raw_bits"]
        assert len(doc["inputs"]) == 1

    @pytest.mark.parametrize("command", ["compress", "align"])
    def test_input_hashed_only_for_a_report(self, tmp_path, capsys, monkeypatch,
                                            grammar_file, command):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b a b")
        source = str(corpus) if command == "compress" else grammar_file
        argv = (["compress", source, "--out", str(tmp_path / "s.json")]
                if command == "compress" else ["align", source, "--new", "k i t"])

        def refuse(path):
            raise AssertionError(f"hashed {path} with no report to write")

        with monkeypatch.context() as patched:
            patched.setattr(reporting, "file_digest", refuse)
            assert run(capsys, *argv)[0] == 0
        report = tmp_path / "r.json"
        assert run(capsys, *argv, "--report", str(report))[0] == 0
        digest = hashlib.sha256(Path(source).read_bytes()).hexdigest()
        assert json.loads(report.read_text())["inputs"] == {source: digest}


class TestAlign:
    def test_kittens_top_alignment(self, grammar_file, capsys):
        code, stdout, _ = run(capsys, "align", grammar_file, "--new",
                              "t w o k i t t e n s p l a y", "--top", "1")
        assert code == 0
        header = stdout.splitlines()[0]
        assert header.startswith("alignment=1 cd=59.810 p=1.000")
        assert stdout.count("\tnew,") == 14  # every sentence symbol is a hit

    def test_empty_grammar_literal_only(self, tmp_path, capsys):
        grammar = tmp_path / "empty.grammar"
        grammar.write_text("# nothing\n")
        code, stdout, _ = run(capsys, "align", str(grammar), "--new", "a b")
        assert code == 0
        assert "rows=(none)" in stdout
        assert "p=1.000" in stdout

    def test_two_equal_matches_split_probability(self, tmp_path, capsys):
        grammar = tmp_path / "two.grammar"
        grammar.write_text("PATTERN pa 1: a b\nPATTERN pb 1: a b\n")
        code, stdout, _ = run(capsys, "align", str(grammar), "--new", "a b",
                              "--top", "2")
        assert code == 0
        assert stdout.count("p=0.500") == 2

    def test_bad_grammar_line_number(self, tmp_path, capsys):
        grammar = tmp_path / "bad.grammar"
        grammar.write_text("PATTERN ok 1: a\nnot a pattern\n")
        code, _, err = run(capsys, "align", str(grammar), "--new", "a")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_2(self, grammar_file, capsys, top):
        code, stdout, err = run(capsys, "align", grammar_file, "--new",
                                "k i t t e n", "--top", top, "--beam", "3")
        assert code == 2
        assert stdout == ""
        assert err == "error: --top must be >= 1\n"

    def test_parse_command(self, grammar_file, capsys):
        code, stdout, _ = run(capsys, "parse", grammar_file, "--new",
                              "k i t t e n")
        assert code == 0
        assert stdout.strip() == "p1( Nr 5 k i t t e n #Nr )"

    def test_retrieve_command(self, grammar_file, capsys):
        code, stdout, _ = run(capsys, "retrieve", grammar_file, "--query",
                              "k i t t e n", "--top", "2")
        assert code == 0
        assert stdout.splitlines()[0].startswith("p1\t")

    @pytest.mark.parametrize("line", ["PATTERNx 2: a b", "PATTERN x 1_0: a"])
    def test_bad_grammar_line_exits_2(self, tmp_path, capsys, line):
        grammar = tmp_path / "bad.grammar"
        grammar.write_text(f"# header\nPATTERN p1: a\n{line}\n")
        code, stdout, err = run(capsys, "retrieve", str(grammar), "--query", "a")
        assert (code, stdout) == (2, "")
        assert "line 3:" in err

    def test_frequency_too_long_to_read_exits_2(self, tmp_path, capsys):
        grammar = tmp_path / "long.grammar"
        grammar.write_text("PATTERN b 1: y z\nPATTERN a 1" + "0" * 5000 + ": x y\n")
        code, stdout, err = run(capsys, "retrieve", str(grammar), "--query", "x y")
        assert (code, stdout) == (2, "")
        assert err == "error: line 2: bad frequency of 5001 digits: too long\n"

    def test_code_past_float_underflow_exits_0(self, tmp_path, capsys):
        # 1 / 10^400 rounds to 0.0, so b's code was -log2(0.0), a domain error
        grammar = tmp_path / "skewed.grammar"
        grammar.write_text("PATTERN a 1" + "0" * 400 + ": x y\nPATTERN b 1: y z\n")
        code, stdout, _ = run(capsys, "retrieve", str(grammar), "--query", "x y",
                              "--top", "2")
        assert (code, stdout) == (0, "a\t3.170\nb\t-1327.186\n")
        code, stdout, _ = run(capsys, "align", str(grammar), "--new", "y z", "--top", "2")
        assert code == 0
        assert stdout.splitlines()[0] == "alignment=1 cd=1.585 p=0.500 rows=a hits=1"

    def test_deterministic_output(self, grammar_file, capsys):
        args = ("align", grammar_file, "--new", "t w o k i t t e n s p l a y")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_align_report(self, grammar_file, tmp_path, capsys):
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "align", grammar_file, "--new",
                         "k i t t e n", "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["command"] == "align"
        assert doc["details"]["top"][0]["rows"] == ["p1"]
        assert doc["encoded_bits"] < doc["raw_bits"]


class TestMachinesCli:
    def test_table_eval_with_diagnostics(self, tmp_path, capsys):
        table = tmp_path / "adder.tsv"
        table.write_text(ADDER_TSV)
        code, stdout, _ = run(capsys, "table", str(table), "--in", "1,0",
                              "--diag")
        assert code == 0
        assert stdout == ("selected_row=2 matches=1,2,0,1\n"
                          "sum=1 carry=0\n")

    def test_table_no_match_exits_3(self, tmp_path, capsys):
        table = tmp_path / "adder.tsv"
        table.write_text(ADDER_TSV)
        code, _, err = run(capsys, "table", str(table), "--in", "2,0")
        assert code == 3
        assert err.startswith("NoMatch")

    @pytest.mark.parametrize("values", [",1,0", "1,,0", "1,0,"])
    def test_table_empty_value_exits_2(self, tmp_path, capsys, values):
        table = tmp_path / "adder.tsv"
        table.write_text(ADDER_TSV)
        code, stdout, err = run(capsys, "table", str(table), "--in", values)
        assert code == 2 and stdout == ""
        assert "empty value" in err

    @pytest.mark.parametrize("assignment, message", [
        ("a=1,b=0,zz=7", "'zz' is not an input"),
        ("a=1,g1=0,b=0", "'g1' is not an input"),
        ("a=1,b=0,a=0", "'a' is assigned twice"),
    ])
    def test_circuit_bad_assignment_exits_2(self, tmp_path, capsys, assignment,
                                            message):
        circuit = tmp_path / "xor.circuit"
        circuit.write_text(XOR_CIRCUIT)
        code, stdout, err = run(capsys, "circuit", str(circuit), "--in", assignment)
        assert code == 2 and stdout == ""
        assert message in err

    def test_circuit_eval_and_compile(self, tmp_path, capsys):
        circuit = tmp_path / "xor.circuit"
        circuit.write_text(XOR_CIRCUIT)
        code, stdout, _ = run(capsys, "circuit", str(circuit), "--in", "a=1,b=0")
        assert code == 0 and stdout.strip() == "g4=1"
        code, stdout, _ = run(capsys, "circuit", str(circuit), "--compile")
        assert code == 0
        assert stdout.splitlines()[0] == "in:a\tin:b\tout:g4"
        assert len(stdout.splitlines()) == 5

    def test_tm_run(self, tmp_path, capsys):
        machine = tmp_path / "succ.tm"
        machine.write_text(SUCCESSOR_TM)
        code, stdout, _ = run(capsys, "tm", str(machine), "--tape", "01100",
                              "--head", "1", "--state", "s0")
        assert code == 0
        assert stdout == ("halted=true state=s2 steps=7 attempts=8 head=1\n"
                          "tape[0..4]=01110\n")

    def test_tm_bad_tape(self, tmp_path, capsys):
        machine = tmp_path / "succ.tm"
        machine.write_text(SUCCESSOR_TM)
        code, _, err = run(capsys, "tm", str(machine), "--tape", "012",
                           "--state", "s0")
        assert code == 2 and "tape" in err


class TestSmallCommands:
    def test_sets(self, capsys):
        assert run(capsys, "sets", "toset", "a b a c b b c a c")[1] == "{a, b, c}\n"
        assert run(capsys, "sets", "union", "b f d a c e", "e g i f d h")[1] == \
            "{a, b, c, d, e, f, g, h, i}\n"
        assert run(capsys, "sets", "intersection", "b f d a c e",
                   "e g i f d h")[1] == "{d, e, f}\n"

    def test_unary_ops(self, capsys):
        code, stdout, _ = run(capsys, "unary", "mul", "3", "10")
        assert code == 0
        assert stdout.splitlines()[0] == "result=30 add_iterations=10"
        code, stdout, _ = run(capsys, "unary", "div", "12", "3")
        assert stdout.splitlines()[0] == \
            "quotient=4 remainder=0 subtract_iterations=4"

    def test_unary_trace(self, capsys):
        code, stdout, _ = run(capsys, "unary", "add", "2", "3", "--trace")
        assert code == 0
        assert stdout.count("0 transfer") == 3

    def test_unary_domain_error(self, capsys):
        code, _, err = run(capsys, "unary", "sub", "3", "7")
        assert code == 3 and err.startswith("Underflow")

    def test_module_run_is_main(self, capsys, monkeypatch):
        # ``python -m icmup`` exits with what cli.main returns
        monkeypatch.setattr(sys, "argv", ["icmup", "unary", "add", "2", "3"])
        with pytest.raises(SystemExit) as caught:
            runpy.run_module("icmup", run_name="__main__")
        assert caught.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == "result=5 transfers=3"

    # each operand is past the cap; a refusal that builds or computes the
    # whole answer first takes far longer than the timeout
    @pytest.mark.parametrize("args", [
        ("fact", "2000000"),
        ("pow", "2", "1000000000"),
        ("pow", "1", "2000000"),
    ])
    def test_unary_over_the_cap_is_refused_at_once(self, args):
        src = os.path.dirname(os.path.dirname(icmup.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-m", "icmup", "unary", *args],
                             capture_output=True, text=True, timeout=2,
                             env={**os.environ, "PYTHONPATH": path})
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr.startswith("TooLarge")

    # a million steps print two lines; the trace is made only when read, so
    # an untraced run costs its arithmetic
    @pytest.mark.parametrize("args, first, marks", [
        (("mul", "1", "1000000"), "result=1000000 add_iterations=1000000", 10 ** 6),
        (("pow", "1000000", "1"), "result=1000000 multiply_iterations=1", 10 ** 6),
        (("pow", "1", "1000000"), "result=1 multiply_iterations=1000000", 1),
        (("div", "1000000", "1"),
         "quotient=1000000 remainder=0 subtract_iterations=1000000", 10 ** 6),
    ])
    def test_unary_million_steps_untraced_within_a_second(self, capsys, args,
                                                          first, marks):
        start = time.perf_counter()
        code, stdout, err = run(capsys, "unary", *args)
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        assert stdout == f"{first}\nunary={'/' * marks}\n"
        assert elapsed < 1.0

    def test_unary_negative_exponent_exits_2(self, capsys):
        code, stdout, err = run(capsys, "unary", "pow", "2", "-1")
        assert (code, stdout) == (2, "")
        assert err == "error: unary numbers are naturals\n"

    def test_unary_sum(self, capsys):
        code, stdout, _ = run(capsys, "unary", "sum", "--lo", "1", "--hi", "5",
                              "--terms", "1,2,3,4,5")
        assert code == 0
        assert stdout.splitlines()[0] == "result=15 iterations=5"

    @pytest.mark.parametrize("op, hi, terms, given", [
        ("sum", "2", "1,2,3,4", 4),  # too many: the extra values were dropped
        ("prod", "4", "1,2", 2),     # too few
    ])
    def test_unary_terms_must_fill_the_range(self, capsys, op, hi, terms, given):
        code, stdout, err = run(capsys, "unary", op, "--lo", "1", "--hi", hi,
                                "--terms", terms)
        assert code == 2
        assert stdout == ""
        assert err == f"error: --terms has {given} values for the {hi} indices 1..{hi}\n"

    def test_unary_empty_range(self, capsys):
        code, _, err = run(capsys, "unary", "sum", "--lo", "3", "--hi", "2",
                           "--terms", "1")
        assert code == 2
        assert err == "error: empty index range 3..2\n"

    def test_peano(self, capsys):
        assert run(capsys, "peano", "3")[1] == "S(S(S(0)))\n"
        code, stdout, _ = run(capsys, "peano", "2", "3")
        assert stdout.splitlines()[-1] == "shared_depth=2"

    def test_peano_over_the_cap_exits_3(self, capsys):
        code, stdout, err = run(capsys, "peano", "1000001")
        assert (code, stdout) == (3, "")
        assert err == "TooLarge: successor depth 1000001 exceeds cap 1000000\n"

    def test_peano_second_numeral_over_the_cap_prints_nothing(self, capsys):
        # the first numeral is valid, but no line is printed before the
        # second one is known to be
        code, stdout, err = run(capsys, "peano", "2", "1000001")
        assert (code, stdout) == (3, "")
        assert err == "TooLarge: successor depth 1000001 exceeds cap 1000000\n"

    def test_base(self, capsys):
        code, stdout, _ = run(capsys, "base", "17", "10")
        assert code == 0
        assert stdout.startswith("digits=17 unary_symbols=17 "
                                 "positional_symbols=2")
        assert run(capsys, "base", "101", "2", "--decode")[1] == "count=5\n"
        # zero takes one positional digit and no unary symbols
        assert run(capsys, "base", "0", "10") == (
            0, "digits=0 unary_symbols=0 positional_symbols=1 ratio=1.000\n", "")
        # a value is read as int() reads it, even past the digits int()
        # converts when all but a few of them are leading zeros
        seventy = "digits=70 unary_symbols=70 positional_symbols=2 ratio=0.029\n"
        assert run(capsys, "base", " 7", "10")[1] == (
            "digits=7 unary_symbols=7 positional_symbols=1 ratio=0.143\n")
        assert run(capsys, "base", "7_0", "10")[1] == seventy
        assert run(capsys, "base", "0" * 5000 + "7_0", "10")[1] == seventy

    def test_newton(self, tmp_path, capsys):
        report = tmp_path / "n.json"
        code, stdout, _ = run(capsys, "newton", "--g", "9.80665", "--tmax",
                              "16", "--report", str(report))
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 18  # 17 rows plus the bit summary
        assert lines[1] == "1\t4.9"
        assert lines[10] == "10\t490.3"
        doc = json.loads(report.read_text())
        assert doc["command"] == "newton"
        assert set(doc["details"]) == {"g", "rows"}
        assert doc["details"]["g"] == 9.80665
        assert doc["details"]["rows"][16] == {"t": 16, "s": 1255.3}
        rep = newton_table(9.80665, 16)
        assert doc["raw_bits"] == rep.table_bits
        assert doc["encoded_bits"] == rep.formula_bits
        assert lines[-1] == (f"formula_bits={format_bits(doc['encoded_bits'])} "
                             f"table_bits={format_bits(doc['raw_bits'])}")

    @pytest.mark.parametrize("g, want, message", [
        ("inf", 2, "g must be finite"),
        ("nan", 2, "g must be finite"),
        ("1e308", 3, "TooLarge: the distance at t=2"),
    ])
    def test_newton_domain(self, tmp_path, capsys, g, want, message):
        report = tmp_path / "n.json"
        code, stdout, err = run(capsys, "newton", "--g", g, "--report", str(report))
        assert (code, stdout) == (want, "")
        assert message in err
        assert not report.exists()

    def test_newton_huge_g(self, capsys):
        code, stdout, _ = run(capsys, "newton", "--g", "1e30")
        lines = stdout.splitlines()
        assert code == 0 and len(lines) == 18
        assert lines[16] == "16\t128000000000000002545231979347968.0"

    def test_hierarchy(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        h.write_text("CLASS mammal : attrs=fur parents= parts=\n"
                     "CLASS cat : attrs= parents=mammal parts=\n")
        code, stdout, _ = run(capsys, "hierarchy", str(h), "--resolve", "cat")
        assert code == 0 and stdout == "cat: fur\n"
        code, stdout, _ = run(capsys, "hierarchy", str(h), "--dl")
        assert code == 0 and "flat_bits=" in stdout
        code, _, err = run(capsys, "hierarchy", str(h))
        assert code == 2

    @pytest.mark.parametrize("argv, want, message", [
        (["--resolve", "cat", "--context", "nope"], 3,
         "UnknownClass: no class named 'nope'\n"),
        (["--resolve", "cat", "--dl", "--alphabet", "1"], 3,
         "DegenerateAlphabet: alphabet of 1 cannot cover 3 distinct symbols\n"),
        (["--context", "cat", "--resolve", "nope"], 3,
         "UnknownClass: no class named 'nope'\n"),
    ], ids=["context", "dl", "resolve"])
    def test_hierarchy_later_part_failing_prints_nothing(self, tmp_path, capsys,
                                                         argv, want, message):
        h = tmp_path / "h.txt"
        h.write_text("CLASS mammal : attrs=fur parents= parts=\n"
                     "CLASS cat : attrs= parents=mammal parts=\n")
        code, stdout, err = run(capsys, "hierarchy", str(h), *argv)
        assert (code, stdout, err) == (want, "", message)

    @pytest.mark.parametrize("edge", ["parents", "parts"])
    def test_hierarchy_deep_chain(self, tmp_path, capsys, edge):
        # c<k> names c<k-1>, listed from the deep end: c1499 first
        n = 1500
        h = tmp_path / "chain.txt"
        h.write_text("".join(f"CLASS c{k} : attrs=a{k} {edge}={'c%d' % (k - 1) if k else ''}\n"
                             for k in reversed(range(n))))
        code, stdout, err = run(capsys, "hierarchy", str(h), "--resolve",
                                f"c{n - 1}", "--context", "c0", "--dl")
        assert (code, err) == (0, "")
        resolved, context, dl = stdout.splitlines()
        if edge == "parents":  # c1499 inherits every attribute; c0 is no part
            assert resolved == f"c{n - 1}: " + " ".join(sorted(f"a{k}" for k in range(n)))
            assert context == "c0: "
        else:  # c0 sits inside every other class
            assert resolved == f"c{n - 1}: a{n - 1}"
            assert context == "c0: " + " ".join(f"c{k}" for k in range(1, n))
        assert dl.startswith(f"alphabet={2 * n} ")

    def test_hierarchy_cycle_names_its_classes(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        h.write_text("CLASS d : parents=a\n"
                     "CLASS a : parents=b\n"
                     "CLASS b : parents=c\n"
                     "CLASS c : parents=a\n")
        code, stdout, err = run(capsys, "hierarchy", str(h), "--dl")
        assert (code, stdout) == (2, "")
        assert err.startswith("error: cycle in parents")
        assert all(f"'{name}'" in err for name in "abc")
        assert "'d'" not in err  # d reaches the cycle but is not on it

    @pytest.mark.parametrize("alphabet", ["0", "1"])
    def test_hierarchy_alphabet_too_small(self, tmp_path, capsys, alphabet):
        h = tmp_path / "h.txt"
        h.write_text("CLASS mammal : attrs=fur parents= parts=\n"
                     "CLASS cat : attrs= parents=mammal parts=\n")
        code, stdout, err = run(capsys, "hierarchy", str(h), "--dl",
                                "--alphabet", alphabet)
        assert code == 3
        assert stdout == ""
        assert err.startswith("DegenerateAlphabet")

    def test_usage_error_exits_2(self, capsys):
        assert main(["compress"]) == 2


# Inputs for the error branches below, written to the working directory.
ERROR_FILES = {
    "toy.grammar": KITTENS_GRAMMAR,
    "xor.circuit": XOR_CIRCUIT,
    "twice-input.circuit": "input a\ninput a\ngate g1 a a\noutput g1\n",
    "twice-gate.circuit": "input a\ngate g1 a a\ngate g1 a a\noutput g1\n",
    "undefined.circuit": "input a\ngate g1 a zz\noutput g1\n",
    "zero.runs.json": '{"runs": [{"symbols": ["a"], "count": 0}]}',
    "no-code.stream.json": ('{"dictionary": [{"code": "", "symbols": ["a", "b"],'
                            ' "count": 2}], "stream": [{"lit": "a"}]}'),
    "array-code.stream.json": '{"dictionary": [], "stream": [{"code": ["x"]}]}',
    "object-code.stream.json": '{"dictionary": [], "stream": [{"code": {"w1": 1}}]}',
    "no-out.tsv": "in:a\tin:b\n1\t1\n",
    "twice-row.tsv": "in:a\tout:b\n1\t0\n1\t1\n",
    "twice.tm": "s0 1 -> s0 R\ns0 1 -> s1 L\n",
    "succ.tm": SUCCESSOR_TM,
    "corpus.txt": "a b a b c\n",
    "squashed.classes": "CLASSmammal : attrs=fur parents= parts=\n",
}


# Error branches of the readers and the commands, each with its exit code
# and its whole stderr; nothing is printed to stdout.
ERROR_BRANCHES = [
    (["align", "toy.grammar", "--new", " "], 2,
     "error: --new needs at least one symbol\n"),
    (["retrieve", "toy.grammar", "--query", ""], 2,
     "error: --query needs at least one symbol\n"),
    (["circuit", "xor.circuit"], 2, "error: need --in name=value,... or --compile\n"),
    (["circuit", "xor.circuit", "--in", "a1"], 2, "error: bad assignment 'a1'\n"),
    (["circuit", "twice-input.circuit", "--compile"], 2,
     "error: duplicate input terminal name 'a'\n"),
    (["circuit", "twice-gate.circuit", "--compile"], 2,
     "error: duplicate name 'g1'\n"),
    (["circuit", "undefined.circuit", "--compile"], 2,
     "error: gate 'g1' uses undefined source 'zz'\n"),
    (["decompress", "zero.runs.json", "--out", "back.txt"], 2,
     "error: malformed runs file: run count must be >= 1\n"),
    (["decompress", "no-code.stream.json", "--out", "back.txt"], 2,
     "error: malformed stream file: pattern id must be non-empty\n"),
    # a code is a string, as a dictionary entry's is
    (["decompress", "array-code.stream.json", "--out", "back.txt"], 2,
     "error: malformed stream file: stream token code ['x'] must be a string\n"),
    (["decompress", "object-code.stream.json", "--out", "back.txt"], 2,
     "error: malformed stream file: stream token code {'w1': 1} must be a string\n"),
    (["hierarchy", "squashed.classes", "--dl"], 2,
     "error: line 1: expected 'CLASS', got 'CLASSmammal'\n"),
    (["table", "no-out.tsv", "--in", "1,1"], 2,
     "error: table needs at least one in: and one out: column\n"),
    (["table", "twice-row.tsv", "--in", "1"], 2,
     "error: table 'twice-row.tsv': duplicate input row ('1',)\n"),
    (["tm", "twice.tm", "--tape", "1", "--state", "s0"], 2,
     "error: duplicate transition for ('s0', 1)\n"),
    (["tm", "succ.tm", "--tape", "1", "--state", "s0", "--max-steps", "-1"], 2,
     "error: --max-steps must be >= 0\n"),
    # an option below its least value is named as the user typed it
    (["retrieve", "toy.grammar", "--query", "k", "--top", "0"], 2,
     "error: --top must be >= 1\n"),
    (["align", "toy.grammar", "--new", "k", "--beam", "0"], 2,
     "error: --beam must be >= 1\n"),
    (["parse", "toy.grammar", "--new", "k", "--beam", "0"], 2,
     "error: --beam must be >= 1\n"),
    (["parse", "toy.grammar", "--new", "k", "--max-rows", "-1"], 2,
     "error: --max-rows must be >= 0\n"),
    (["compress", "corpus.txt", "--min-len", "1", "--out", "back.txt"], 2,
     "error: --min-len must be >= 2\n"),
    (["compress", "corpus.txt", "--min-count", "1", "--out", "back.txt"], 2,
     "error: --min-count must be >= 2\n"),
    (["newton", "--tmax", "-1"], 2, "error: --tmax must be >= 0\n"),
    (["peano", "-1"], 2, "error: n must be >= 0\n"),
    (["peano", "2", "-3"], 2, "error: m must be >= 0\n"),
    # a value that is not an integer is named by its flag and its place
    (["unary", "sum", "--lo", "1", "--hi", "2", "--terms", "1,x"], 2,
     "error: --terms value 2 is not an integer: 'x'\n"),
    (["unary", "prod", "--lo", "1", "--hi", "1", "--terms", "1.5"], 2,
     "error: --terms value 1 is not an integer: '1.5'\n"),
    (["base", "17", "1"], 2, "error: base must be in 2..36\n"),
    (["base", "1", "40", "--decode"], 2, "error: base must be in 2..36\n"),
    (["unary", "fact", "-1"], 2, "error: factorial needs a natural number\n"),
    (["base", "ZZZZZ", "36", "--decode"], 3, "TooLarge: value exceeds cap 1000000\n"),
    # a value int() cannot read is named, and one too long for int() to
    # convert is past the cap
    (["base", "x", "2"], 2, "error: value is not an integer: 'x'\n"),
    (["base", "5.5", "2"], 2, "error: value is not an integer: '5.5'\n"),
    (["base", "9" * 5000, "2"], 3,
     "TooLarge: unary magnitude of 5000 digits exceeds cap 1000000\n"),
    (["base", "-" + "9" * 5000, "2"], 2, "error: unary numbers are naturals\n"),
]


@pytest.mark.parametrize("argv, code, err", ERROR_BRANCHES,
                         ids=[" ".join(argv).strip()[:60] for argv, _, _ in ERROR_BRANCHES])
def test_error_branches(tmp_path, capsys, monkeypatch, argv, code, err):
    monkeypatch.chdir(tmp_path)
    for name, text in ERROR_FILES.items():
        Path(name).write_text(text)
    assert run(capsys, *argv) == (code, "", err)
    assert not Path("back.txt").exists()


class TestParserReuse:
    def test_repeated_calls_match_fresh_calls(self, tmp_path, capsys,
                                              grammar_file):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b a b x\n")
        argvs = [
            ["compress", str(corpus), "--out", str(tmp_path / "s.json")],
            ["decompress", str(tmp_path / "s.json"), "--out",
             str(tmp_path / "d.txt")],
            ["compress", str(corpus), "--mode", "rle", "--out",
             str(tmp_path / "r.json")],
            ["retrieve", grammar_file, "--query", "k i t t e n", "--top", "2"],
            ["sets", "union", "a b", "b c"],
            ["compress", str(corpus), "--mode", "nope", "--out", "x"],
            ["unary", "add", "2", "3"],
            ["compress"],
            ["peano", "2", "3"],
            ["nosuch"],
            [],
        ]
        cli._parser.cache_clear()
        shared = [run(capsys, *argv) for argv in argvs]
        # one build per distinct command, and one of the full parser, which
        # a bad command and no arguments share
        assert cli._parser.cache_info().misses == 7
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 2]
        assert "invalid choice" in shared[5][2]
        assert "invalid choice: 'nosuch'" in shared[9][2]


def _subparsers(parser):
    """Each subcommand's parser, nested subcommands as 'a b'."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out[name] = sub
                out.update({f"{name} {k}": v for k, v in _subparsers(sub).items()})
    return out


def _option_strings(parser):
    """Each subcommand's option strings but for help, nested subcommands
    as 'a b'."""
    return {name: sorted(o for a in sub._actions
                         if not isinstance(a, argparse._HelpAction)
                         for o in a.option_strings)
            for name, sub in _subparsers(parser).items()}


def test_option_strings_pinned():
    # shared declarations may neither add nor drop an option anywhere;
    # --report in particular stays on exactly compress, align and newton
    unary_binary = ["--trace"]
    unary_range = ["--hi", "--lo", "--terms", "--trace"]
    assert _option_strings(cli.build_parser()) == {
        "compress": ["--chars", "--min-count", "--min-len", "--mode", "--out",
                     "--report"],
        "decompress": ["--chars", "--out"],
        "align": ["--beam", "--chars", "--max-rows", "--new", "--report",
                  "--top"],
        "parse": ["--beam", "--chars", "--max-rows", "--new"],
        "retrieve": ["--chars", "--query", "--top"],
        "table": ["--diag", "--in"],
        "circuit": ["--compile", "--in"],
        "tm": ["--head", "--max-steps", "--state", "--tape"],
        "sets": [],
        "unary": [],
        **{f"unary {op}": unary_binary
           for op in ("add", "sub", "mul", "div", "pow", "fact")},
        "unary sum": unary_range,
        "unary prod": unary_range,
        "peano": [],
        "base": ["--decode"],
        "newton": ["--g", "--report", "--tmax"],
        "hierarchy": ["--alphabet", "--context", "--dl", "--resolve"],
    }


# the fewest arguments each command parses
MINIMAL_ARGS = {
    "compress": ["c.txt", "--out", "o.json"],
    "decompress": ["s.json", "--out", "o.txt"],
    "align": ["g.txt", "--new", "a"],
    "parse": ["g.txt", "--new", "a"],
    "retrieve": ["g.txt", "--query", "a"],
    "table": ["t.tsv", "--in", "1"],
    "circuit": ["c.txt"],
    "tm": ["m.txt", "--tape", "0", "--state", "s0"],
    "sets": ["toset", "a"],
    "unary": ["add", "1", "2"],
    "peano": ["1"],
    "base": ["1", "2"],
    "newton": [],
    "hierarchy": ["h.txt"],
}


def _parse_error(parser, argv, capsys):
    with pytest.raises(SystemExit) as caught:
        parser.parse_args(argv)
    return caught.value.code, capsys.readouterr()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_prints_what_the_full_one_does(name, capsys):
    full, one = cli.build_parser(), cli.build_parser((name,))
    assert one.format_usage() == full.format_usage()
    full_subs, one_subs = _subparsers(full), _subparsers(one)
    assert set(one_subs) == {k for k in full_subs if k.split()[0] == name}
    for key, sub in one_subs.items():
        assert sub.format_help() == full_subs[key].format_help()
        assert sub.format_usage() == full_subs[key].format_usage()
    # argparse reports an unrecognized argument with the top-level usage,
    # and a missing or bad one with the command's
    for argv in ([name, *MINIMAL_ARGS[name], "--bogus"], [name, "--bogus"]):
        want = _parse_error(full, argv, capsys)
        assert want[0] == 2
        assert _parse_error(one, argv, capsys) == want
        assert main(argv) == 2
        assert capsys.readouterr() == want[1]


def test_full_parser_lists_every_command(capsys):
    full = cli.build_parser()
    assert [k for k in _subparsers(full) if " " not in k] == list(cli.COMMANDS)
    assert main(["--help"]) == 0
    listed = capsys.readouterr().out
    assert "{" + ",".join(cli.COMMANDS) + "}" in listed
    assert all(f"    {name} " in listed for name in cli.COMMANDS)
    assert main(["nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: icmup [-h]")
    assert "{compress,decompress," in err
    assert "error: argument command: invalid choice: 'nosuch'" in err


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_row_names_the_module_of_its_command(name):
    module = cli.COMMANDS[name][0]
    assert isinstance(module, str)
    assert callable(getattr(importlib.import_module(f"icmup.{module}"), f"cmd_{name}"))


# Runs cli.main on its arguments, if any, and prints the icmup modules loaded.
LOADED_BY_MAIN = """\
import contextlib, io, json, sys
import icmup.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert icmup.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "icmup")))
"""

# What `import icmup.cli` loads.  The codecs and the alignment engine stay
# eager: perfbench's tracer wraps only the icmup modules already imported
# when it is made, right after `import icmup.cli`, so a layer loaded later
# would go untraced and read as absent.
CLI_MODULES = ["icmup", "icmup.alignment", "icmup.cli", "icmup.codecs",
               "icmup.errors", "icmup.kernels", "icmup.patterns", "icmup.reporting"]


@pytest.mark.parametrize("argv, more", [
    ([], []),
    (["compress", "{corpus}", "--out", "{stream}"], []),
    (["align", "{grammar}", "--new", KITTENS_SENTENCE], []),
    (["table", "{table}", "--in", "1,0"], ["icmup.machines"]),
    (["unary", "add", "2", "3"], ["icmup.setnum"]),
    (["hierarchy", "{hierarchy}", "--dl"], ["icmup.hierarchy"]),
], ids=["import", "compress", "align", "table", "unary", "hierarchy"])
def test_each_command_loads_only_its_modules(tmp_path, argv, more):
    files = {"corpus": "a b a b c\n", "grammar": KITTENS_GRAMMAR, "table": ADDER_TSV,
             "hierarchy": "CLASS mammal : attrs=fur parents= parts=\n"
                          "CLASS cat : attrs= parents=mammal parts=\n"}
    paths = {name: tmp_path / name for name in [*files, "stream"]}
    for name, text in files.items():
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    loaded = json.loads(fresh_python("-c", LOADED_BY_MAIN, *argv))
    assert loaded == sorted(CLI_MODULES + more)


def test_cli_import_needs_no_numpy_or_numba():
    code = "import sys, icmup.cli; print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    assert fresh_python("-c", code).strip() == "[]"
    # -S keeps site's own imports out; only a written report needs hashlib,
    # and no record is a dataclass, whose module loads inspect and ast
    code = ("import sys, icmup.cli; "
            "print(sorted({'hashlib', 'dataclasses', 'inspect'} & set(sys.modules)))")
    assert fresh_python("-S", "-c", code).strip() == "[]"
    # bits are rounded on integers, JSON is loaded only where it is read or
    # written, and the ABCs come from collections.abc
    code = ("import sys, icmup.cli; "
            "print(sorted({'decimal', 'numbers', 'json', 'typing'} & set(sys.modules)))")
    assert fresh_python("-S", "-c", code).strip() == "[]"


# Runs cli.main on its arguments and prints which of the watched standard
# library modules are loaded.  It imports nothing it watches, json included.
STDLIB_LOADED_BY_MAIN = """\
import contextlib, io, sys
import icmup.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert icmup.cli.main(sys.argv[1:]) == 0
watched = {"decimal", "numbers", "json", "typing", "hashlib", "dataclasses", "inspect"}
print(" ".join(sorted(watched & set(sys.modules))))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["align", "{grammar}", "--new", KITTENS_SENTENCE], ""),
    (["retrieve", "{grammar}", "--query", "k i t t e n"], ""),
    (["parse", "{grammar}", "--new", KITTENS_SENTENCE], ""),
    (["compress", "{corpus}", "--out", "{out}"], "json"),
    (["decompress", "{stream}", "--out", "{out}"], "json"),
    (["align", "{grammar}", "--new", KITTENS_SENTENCE, "--report", "{out}"],
     "hashlib json"),
    (["unary", "add", "2", "3"], ""),
    (["table", "{adder}", "--in", "1,0"], ""),
    (["hierarchy", "{hierarchy}", "--dl"], ""),
], ids=["align", "retrieve", "parse", "compress", "decompress", "align-report",
        "unary", "table", "hierarchy"])
def test_each_command_loads_only_its_standard_library(tmp_path, argv, loaded):
    files = {"corpus": "a b a b c\n", "grammar": KITTENS_GRAMMAR,
             "stream": '{"dictionary": [], "stream": [{"lit": "a"}]}',
             "adder": ADDER_TSV,
             "hierarchy": "CLASS mammal : attrs=fur parents= parts=\n"
                          "CLASS cat : attrs= parents=mammal parts=\n"}
    paths = {name: tmp_path / name for name in [*files, "out"]}
    for name, text in files.items():
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    # -S keeps site's own imports out: on some installs they load typing
    assert fresh_python("-S", "-c", STDLIB_LOADED_BY_MAIN, *argv).strip() == loaded
