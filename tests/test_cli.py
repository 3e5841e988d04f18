import gc
import io
import subprocess
import sys
from pathlib import Path

import pytest

from ddnnf import count_total, parse_c2d, preprocess, validate
from ddnnf.cli import build_parser, main

from conftest import UNSMOOTH_PAIR_C2D, RUNNING_EXAMPLE_C2D, RUNNING_EXAMPLE_D4, fixture_texts
from helpers import c2d_to_d4, random_c2d_text

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture()
def running_c2d_file(tmp_path):
    path = tmp_path / "example.nnf"
    path.write_text(RUNNING_EXAMPLE_C2D)
    return path


@pytest.fixture()
def running_d4_file(tmp_path):
    path = tmp_path / "example.d4"
    path.write_text(RUNNING_EXAMPLE_D4)
    return path


def test_count_mode(running_c2d_file, capsys):
    assert main([str(running_c2d_file)]) == 0
    assert capsys.readouterr().out == "4\n"


def test_count_d4(running_d4_file, capsys):
    assert main([str(running_d4_file), "--num-variables", "4"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_feature_mode(running_c2d_file, capsys):
    assert main([str(running_c2d_file), "--feature", "2"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_config_mode(running_c2d_file, capsys):
    assert main([str(running_c2d_file), "--config", "4 -3"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_all_features_stdout(running_c2d_file, capsys):
    assert main([str(running_c2d_file), "--all-features"]) == 0
    assert capsys.readouterr().out == (
        "feature,cardinality\n1,4\n2,2\n3,2\n4,2\n"
    )


def test_all_features_csv(running_c2d_file, tmp_path, capsys):
    out = tmp_path / "cards.csv"
    assert main([str(running_c2d_file), "--all-features", "--csv", str(out)]) == 0
    assert out.read_text() == "feature,cardinality\n1,4\n2,2\n3,2\n4,2\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", [["--stream"], ["--save-smoothed", "smooth.nnf"]])
def test_csv_with_stream_or_save_smoothed_is_usage_error(
    running_c2d_file, tmp_path, capsys, monkeypatch, mode
):
    # neither mode writes its results through --csv, so the pairing is refused
    # before the circuit is read, and no file is created
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    assert main([str(running_c2d_file), *mode, "--csv", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --csv: not allowed with argument {mode[0]}" in captured.err
    assert list(tmp_path.iterdir()) == [running_c2d_file]


def test_queries_file(running_c2d_file, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("count\ncount v 2\ncount v 4 -3\ncount v 2 -2\nbogus\n")
    assert main([str(running_c2d_file), "--queries", str(queries)]) == 0
    assert capsys.readouterr().out == "4\n2\n1\n0\nerror unknown-command\n"


def test_validate_mode_clean(running_c2d_file, capsys):
    assert main([str(running_c2d_file), "--validate"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_mode_findings(tmp_path, capsys):
    path = tmp_path / "unsmooth.nnf"
    path.write_text(UNSMOOTH_PAIR_C2D)
    assert main([str(path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "smoothness" in out and "info" in out


def test_save_smoothed(tmp_path, capsys):
    src = tmp_path / "unsmooth.nnf"
    src.write_text(UNSMOOTH_PAIR_C2D)
    dst = tmp_path / "smooth.nnf"
    assert main([str(src), "--save-smoothed", str(dst)]) == 0
    reparsed = parse_c2d(dst.read_text())
    assert [v for v in validate(reparsed) if v.kind == "smoothness"] == []
    assert count_total(preprocess(reparsed)) == 4


def test_variant_matrix_golden(tmp_path, capsys):
    # the running example's matrix, then a random n = 12 circuit's, each
    # starting with its own header line
    out = b""
    for name, text in (("running", RUNNING_EXAMPLE_C2D), ("rand12", random_c2d_text(350, 12))):
        path = tmp_path / f"{name}.nnf"
        path.write_text(text)
        csv = tmp_path / f"{name}.csv"
        code = main([
            str(path), "--variant-matrix", "--csv", str(csv),
            "--chunk-sizes", "2", "--per-chunk", "3", "--seed", "5",
        ])
        assert code == 0
        assert capsys.readouterr().err == "all-equal: true\n"
        out += csv.read_bytes()
    assert out == (DATA / "variant_matrix_golden.csv").read_bytes()


def all_features_cases():
    """(name, format, text, num_variables or None): the conftest fixtures,
    then one generator circuit with omitted variables and its d4 twin."""
    cases = [(name, *spec) for name, spec in fixture_texts().items()]
    text = random_c2d_text(11, 60, omit=3)
    cases += [("gen_s11_n60", "c2d", text, None), ("gen_s11_n60_d4", "d4", c2d_to_d4(text), 60)]
    return cases


def test_all_features_golden(tmp_path, capsys):
    # stdout of --all-features on every case, each after a "== name ==" line
    out = ""
    for name, fmt, text, n in all_features_cases():
        path = tmp_path / f"{name}.{fmt}"
        path.write_text(text)
        extra = [] if n is None else ["--num-variables", str(n)]
        assert main([str(path), "--all-features", *extra]) == 0, name
        out += f"== {name} ==\n" + capsys.readouterr().out
    assert out.encode() == (DATA / "all_features_golden.txt").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--threads", "4"],
        ["--no-partial-traversal"],
        ["--no-partial-calculation"],
        ["--no-core-dead"],
        ["--no-reuse-subtrees"],
        ["--recursive"],
        ["--or-folding"],
        ["--bypass-fraction", "1.0"],
        ["--format", "c2d"],
    ],
    ids=lambda flags: flags[0],
)
def test_removed_speed_flags_are_usage_errors(running_c2d_file, capsys, flags):
    # the engine picks its rungs; only --variant-matrix switches them off.
    # The format is read from the header, so --format is gone too.
    assert main([str(running_c2d_file), "--feature", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flags)}" in captured.err


def test_every_option_is_expected_and_documented():
    options = sorted(
        opt
        for action in build_parser()._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    )
    assert options == sorted([
        "--num-variables",
        "--count", "--feature", "--config", "--all-features", "--queries",
        "--stream", "--save-smoothed", "--validate", "--variant-matrix",
        "--csv", "--seed", "--chunk-sizes", "--per-chunk",
    ])
    readme = README.read_text(encoding="utf-8")
    assert [opt for opt in options if opt not in readme] == []


def test_non_utf8_input_is_parse_error(tmp_path, running_c2d_file, capsys):
    bad = tmp_path / "bad.nnf"
    bad.write_bytes(b"nnf 1 0 1\nL 1 # \xff\n")
    assert main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2:") and "0xff" in err
    queries = tmp_path / "queries.txt"
    queries.write_bytes(b"count\ncount v \xff\n")
    assert main([str(running_c2d_file), "--queries", str(queries)]) == 1
    assert capsys.readouterr().err.startswith("parse error: line 2:")


def test_queries_file_ends_at_exit(running_c2d_file, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("count\nexit\ncount v 2\n")
    assert main([str(running_c2d_file), "--queries", str(queries)]) == 0
    assert capsys.readouterr().out == "4\nbye\n"


def test_queries_file_newlines(running_c2d_file, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_bytes(b"count\r\ncount v 2\rinfo\n\ncore")
    assert main([str(running_c2d_file), "--queries", str(queries)]) == 0
    assert capsys.readouterr().out == (
        "4\n2\nnodes=12 vars=4 count=4\nerror unknown-command\n1\n"
    )


def test_exit_code_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.nnf"
    empty.write_text("")
    assert main([str(empty)]) == 1
    assert "line" in capsys.readouterr().err


def test_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.nnf"
    bad.write_text("nnf 2 1 1\nL 1\nA 2 0 5\n")
    assert main([str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_exit_code_bad_options(running_d4_file, capsys):
    # d4 without a variable count is unusable
    assert main([str(running_d4_file)]) == 2
    capsys.readouterr()
    assert main([str(running_d4_file), "--no-such-flag"]) == 2
    assert main([str(running_d4_file), "--num-variables", "4", "--feature", "99"]) == 2
    assert main([str(running_d4_file), "--num-variables", "4", "--config", "0"]) == 2
    assert main([str(running_d4_file), "--num-variables", "4", "--config", "x"]) == 2


def test_exit_code_io_failure(tmp_path, capsys):
    assert main([str(tmp_path / "missing.nnf")]) == 3


def test_module_entry_point(running_c2d_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ddnnf", str(running_c2d_file), "--count"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_importing_cli_leaves_the_oracle_unloaded():
    # only --variant-matrix uses ddnnf.oracle, so no other mode pays to import it
    code = "import sys, ddnnf.cli; print('ddnnf.oracle' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_collector_off_for_setup_and_on_for_session_lines(
    running_c2d_file, monkeypatch, capsys
):
    from ddnnf import cli

    seen = []
    monkeypatch.setattr(
        cli, "preprocess", lambda d: seen.append(("set-up", gc.isenabled())) or preprocess(d)
    )
    handle = cli.StreamSession.handle
    monkeypatch.setattr(
        cli.StreamSession, "handle",
        lambda self, line: seen.append(("line", gc.isenabled())) or handle(self, line),
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO("count v 2\nexit\n"))
    assert gc.isenabled()
    assert main([str(running_c2d_file), "--stream"]) == 0
    assert capsys.readouterr().out == "2\nbye\n"
    assert seen == [("set-up", False), ("line", True), ("line", True)]
    assert gc.isenabled()
    # a one-shot mode runs with it off throughout, and main restores what it found
    seen.clear()
    assert main([str(running_c2d_file), "--count"]) == 0
    assert seen == [("set-up", False)] and gc.isenabled()
    gc.disable()
    try:
        assert main([str(running_c2d_file), "--count"]) == 0
        assert main([str(running_c2d_file), "--stream"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reader_graph_linked_only_for_the_partial_rung(
    tmp_path, reader_links, monkeypatch, capsys
):
    # one-shot modes that never take the partial rung leave the graph
    # unlinked; --feature and a short --config link it once each
    from ddnnf import cli, engine

    path = tmp_path / "rand12.nnf"
    path.write_text(fixture_texts()["rand_n12a"][1])
    d = preprocess(parse_c2d(path.read_text()))
    v = min(set(range(1, d.num_variables + 1)) - d.core - d.dead - d.omitted)
    for mode in (["--count"], ["--all-features"], ["--save-smoothed", str(tmp_path / "s.nnf")]):
        assert main([str(path), *mode]) == 0
    assert reader_links == []
    for mode in (["--feature", str(v)], ["--config", str(-v)]):
        assert main([str(path), *mode]) == 0
    assert len(reader_links) == 2
    # a session links it in set-up, with the collector off, before its
    # first line, so that line does not pay for it
    reader_links.clear()
    collecting, seen = [], []
    link = engine._link_readers
    monkeypatch.setattr(
        engine, "_link_readers", lambda d: collecting.append(gc.isenabled()) or link(d)
    )
    handle = cli.StreamSession.handle
    monkeypatch.setattr(
        cli.StreamSession, "handle",
        lambda self, line: seen.append(len(reader_links)) or handle(self, line),
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"count v {-v}\nexit\n"))
    capsys.readouterr()
    assert main([str(path), "--stream"]) == 0
    assert capsys.readouterr().out.endswith("\nbye\n")
    assert seen == [1, 1] and collecting == [False]


def test_prints_counts_beyond_int_str_guard(tmp_path):
    # 2**15000 has 4516 digits, more than CPython's default str() limit
    from helpers import gadget_chain_c2d

    path = tmp_path / "wide.nnf"
    path.write_text(gadget_chain_c2d(15000))
    proc = subprocess.run(
        [sys.executable, "-m", "ddnnf", str(path), "--count"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip()) == 4516


@pytest.mark.parametrize(
    "args, option",
    [
        (["--variant-matrix", "--chunk-sizes", "-3"], "--chunk-sizes"),
        (["--variant-matrix", "--chunk-sizes", "2,0"], "--chunk-sizes"),
        (["--variant-matrix", "--per-chunk", "-1"], "--per-chunk"),
        (["--variant-matrix", "--chunk-sizes", "2,x"], "--chunk-sizes"),
        (["--variant-matrix", "--per-chunk", "x"], "--per-chunk"),
        (["--num-variables", "x"], "--num-variables"),
        (["--config", "1 x"], "--config"),
        (["--config", ""], "--config"),
    ],
)
def test_variant_matrix_sizes_below_range(running_c2d_file, capsys, args, option):
    # each option's converter rejects its value before the circuit is read
    assert main([str(running_c2d_file), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


def test_negative_num_variables_is_usage_error(running_c2d_file, running_d4_file, capsys):
    for path in (running_c2d_file, running_d4_file):
        assert main([str(path), "--num-variables", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--num-variables" in captured.err
