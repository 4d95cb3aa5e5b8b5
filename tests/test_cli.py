import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from rauzyadic import sadic
from rauzyadic.cli import main
from rauzyadic.errors import MalformedDirective, RauzyadicError
from rauzyadic.morphism import Morphism, compose, parse_rules
from rauzyadic.words import FactorOracle

ROOT = Path(__file__).resolve().parents[1]
DW = ROOT / "directives"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_fibonacci(capsys):
    code, out, _ = run(["generate", str(DW / "fibonacci.dw"), "--length", "8"], capsys)
    assert code == 0 and out.strip() == "01001010"


def test_generate_unsettled_prefix_refused_within_memory_cap(tmp_path):
    # the images of 0 double per level and never settle; the refusal comes
    # long before they fill a 1 GB address space
    f = tmp_path / "alternating.dw"
    f.write_text("period:\n[10,01]\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run([sys.executable, "-m", "rauzyadic.cli", "generate", str(f),
                          "--length", "1000"], capture_output=True, text=True,
                         preexec_fn=cap, timeout=300)
    assert out.returncode == 3 and "error: NoStabilization" in out.stderr


def test_generate_prefix_that_never_settles_is_refused_within_memory_cap(tmp_path):
    # the images of 0 begin with 1, 0, 0 in turn, so consecutive levels meet
    # on first letters, but the images they begin with never agree on 1000
    # letters; without the refusal the levels run out of memory
    f = tmp_path / "unsettled.dw"
    f.write_text("preperiod:\n[0,1,0]\n[0,2,1]\nperiod:\n[20,0,1]\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run([sys.executable, "-m", "rauzyadic.cli", "generate", str(f),
                          "--length", "1000"], capture_output=True, text=True,
                         preexec_fn=cap, timeout=300)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("error: NoStabilization: no prefix of length 1000 settles")


def test_validate_out_of_memory_is_a_typed_refusal(tmp_path):
    # the exit-gate prefixes of this weakly primitive C4 directive outgrow an
    # 800 MB address space; exit 1 would read as "invalid"
    f = tmp_path / "c4.dw"
    f.write_text("period:\n[01,2,02]\n[12220,22220,2220]\n[0221,21,021]\n[0,110,10]\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))

    out = subprocess.run([sys.executable, "-m", "rauzyadic.cli", "validate", str(f)],
                         capture_output=True, text=True, preexec_fn=cap, timeout=300)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr == "error: OutOfMemory: validate ran out of memory\n"


def test_a_level_of_1500_peels_gets_an_answer(tmp_path, capsys):
    # decomposing the level takes 1500 peels D10, more than Python's default
    # recursion limit; exit 1 would read as "invalid"
    long = "1" + "0" * 1500
    code, out, err = run(["decompose", f"0->0;1->{long}"], capsys)
    assert code == 0 and out.split().count("D") == 1500 and err == ""
    f = tmp_path / "long.dw"
    f.write_text(f"period:\n[0,{long}]\n")
    code, out, err = run(["validate", str(f)], capsys)
    assert code == 1 and err == ""
    assert out == ("status: invalid\nclause: weak primitivity fails at level 0 (occurrence "
                   "products never become positive)\n")


def test_complexity_csv(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    code, _, _ = run(["complexity", "--source", "fibonacci", "--horizon", "16",
                      "--upto", "10", "--csv", str(csv)], capsys)
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,p,s"
    assert lines[1] == "0,1,1" and lines[3] == "2,3,1"


def test_graph_dot_matches_figure(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, out, _ = run(["graph", "--source", "fibonacci", "--order", "2",
                        "--horizon", "16", "--dot", str(dot)], capsys)
    assert code == 0 and "type 1" in out
    text = dot.read_text()
    for lbl in ("001", "010", "100", "101"):
        assert f'label="{lbl}"' in text
    assert text.count("->") == 4


def test_graph_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    run(["graph", "--source", "tribonacci", "--order", "3", "--horizon", "16",
         "--dot", str(a)], capsys)
    run(["graph", "--source", "tribonacci", "--order", "3", "--horizon", "16",
         "--dot", str(b)], capsys)
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("args, name", [
    (["--source", "tribonacci", "--horizon", "40"], "tribonacci-12"),
    (["--directive-file", str(DW / "c4_osc.dw"), "--horizon", "48"], "c4_osc-12"),
    (["--prefix-file", str(ROOT / "tests" / "data" / "fibonacci-3000.txt")],
     "fibonacci-prefix-12"),
])
def test_graph_dot_files_match_the_recorded_ones(tmp_path, capsys, args, name):
    # both files as written when the command still condensed the built
    # order-n graph, and for the Fibonacci prefix while an explicit prefix
    # still gave its factor sets length by length; order 12 is a gap order
    # of tribonacci and a bispecial order of the C4 oscillation
    dot = tmp_path / "g.dot"
    code, _, _ = run(["graph", *args, "--order", "12", "--dot", str(dot)], capsys)
    assert code == 0
    data = ROOT / "tests" / "data"
    assert dot.read_bytes() == (data / f"{name}.dot").read_bytes()
    assert (tmp_path / "g.reduced.dot").read_bytes() == (data / f"{name}.reduced.dot").read_bytes()


def test_circuits_command(capsys):
    code, out, _ = run(["circuits", "--source", "fibonacci", "--horizon", "16",
                        "--order", "1", "--vertex", "0"], capsys)
    assert code == 0
    labels = {line.split()[0] for line in out.strip().splitlines()}
    assert labels == {"0", "10"}


@pytest.mark.parametrize("vertex", ["11", "0101", "0"])
def test_circuits_refuse_a_vertex_that_is_not_a_factor_of_the_order(capsys, vertex):
    # '11' is not a Fibonacci factor, '0101' and '0' are not of length 2
    code, out, err = run(["circuits", "--source", "fibonacci", "--order", "2",
                          "--vertex", vertex], capsys)
    assert code == 3 and out == ""
    assert err == (f"error: NotInLanguage: --vertex {vertex!r} is not a factor of length "
                   "--order 2\n")


def test_circuits_of_a_vertex_that_is_not_right_special(tmp_path, capsys):
    # none, also in a periodic language, which has no reduced graph
    f = tmp_path / "periodic.txt"
    f.write_text("01" * 20)
    for args in (["--source", "fibonacci", "--vertex", "00"],
                 ["--prefix-file", str(f), "--horizon", "10", "--vertex", "01"]):
        assert run(["circuits", *args, "--order", "2"], capsys) == (0, "", "")


def test_decompose_command(capsys):
    code, out, _ = run(["decompose", "0->0;1->110;2->10"], capsys)
    assert code == 0
    from judges import compose_generators, parse_generator_word
    assert compose_generators(parse_generator_word(out.strip())).images == ("0", "110", "10")
    code, out, err = run(["decompose", "0->0;0->10;1->1"], capsys)
    assert code == 3 and out == "" and "two rules for letter 0" in err


def test_validate_exit_codes(capsys):
    assert run(["validate", str(DW / "sturmian_alt.dw")], capsys)[0] == 0
    assert run(["validate", str(DW / "ar_cycle.dw")], capsys)[0] == 0
    assert run(["validate", str(DW / "not_valid.dw")], capsys)[0] == 1
    assert run(["validate", str(DW / "ar_cycle.dw"), "--strict2"], capsys)[0] == 0
    assert run(["validate", str(DW / "sturmian_alt.dw"), "--strict2"], capsys)[0] == 1


def test_repeated_calls_match_fresh_processes(capsys):
    # the parser is built once; one call's flags must not reach the next
    calls = [["validate", str(DW / "sturmian_alt.dw"), "--strict2"],
             ["validate", str(DW / "sturmian_alt.dw")]]
    fresh = [subprocess.run([sys.executable, "-m", "rauzyadic.cli", *argv],
                            capture_output=True, text=True) for argv in calls]
    got = [run(argv, capsys) for argv in calls]
    assert [(f.returncode, f.stdout) for f in fresh] == [(c, out) for c, out, _ in got]
    assert [c for c, _, _ in got] == [1, 0]


def test_extract_command(capsys):
    code, out, _ = run(["extract", "--source", "fibonacci", "--horizon", "40",
                        "--upto", "12"], capsys)
    assert code == 0 and "refined-graph path" in out and "C4.1.loop" in out


def test_lengths_command(tmp_path, capsys):
    f = tmp_path / "p.dw"
    f.write_text("preperiod:\n[0,1120,120]\n[1,02,2]\nperiod:\n")
    code, out, _ = run(["lengths", str(f)], capsys)
    assert code == 0 and "p1=" in out


def test_lengths_reads_a_periodic_directive_as_preperiod_and_one_period(capsys):
    # c4_osc has no preperiod and a period of two levels: the state after them
    code, out, _ = run(["lengths", str(DW / "c4_osc.dw")], capsys)
    assert code == 0 and out == "u1=0 u2=0 v1=1 v2=1 K=1 h=0 p1=None p2=None\n"


def test_lengths_refuses_a_prefix_outside_the_loop_regions(tmp_path, capsys):
    # [0,10] [01,1] stays at vertex 1, so no state at 7/8 or 5/6 exists
    f = tmp_path / "p.dw"
    f.write_text("preperiod:\n[0,10]\n[01,1]\nperiod:\n")
    code, out, err = run(["lengths", str(f)], capsys)
    assert code == 3 and out == ""
    assert err == ("error: UnsupportedCase: prefix does not route to the two-loop "
                   "or no-loop region\n")


def test_crosscheck_command(capsys):
    code, out, _ = run(["crosscheck", str(DW / "c4_osc.dw"), "--window", "12"], capsys)
    assert code == 0 and "cycle matched" in out


def test_crosscheck_blames_a_window_too_small_for_a_routing(capsys):
    # the shortest valid routing of c4_osc has 1 + 2 steps; windows 0-5
    # extract at most 2, and a window that extracts 3 aligns
    for window in range(6):
        code, out, err = run(["crosscheck", str(DW / "c4_osc.dw"), "--window", str(window)],
                             capsys)
        assert code == 3 and out == "" and "Mismatch" not in err, window
        assert err.startswith(f"error: HorizonExceeded: window {window} extracts "), window
        assert "fewer than the 3 " in err, window
    code, out, _ = run(["crosscheck", str(DW / "c4_osc.dw"), "--window", "6"], capsys)
    assert code == 0 and "cycle matched" in out


def test_error_exit_code(capsys):
    code, _, _ = run(["complexity", "--horizon", "10"], capsys)
    assert code == 3


@pytest.mark.parametrize("text", ["period:\n[0,10\n", "period:\nx3\n", "period:\n0\n",
                                  "period:\n019\n", "period:\nD01 9\n", "period:\n[01,]\n"])
def test_malformed_directive_is_a_typed_refusal(tmp_path, capsys, text):
    f = tmp_path / "malformed.dw"
    f.write_text(text)
    code, out, err = run(["validate", str(f)], capsys)
    assert code == 3 and out == "" and err.startswith("error: MalformedDirective: line 2: ")


@pytest.mark.parametrize("args", [["validate", "{missing}"],
                                  ["complexity", "--prefix-file", "{missing}"],
                                  ["complexity", "--directive-file", "{missing}"],
                                  ["validate", "{binary}"]])
def test_unreadable_input_is_a_typed_refusal(tmp_path, capsys, args):
    (tmp_path / "binary.dw").write_bytes(b"\xff\xfe")
    argv = [a.format(missing=tmp_path / "missing.dw", binary=tmp_path / "binary.dw") for a in args]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == "" and err.startswith("error: UnreadableInput: cannot read ")


@pytest.mark.parametrize("args, target", [
    (["generate", str(DW / "fibonacci.dw"), "--length", "8", "--out", "{missing}"], "{missing}"),
    (["complexity", "--source", "fibonacci", "--horizon", "16", "--csv", "{missing}"], "{missing}"),
    (["graph", "--source", "fibonacci", "--order", "2", "--horizon", "16", "--dot", "{missing}"],
     "{missing}"),
    # the graph's file is written, the reduced graph's path is a directory
    (["graph", "--source", "fibonacci", "--order", "2", "--horizon", "16", "--dot", "{dot}"],
     "{reduced}")])
def test_unwritable_output_is_a_typed_refusal(tmp_path, capsys, args, target):
    (tmp_path / "g.reduced.dot").mkdir()
    names = {"missing": tmp_path / "no-such-dir" / "out.txt", "dot": tmp_path / "g.dot",
             "reduced": tmp_path / "g.reduced.dot"}
    code, _, err = run([a.format(**names) for a in args], capsys)
    assert code == 3 and err.startswith(f"error: UnwritableOutput: cannot write {target.format(**names)}: ")


@pytest.mark.parametrize("prefix", ["x", "01x0", "0 1", "\u0663"])
def test_prefix_file_letters_outside_the_digits_refused(tmp_path, capsys, prefix):
    f = tmp_path / "prefix.txt"
    f.write_text(prefix)
    code, out, err = run(["complexity", "--prefix-file", str(f), "--horizon", "1"], capsys)
    assert code == 3 and out == "" and err.startswith("error: AlphabetMismatch: prefix letters ")


# the Arabic-Indic three and one: int() reads them as 3 and 1, but a letter
# is an ASCII digit, so each is refused where it enters
NON_ASCII_DIGITS = ["\u0663", "\u0661"]
PERIOD = "preperiod:\nperiod:\n[01,2,{},0]\n"


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS)
def test_a_non_ascii_digit_is_refused_at_every_boundary(tmp_path, capsys, digit):
    plain = Morphism(("01", "2", "3", "0"), 4)
    for call in (lambda: Morphism(("01", "2", digit, "0"), 4),
                 lambda: compose(plain, Morphism((digit, "0", "1", "2"), 4)),
                 lambda: plain("0" + digit),
                 lambda: parse_rules(f"0->01;1->2;2->{digit};3->0"),
                 lambda: FactorOracle.from_prefix("01" + digit + "0", 2)):
        with pytest.raises(RauzyadicError):
            call()
    with pytest.raises(MalformedDirective, match="^line 3: "):
        sadic.parse_directive(PERIOD.format(digit))
    f = tmp_path / "letter.dw"
    f.write_text(PERIOD.format(digit))
    for argv, where in ((["validate", str(f)], "line 3: "),
                        (["generate", str(f), "--length", "20"], "line 3: "),
                        (["complexity", "--directive-file", str(f), "--horizon", "10"], "line 3: "),
                        (["decompose", f"0->0{digit};1->1"], "")):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "") and err.startswith(f"error: MalformedDirective: {where}")


def test_the_two_spellings_of_a_period():
    # [01,2,3,0] has p(n) = 3n+1; spelled with the Arabic-Indic three it is
    # refused where it is parsed, not later as a substitution that is not
    # primitive
    dw = sadic.parse_directive(PERIOD.format("3"))
    assert sadic.language_horizon(dw, 8).counts(8) == tuple(3 * n + 1 for n in range(9))
    with pytest.raises(MalformedDirective, match="^line 3: .*not a digit"):
        sadic.parse_directive(PERIOD.format("\u0663"))


FINITE_DW = "preperiod:\n[01,0]\n[0,10]\nperiod:\n"


def test_complexity_finite_directive_refused(tmp_path, capsys):
    f = tmp_path / "finite.dw"
    f.write_text(FINITE_DW)
    code, _, err = run(["complexity", "--directive-file", str(f), "--horizon", "10"], capsys)
    assert code == 3 and "NoStabilization" in err


def test_complexity_without_room_refused(capsys):
    # a horizon under 2 or a negative --upto leaves no n to report
    for horizon, upto in (("0", "5"), ("1", "5"), ("16", "-1")):
        code, out, err = run(["complexity", "--source", "fibonacci", "--horizon", horizon,
                              "--upto", upto], capsys)
        assert code == 3 and out == ""
        assert f"--upto {upto} at horizon {horizon}" in err
    # nor does a negative --upto leave an order to extract
    code, out, err = run(["extract", "--source", "fibonacci", "--horizon", "16",
                          "--upto", "-1"], capsys)
    assert code == 3 and out == ""
    assert err == "error: RauzyadicError: extract needs --upto >= 0, got --upto -1 at horizon 16\n"


def test_complexity_on_ten_letters(tmp_path, capsys):
    # the live letters 8 and 9 lie eight periods deep: Thue-Morse on them
    f = tmp_path / "ten.dw"
    f.write_text("period:\n[0,1,2,3,4,5,6,7,8,9]\n[1,2,3,4,5,6,7,8,89,98]\n")
    code, out, _ = run(["complexity", "--directive-file", str(f), "--horizon", "12",
                        "--upto", "6"], capsys)
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["1", "2", "4", "6", "10", "12", "16"]


def test_generate_finite_directive_refused(tmp_path, capsys):
    f = tmp_path / "finite.dw"
    f.write_text(FINITE_DW)
    code, out, err = run(["generate", str(f), "--length", "3"], capsys)
    assert code == 3 and out == "" and "NoStabilization" in err


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "rauzyadic.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "subcommand" in out.stdout.lower() or "usage" in out.stdout.lower()


@pytest.mark.parametrize("cmd", [["graph"], ["circuits", "--vertex", "0"]])
def test_negative_order_is_a_typed_refusal(capsys, cmd):
    code, out, err = run([*cmd, "--source", "fibonacci", "--order", "-1"], capsys)
    assert code == 3 and out == "" and err == "error: NegativeLength: negative factor length -1\n"


def test_crosscheck_refuses_a_negative_window_before_reading_the_directive(capsys, tmp_path):
    code, out, err = run(["crosscheck", str(tmp_path / "missing.dw"), "--window", "-1"], capsys)
    assert code == 3 and out == ""
    assert err == "error: RauzyadicError: crosscheck needs --window >= 0, got --window -1\n"


def test_generate_refuses_a_negative_length_before_any_level(capsys, monkeypatch):
    def level(*args):
        raise AssertionError("a level was read or composed")
    monkeypatch.setattr(sadic.DirectiveWord, "morphism", level)
    monkeypatch.setattr(sadic, "compose", level)
    code, out, err = run(["generate", str(DW / "fibonacci.dw"), "--length", "-3"], capsys)
    assert code == 3 and out == "" and err == "error: NegativeLength: negative prefix length -3\n"


def test_graph_refuses_an_order_below_minus_one_at_its_edge_length(capsys):
    # the edges of the order-n graph are the factors of length n + 1
    code, out, err = run(["graph", "--source", "fibonacci", "--order", "-3"], capsys)
    assert code == 3 and out == "" and err == "error: NegativeLength: negative factor length -2\n"


# stdout, exit code and error type of extract on the named sources at the
# benchmark's horizons and of crosscheck on the committed directives, as
# recorded before extraction read its graphs off the language; and of graph
# at gap and bispecial orders and its refusals, as recorded before graph
# read its reduced graph off the language; and of complexity, graph,
# circuits and extract on the prefix files of tests/data, as recorded while
# an explicit prefix still gave its factor sets length by length; and of
# validate, validate --strict2 and lengths on the committed directives, as
# recorded while the refined graph still spelled out its one-evolution rows
# and kept each entry row's loop count on the row
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_outputs.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_outputs_match_the_recorded_ones(capsys, case):
    argv = [str(ROOT / a) if a.startswith(("directives/", "tests/data/")) else a
            for a in case["argv"]]
    assert_recorded(argv, capsys, case)


def assert_recorded(argv, capsys, case):
    code, out, err = run(argv, capsys)
    error = err.split(":")[1].strip() if err.startswith("error: ") else None
    assert (code, error, out) == (case["exit"], case["error"], case["stdout"])


# stdout, exit code and error type of every tenth job, by recorded cost, of
# the benchmark's route validate and lengths pools and its crosscheck pool
# (the entries of perfbench/data/pools.json under its cost caps), as
# recorded while routing still solved each row's lengths through a dict and
# the factor oracle bisected each adjacent pair of top words
POOL_OUTPUTS = json.loads((ROOT / "tests" / "data" / "pool_outputs.json").read_text())
POOLS = json.loads((ROOT / "perfbench" / "data" / "pools.json").read_text())


@pytest.mark.parametrize("case", POOL_OUTPUTS,
                         ids=lambda case: f"{case['argv'][0]}-{case['dw'].split()[-1]}")
def test_pool_outputs_match_the_recorded_ones(capsys, tmp_path, case):
    assert case["dw"] in [e["dw"] for e in POOLS[case["pool"]]]
    path = tmp_path / "in.dw"
    path.write_text(case["dw"])
    assert_recorded([str(path) if a == "{in}" else a for a in case["argv"]], capsys, case)
