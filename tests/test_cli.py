"""Command-line interface: subcommands, exit codes, output shapes."""

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dfao.autfile import serialize
from dfao.automaton import are_equivalent, make_dfao
from dfao import cli
from dfao.cli import main
from dfao.corpus import ENTRIES, build
from dfao.dyadic import pow2inv
from helpers import child_env, random_dfao, residue_machine, split_state

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def aut(name):
    return str(CORPUS_DIR / f"{name}.aut")


def test_analyze_human_output(capsys):
    assert main(["analyze", aut("baum_sweet")]) == 0
    out = capsys.readouterr().out
    assert "classification" in out
    assert "INTERMEDIATE" in out
    assert "1/4" in out
    assert "100" in out  # the witness word
    assert "intrinsic states" in out


def test_analyze_json_shape(capsys):
    assert main(["analyze", aut("baum_sweet"), "--json"]) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert list(obj) == [
        "name",
        "k",
        "states",
        "strictly_accessible",
        "classification",
        "opacity",
        "complexity",
        "witness",
        "inhomogeneous_states",
        "minimized_states",
    ]
    assert obj["k"] == 2
    assert obj["states"] == 4
    assert obj["strictly_accessible"] is False
    assert obj["classification"] == "INTERMEDIATE"
    assert obj["opacity"] == {"num": 1, "den": 4}
    assert obj["complexity"] == {"num": 1, "den": 2}
    assert obj["witness"] == {"word": "100", "state": "B", "pos_a": 0, "pos_b": 2}
    assert obj["inhomogeneous_states"] == ["B", "D"]
    assert obj["minimized_states"] == 4

    # byte-identical on a second run
    assert main(["analyze", aut("baum_sweet"), "--json"]) == 0
    assert capsys.readouterr().out == first


def test_analyze_json_transparent_has_no_witness_key(capsys):
    assert main(["analyze", aut("golay_shapiro"), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "witness" not in obj
    assert obj["classification"] == "TRANSPARENT"
    assert obj["opacity"] == {"num": 0, "den": 1}
    assert obj["inhomogeneous_states"] == []


def test_analyze_oracle_flag(capsys):
    assert main(["analyze", aut("period_doubling"), "--oracle", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["oracle"] == {"L": 6, "value": {"num": 1, "den": 4}}

    assert main(["analyze", aut("period_doubling"), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "agrees" in out


def test_analyze_exits_one_when_the_oracle_disagrees(monkeypatch, capsys):
    """A disagreeing oracle fails the command in both output modes, as a
    corpus MISMATCH does; what is printed is the same report as ever."""
    argv = ["analyze", aut("period_doubling"), "--oracle"]  # opacity 1/4
    main(argv + ["--json"])
    agreeing = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "brute_force_opacity", lambda a, bound: pow2inv(1))

    assert main(argv + ["--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj == {**agreeing, "oracle": {"L": 6, "value": {"num": 1, "den": 2}}}

    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1].split() == [
        "oracle", "1/2", "at", "length", "bound", "6", "(DISAGREES)"
    ]


def test_analyze_warns_about_pruning(tmp_path, capsys):
    text = (
        "k 2\nstates A B Z\ninitial A\n"
        "output A 0\noutput B 1\noutput Z 9\n"
        "edge A 0 A\nedge A 1 B\nedge B 0 B\nedge B 1 A\n"
        "edge Z 0 Z\nedge Z 1 A\n"
    )
    f = tmp_path / "m.aut"
    f.write_text(text)
    assert main(["analyze", str(f)]) == 0
    captured = capsys.readouterr()
    assert "pruned" in captured.err
    assert "Z" in captured.err


def test_pruning_warning_stays_short_for_thousands_of_states(tmp_path, capsys):
    """The warning gives the count and the first ten names, however many
    states are pruned."""
    unreachable = [f"z{i}" for i in range(5000)]
    text = "k 2\nstates A " + " ".join(unreachable) + "\ninitial A\nedge A 0 A\nedge A 1 A\n"
    text += "".join(f"edge {z} {d} A\n" for z in unreachable for d in (0, 1))
    f = tmp_path / "m.aut"
    f.write_text(text)
    assert main(["generate", str(f), "-n", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "A A A\n"
    assert captured.err == (
        "warning: pruned 5000 unreachable states: "
        "z0, z1, z2, z3, z4, z5, z6, z7, z8, z9 and 4990 more\n"
    )
    assert len(captured.err) < 1024
    f.write_text("k 2\nstates A Z\ninitial A\nedge A 0 A\nedge A 1 A\nedge Z 0 Z\nedge Z 1 Z\n")
    assert main(["generate", str(f), "-n", "1"]) == 0
    assert capsys.readouterr().err == "warning: pruned 1 unreachable state: Z\n"


def test_witness_word_uses_commas_beyond_base_ten(tmp_path, capsys):
    rows = {"A": tuple("B" if d >= 10 else "A" for d in range(12)), "B": ("A",) * 12}
    d = make_dfao(12, rows, "A", {"A": "0", "B": "1"})
    f = tmp_path / "wide.aut"
    f.write_text(serialize(d))
    assert main(["analyze", str(f), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "," in obj["witness"]["word"]


def test_minimize_to_stdout(capsys):
    assert main(["minimize", aut("thue_morse")]) == 0
    captured = capsys.readouterr()
    assert captured.out == Path(aut("thue_morse")).read_text()
    assert "A -> A" in captured.err
    assert "B -> B" in captured.err


def test_minimize_to_file(tmp_path, capsys):
    target = tmp_path / "out.aut"
    src = tmp_path / "src.aut"
    src.write_text(
        "k 2\nstates A1 A2 B\ninitial A1\n"
        "output A1 0\noutput A2 0\noutput B 1\n"
        "edge A1 0 A2\nedge A1 1 B\nedge A2 0 A1\nedge A2 1 B\n"
        "edge B 0 B\nedge B 1 A1\n"
    )
    assert main(["minimize", str(src), "-o", str(target)]) == 0
    captured = capsys.readouterr()
    assert target.read_text() == serialize(build("thue_morse"))
    assert "A1 -> A" in captured.out
    assert "A2 -> A" in captured.out
    assert "B -> B" in captured.out
    assert captured.err == ""


def test_generate(capsys):
    assert main(["generate", aut("thue_morse"), "-n", "8"]) == 0
    assert capsys.readouterr().out == "0 1 1 0 1 0 0 1\n"
    assert main(["generate", aut("thue_morse"), "-n", "8", "--sep", ""]) == 0
    assert capsys.readouterr().out == "01101001\n"


def test_dot_with_witness(capsys):
    assert main(["dot", aut("period_doubling"), "--witness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph dfao {")
    assert "color=red" in out


def test_dot_witness_note_when_transparent(capsys):
    assert main(["dot", aut("golay_shapiro"), "--witness"]) == 0
    captured = capsys.readouterr()
    assert "color=red" not in captured.out
    assert "no clashing path" in captured.err


def test_corpus_table(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    for ent in ENTRIES:
        assert ent.name in out
    assert "FAIL" not in out
    assert out.count("PASS") == len(ENTRIES)


def test_corpus_json(capsys):
    assert main(["corpus", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 9
    assert all(r["pass"] for r in rows)
    by_name = {r["name"]: r for r in rows}
    assert by_name["thue_morse"]["opacity"] == {"num": 1, "den": 2}
    assert by_name["identity2"]["witness_length"] is None
    assert by_name["hanoi"]["sequence_ok"] is None


def test_equiv(tmp_path, capsys):
    assert main(["equiv", aut("thue_morse"), aut("thue_morse")]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert main(["equiv", aut("thue_morse"), aut("period_doubling")]) == 1
    assert capsys.readouterr().out == "not equivalent\n"


def test_equiv_agrees_with_the_product_search(tmp_path, capsys):
    """The CLI compares minimal machines; `are_equivalent` searches the
    product.  Half the pairs are made equivalent by splitting a state."""
    rng = random.Random(37)
    verdicts = set()
    for i in range(120):
        d1 = random_dfao(rng, k=rng.choice((2, 3)), max_states=6, output_alphabet=("0", "1"))
        d2 = split_state(rng, d1) if i % 2 else random_dfao(
            rng, k=d1.k, max_states=6, output_alphabet=("0", "1")
        )
        f1, f2 = tmp_path / "a.aut", tmp_path / "b.aut"
        f1.write_text(serialize(d1))
        f2.write_text(serialize(d2))
        expected = are_equivalent(d1, d2)
        assert main(["equiv", str(f1), str(f2)]) == (0 if expected else 1)
        assert capsys.readouterr().out == ("equivalent\n" if expected else "not equivalent\n")
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_equiv_is_bounded_under_memory_cap(tmp_path):
    """Cycles of 3000 and 3001 states, every output 0: their product has
    about 9 * 10**6 reachable pairs, but both minimize to one state, so
    the answer comes out under a 600 MB address-space cap."""
    resource = pytest.importorskip("resource")
    files = []
    for n in (3000, 3001):
        f = tmp_path / f"cycle{n}.aut"
        rows = {f"c{i}": (f"c{(i + 1) % n}",) * 2 for i in range(n)}
        f.write_text(serialize(make_dfao(2, rows, "c0", dict.fromkeys(rows, "0"))))
        files.append(str(f))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    result = subprocess.run(
        [sys.executable, "-m", "dfao.cli", "equiv", *files],
        capture_output=True,
        env=child_env(),
        text=True,
        preexec_fn=cap,
        timeout=60,
    )
    assert "Traceback" not in result.stderr, result.stderr
    assert (result.returncode, result.stdout) == (0, "equivalent\n")


def test_missing_file_fails_cleanly(capsys):
    assert main(["analyze", "/no/such/file.aut"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_machine_fails_cleanly(tmp_path, capsys):
    f = tmp_path / "bad.aut"
    f.write_text("k 2\nstates A\ninitial A\nedge A 0 A\n")
    assert main(["analyze", str(f)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "digit 1" in err


def test_non_utf8_file_fails_cleanly(tmp_path):
    f = tmp_path / "latin1.aut"
    f.write_bytes(b"k 2\nstates A\xff\ninitial A\n")
    result = subprocess.run(
        [sys.executable, "-m", "dfao.cli", "analyze", str(f)],
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and str(f) in result.stderr
    assert "Traceback" not in result.stderr


def test_oversized_file_is_refused_before_reading(tmp_path):
    """A sparse file one byte over the size limit is refused by every
    command that reads a machine file, in a child under a 600 MB
    address-space cap, before any of it is read: the message names the
    size and the limit.  A device reports size 0, so `/dev/zero` is
    refused after reading one byte over the limit."""
    resource = pytest.importorskip("resource")
    f = tmp_path / "huge.aut"
    with open(f, "wb") as handle:
        handle.truncate(cli.AUT_SIZE_LIMIT + 1)
    small = aut("thue_morse")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    messages = {
        str(f): f"{cli.AUT_SIZE_LIMIT + 1} bytes of machine description, "
        f"over the limit of {cli.AUT_SIZE_LIMIT} bytes",
        "/dev/zero": f"machine description over the limit of {cli.AUT_SIZE_LIMIT} bytes",
    }
    for path, message in messages.items():
        for argv in (["analyze", path], ["minimize", path], ["generate", path, "-n", "5"],
                     ["dot", path], ["equiv", small, path]):
            result = subprocess.run(
                [sys.executable, "-m", "dfao.cli", *argv],
                capture_output=True,
                env=child_env(),
                text=True,
                preexec_fn=cap,
            )
            assert (result.returncode, result.stdout) == (1, ""), argv
            assert result.stderr == f"error: {path}: {message}\n", argv


def test_generate_refuses_a_count_over_the_limit():
    """One term over the limit is refused before the file is read or any
    term generated, in a child under a 600 MB address-space cap."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    count = cli.TERM_LIMIT + 1
    result = subprocess.run(
        [sys.executable, "-m", "dfao.cli", "generate", aut("thue_morse"), "-n", str(count)],
        capture_output=True,
        env=child_env(),
        text=True,
        preexec_fn=cap,
        timeout=30,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        f"error: {count} terms requested, over the limit of {cli.TERM_LIMIT} terms\n"
    )


def test_generate_refuses_long_output_before_generating(tmp_path):
    """A count within TERM_LIMIT whose output would pass OUTPUT_LIMIT, by
    a long output token or a long separator, is refused after the file is
    read, in a child under a 600 MB address-space cap."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    long_token = tmp_path / "long_token.aut"
    long_token.write_text(
        Path(aut("thue_morse")).read_text().replace("output A 0", "output A " + "x" * 1000)
    )
    for argv in (
        [str(long_token), "-n", "1000000"],
        [aut("thue_morse"), "-n", "1000000", "--sep", "y" * 1000],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "dfao.cli", "generate", *argv],
            capture_output=True,
            env=child_env(),
            text=True,
            preexec_fn=cap,
            timeout=30,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error: 1000000 terms of up to 1001 characters with the separator, "
            f"over the limit of {cli.OUTPUT_LIMIT} characters\n"
        )
    assert cli.OUTPUT_LIMIT == cli.TERM_LIMIT * (1 + len(" "))


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_line_ends_and_byte_order_mark_read_as_lf(tmp_path):
    """CRLF, lone-CR and byte-order-mark copies of every corpus file and of
    a malformed file give the LF file's exit code, stdout (its own name
    aside) and stderr, on every command that reads a file."""
    bad = tmp_path / "bad.aut"
    bad.write_text("# comment\nk 2\nstates A B\ninitial A\nedge A 0 A # ok\nedge A 2 B\n")
    sources = sorted(CORPUS_DIR.glob("*.aut")) + [bad]
    assert len(sources) == 10
    for source in sources:
        text = source.read_bytes()
        copies = {
            "crlf": text.replace(b"\n", b"\r\n"),
            "cr": text.replace(b"\n", b"\r"),
            "bom": b"\xef\xbb\xbf" + text,
        }
        lf = str(source)
        for kind, data in copies.items():
            copy = tmp_path / f"{kind}_{source.name}"
            copy.write_bytes(data)
            for command in (
                ["analyze"],
                ["analyze", "--json"],
                ["minimize"],
                ["dot", "--witness"],
                ["generate", "-n", "40"],
            ):
                code, out, err = _run(command + [lf])
                want = (code, out.replace(lf, str(copy)), err.replace(lf, str(copy)))
                assert _run(command + [str(copy)]) == want, (kind, source.name, command)
            assert _run(["equiv", str(copy), lf]) == _run(["equiv", lf, lf])


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    """A UTF-8 file saved with a byte-order mark reads as the same machine,
    `minimize -o` writes it back without the mark, and a bad byte after the
    mark is still counted from the file's start."""
    bom = tmp_path / "thue_morse.aut"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(aut("thue_morse")).read_bytes())
    assert main(["analyze", "--json", aut("thue_morse")]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--json", str(bom)]) == 0
    assert json.loads(capsys.readouterr().out) == {**plain, "name": str(bom)}
    out = tmp_path / "out.aut"
    assert main(["minimize", str(bom), "-o", str(out)]) == 0
    assert out.read_bytes() == Path(aut("thue_morse")).read_bytes()

    bad = tmp_path / "bad.aut"
    bad.write_bytes(b"\xef\xbb\xbfk 2\nstates A\xff\ninitial A\n")
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid start byte at byte 15)\n"
    )


def test_minimize_writes_utf8_under_an_ascii_locale(tmp_path):
    """`.aut` files are read as UTF-8, so `minimize -o` writes UTF-8 whatever
    the locale.  The minimized machine renames its states, so the non-ASCII
    text that reaches the file is an output token."""
    src, out = tmp_path / "accent.aut", tmp_path / "out.aut"
    src.write_text(
        "k 2\nstates é B\ninitial é\noutput é é\noutput B 1\n"
        "edge é 0 é\nedge é 1 B\nedge B 0 B\nedge B 1 é\n",
        encoding="utf-8",
    )
    env = child_env(PYTHONIOENCODING="utf-8", PYTHONUTF8="0", LC_ALL="C")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "dfao.cli", *args], capture_output=True, text=True,
            encoding="utf-8", env=env,
        )

    result = run("minimize", str(src), "-o", str(out))
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    assert result.stdout == "é -> A\nB -> B\n"
    assert "output A é\n" in out.read_text(encoding="utf-8")
    result = run("analyze", "--json", str(out))
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    again = json.loads(run("analyze", "--json", str(src)).stdout)
    assert json.loads(result.stdout) == {**again, "name": str(out)}


def test_output_that_stdout_cannot_encode_is_an_error_line(tmp_path):
    """A name that stdout's encoding cannot write ends the command with exit 1
    and one `error:` line, not a traceback; a UTF-8 stdout prints it."""
    src = tmp_path / "accent.aut"
    src.write_text(
        "k 2\nstates Ä B\ninitial Ä\noutput Ä é\noutput B 1\n"
        "edge Ä 0 Ä\nedge Ä 1 B\nedge B 0 B\nedge B 1 Ä\n",
        encoding="utf-8",
    )
    wide = tmp_path / "\u6a5f.aut"  # a name latin-1 cannot write
    wide.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    ascii_env = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    ascii_env.pop("PYTHONIOENCODING", None)
    cases = [
        (ascii_env, ["generate", str(src), "-n", "4"]),
        (ascii_env, ["minimize", str(src)]),
        (ascii_env, ["dot", str(src)]),
        (child_env(PYTHONIOENCODING="latin-1"), ["analyze", str(wide)]),
    ]
    for env, args in cases:
        result = subprocess.run(
            [sys.executable, "-m", "dfao.cli", *args], capture_output=True, env=env
        )
        err = result.stderr.decode("utf-8", "replace")
        assert result.returncode == 1, (args, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
        assert "Traceback" not in err
        result = subprocess.run(
            [sys.executable, "-m", "dfao.cli", *args], capture_output=True,
            env={**env, "PYTHONIOENCODING": "utf-8"},
        )
        assert result.returncode == 0, (args, result.stderr)
        assert {"é", "\u6a5f"} & set(result.stdout.decode("utf-8")), args


def test_minimize_to_a_file_fails_before_writing_it(tmp_path):
    """When stdout cannot encode a state name of the mapping, `minimize -o`
    exits 1 with one `error:` line and leaves no file behind; a UTF-8
    stdout prints the mapping and the file is written."""
    src, out = tmp_path / "accent.aut", tmp_path / "out.aut"
    src.write_text(
        "k 2\nstates Ä B\ninitial Ä\noutput Ä 0\noutput B 1\n"
        "edge Ä 0 Ä\nedge Ä 1 B\nedge B 0 B\nedge B 1 Ä\n",
        encoding="utf-8",
    )
    env = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env.pop("PYTHONIOENCODING", None)
    argv = [sys.executable, "-m", "dfao.cli", "minimize", str(src), "-o", str(out)]
    result = subprocess.run(argv, capture_output=True, env=env)
    err = result.stderr.decode("utf-8", "replace")
    assert (result.returncode, result.stdout) == (1, b""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
    result = subprocess.run(argv, capture_output=True, env={**env, "PYTHONIOENCODING": "utf-8"})
    assert (result.returncode, result.stdout.decode("utf-8")) == (0, "Ä -> A\nB -> B\n")
    assert out.read_text(encoding="utf-8").startswith("k 2\n")


def test_huge_radix_fails_cleanly_without_allocating(tmp_path):
    """A radix of 10**9 must not size anything: the missing edge is
    reported under a 1 GiB address-space cap, where a table of k slots
    per state would die with MemoryError."""
    resource = pytest.importorskip("resource")
    f = tmp_path / "huge.aut"
    f.write_text("k 1000000000\nstates A\ninitial A\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "dfao.cli", "analyze", str(f)],
        capture_output=True,
        env=child_env(),
        text=True,
        preexec_fn=cap,
    )
    assert result.returncode == 1
    assert result.stderr == "error: no edge for state 'A' on digit 0\n"


def test_oracle_table_refusal_is_skipped_under_memory_cap(tmp_path):
    """The transparent 10-state binary de Bruijn machine passes the
    relabeling budget and the mask-table cap but not the alive-table cap
    at length 20 of its bound of 22; under a 1 GiB address-space cap the
    report comes out without an oracle value, as for any other budget
    refusal."""
    resource = pytest.importorskip("resource")
    f = tmp_path / "debruijn10.aut"
    f.write_text(serialize(residue_machine(2, 10)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "dfao.cli", "analyze", "--json", "--oracle", str(f)],
        capture_output=True,
        env=child_env(),
        text=True,
        preexec_fn=cap,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    obj = json.loads(result.stdout)
    assert obj["opacity"] == {"num": 0, "den": 1} and "oracle" not in obj


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["generate", aut("thue_morse")]) == 2  # -n is required
    capsys.readouterr()


def test_generate_rejects_a_negative_count(capsys):
    assert main(["generate", aut("thue_morse"), "-n", "-5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument -n/--count: must not be negative: -5" in err
    assert main(["generate", aut("thue_morse"), "-n", "x"]) == 2
    assert "argument -n/--count: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["generate", aut("thue_morse"), "-n", "0"]) == 0
    assert capsys.readouterr().out == "\n"


def test_shared_parser_matches_a_fresh_one(monkeypatch, capsys):
    calls = (
        ["generate", aut("thue_morse"), "-n", "4", "--sep", ","],
        ["generate", aut("thue_morse")],  # usage error: -n is required
        ["generate", aut("thue_morse"), "-n", "4"],
    )

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    shared = [run(argv) for argv in calls * 2]
    fresh = []
    for argv in calls * 2:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0] * 2
    assert shared[0][1] == "0,1,1,0\n" and shared[2][1] == "0 1 1 0\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dfao.cli", "generate", aut("thue_morse"), "-n", "4"],
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "0 1 1 0\n"
