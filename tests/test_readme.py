"""README, executed: its examples run and its contract tables are checked.

- Every ``flmlab ...`` line of README's shell blocks (``\\`` continuations
  joined) runs through ``cli.main`` in a fresh directory and exits 0; a
  trailing ``# prints TEXT`` comment must appear on stdout, and ``# writes F
  G`` names files the command writes.
- Each command of the Output table prints the JSON keys and CSV headers the
  table lists; the Exit status section's example messages are what their
  commands print, and the flag defaults are those the Command line section
  gives, as is `path-check` rejecting `--format` and `--seed` (exit 2).
- The library sketch runs, and the values its ``# array(...)`` comments state
  are the values of their lines.
- The Known defects table names exactly the suite's xfail tests, each with the
  ROADMAP item its marker names.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from flmlab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def shell_examples() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) of every flmlab line of the shell blocks."""
    examples = []
    for block in code_blocks("sh"):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            if line.startswith("flmlab "):
                command, _, comment = line.partition("#")
                examples.append((command.split()[1:], comment.strip()))
    return examples


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


EXAMPLES = shell_examples()
OUTPUT_ROWS = [
    (command.split(), keys.split(), re.findall(r"`([^`]+)`", headers))
    for command, keys, headers in re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (.+) \|$", section("Output"), re.M)
]
KNOWN_DEFECTS = dict(
    (test, int(item)) for item, test in re.findall(r"^\| (\d+) \| .* \| `([^`]+)` \|$", section("Known defects"), re.M)
)


def test_examples_show_every_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {"bounds", "oracle", "simulate", "compare", "path-check"}


@pytest.mark.parametrize("argv,comment", EXAMPLES, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(EXAMPLES)])
def test_shell_example(argv, comment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv)
    assert code == 0, err
    claim, _, value = comment.partition(" ")
    if claim == "prints":
        assert value in out
    elif claim == "writes":
        for name in value.split():
            assert (tmp_path / name).stat().st_size > 0, name
    else:
        assert comment == "", f"unknown claim {comment!r}"


def test_output_table_lists_every_command():
    assert {argv[0] for argv, _, _ in OUTPUT_ROWS} == {"bounds", "oracle", "simulate", "compare"}


@pytest.mark.parametrize("argv,keys,headers", OUTPUT_ROWS, ids=[" ".join(argv[:3]) for argv, _, _ in OUTPUT_ROWS])
def test_output_keys_and_csv_headers(argv, keys, headers):
    code, out, _ = run(argv + ["--format", "json"])
    assert code == 0
    assert list(json.loads(out)) == keys
    code, out, _ = run(argv + ["--format", "csv"])
    assert code == 0
    assert [table.split("\n", 1)[0] for table in out.split("\n\n")] == headers


# the commands behind the Exit status section's example lines
ERRORS = [
    ("bounds --benchmark leadingones --n 100000 --p 0.5",
     "LeadingOnes expected runtime at n=100000, p=0.5 overflows a double"),
    ("path-check --n 40 --k 2", "path at n=40, k=2 would have 2097151 points, exceeding the cap 1000000"),
    ("oracle --full-state --benchmark onemax --n 6 --p 1e-320",
     "absorbing non-top fitness class reachable: 0, which a run cannot leave at p = 1e-320"),
]


@pytest.mark.parametrize("argv,message", ERRORS, ids=[argv.split()[0] for argv, _ in ERRORS])
def test_exit_status_example_messages(argv, message):
    assert f"`{message}`" in " ".join(section("Exit status").split())
    assert run(argv.split()) == (1, "", f"error: {message}\n")


def test_flag_defaults():
    for command in ("simulate", "compare"):
        args = build_parser().parse_args([command, "--benchmark", "onemax", "--n", "4"])
        got = (args.format, args.seed, args.out, args.p, args.init, args.replicates, args.max_iterations)
        assert got == ("json", 0, None, "1/n", "random", 1000, 10**9)


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--seed", "5"]], ids=["format", "seed"])
def test_path_check_rejects_format_and_seed(flag):
    assert "`path-check` takes neither `--format` nor `--seed` (exit 2)" in " ".join(section("Command line").split())
    code, out, err = run(["path-check", "--n", "4", "--k", "2", *flag])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_library_sketch_runs_and_its_comments_hold(capsys):
    (sketch,) = code_blocks("python")
    namespace: dict = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    assert abs(namespace["bound"].value - namespace["s"].expected_time) < 1e-9

    stated_lines = [line for line in sketch.splitlines() if re.search(r"#\s*array\(", line)]
    assert len(stated_lines) == 2
    for line in stated_lines:
        code, _, stated = line.partition("#")
        target, assign, value = code.strip().partition(" = ")
        got = namespace[target] if assign else eval(code, namespace)
        want = eval(stated, {"array": np.array})
        got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype.kind == w.dtype.kind and np.array_equal(g, w), line


def test_known_defects_table_names_every_xfail(request):
    items = request.session.items
    if {path.name for path in (ROOT / "tests").glob("test_*.py")} - {item.path.name for item in items}:
        pytest.skip("needs the whole suite collected")
    strict = request.config.getini("xfail_strict")
    xfails = {}
    for item in items:
        marker = item.get_closest_marker("xfail")
        if marker is not None:
            assert marker.kwargs.get("strict", strict), item.nodeid
            xfails[item.nodeid] = int(re.match(r"ROADMAP item (\d+):", marker.kwargs["reason"]).group(1))
    assert KNOWN_DEFECTS == xfails
