"""Command line surface: exit codes, JSON determinism, the entry point.

The entry point is run as a real process two ways: as ``python -m grtlab``
against the source tree under test, which needs nothing installed, and as
the ``grt`` wrapper that setuptools generates from ``[project.scripts]``,
wherever that wrapper is on PATH.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import grtlab
from grtlab import cli
from grtlab.cli import run


def _json_text(result):
    return json.dumps(result.payload, indent=2, sort_keys=True)


def test_exit_zero_simple_dim():
    r = run(["lie", "dim", "--degree", "5"])
    assert r.status == 0
    assert r.rendering == "6"
    assert r.payload == {"letters": 2, "degree": 5, "dim": 6}


def test_exit_one_usage():
    assert run(["lie", "dim"]).status == 1            # missing --degree
    assert run(["nosuchgroup"]).status == 1
    assert run(["lie", "nosuchverb"]).status == 1
    assert run([]).status == 1
    r = run(["malcev", "filtration", "--family", "FreeGroup",
             "--params", "2,x"])                    # not an integer
    assert r.status == 1
    assert "'x'" in r.rendering and "--params" in r.rendering
    r = run(["lie", "dim", "--degree", "3",
             "--generator-degrees", "1,x"])        # not an integer
    assert r.status == 1
    assert "'x'" in r.rendering and "--generator-degrees" in r.rendering


def test_exit_two_syntax():
    r = run(["lie", "parse", "[x,y"])
    assert r.status == 2
    assert "position" in r.rendering
    assert run(["lie", "bracket", "x", "(y"]).status == 2
    assert run(["malcev", "word", "--class", "2", "x^oops"]).status == 2


def test_exit_three_precondition():
    assert run(["lie", "dim", "--degree", "0"]).status == 3
    assert run(["ihara", "basis", "--degree", "17"]).status == 3  # hard cap
    assert run(["ihara", "soule", "--degree", "4"]).status == 3   # dim 0
    assert run(["motivic", "dn", "--r1", "0", "--r2", "0",
                "--s", "1", "--n", "3"]).status == 3
    assert run(["malcev", "filtration", "--family", "Nonsense"]).status == 3
    assert run(["malcev", "filtration", "--family", "FreeGroup",
                "--params", "2"]).status == 3                 # arity
    r = run(["malcev", "filtration", "--family", "SubgroupOfNilpotent",
             "--class", "4", "--alphabet", "a:1 b:2",
             "--generator", "a", "--generator", "b"])
    assert r.status == 3                     # dependent degree-1 parts
    assert "independent" in r.rendering
    for alphabet in ("x x", "x:abc y"):
        r = run(["lie", "lyndon", "--degree", "3", "--alphabet", alphabet])
        assert r.status == 3
    assert "duplicate" in run(["lie", "lyndon", "--degree", "3",
                               "--alphabet", "x x"]).rendering


def test_bare_value_error_is_a_bug_not_exit_three(monkeypatch):
    def broken(args):
        raise ValueError("a bug, not a precondition")

    monkeypatch.setattr(cli, "_cmd_lie_dim", broken)
    with pytest.raises(ValueError, match="a bug"):
        run(["lie", "dim", "--degree", "5"])


def test_lie_commands():
    r = run(["lie", "lyndon", "--degree", "3"])
    assert r.status == 0
    assert r.payload["count"] == 2
    assert r.payload["words"] == ["xxy", "xyy"]

    r = run(["lie", "bracket", "x", "[x,y]"])
    assert r.rendering == "[x,[x,y]]"

    r = run(["lie", "parse", "2*[x,y] - [x,y]", "--json"])
    assert r.payload["text"] == "[x,y]"
    assert r.payload["homogeneous_degree"] == 2

    # mixed degrees are legal input, not an error
    r = run(["lie", "parse", "x + [x,y]"])
    assert r.status == 0
    assert r.payload["degrees"] == [1, 2]
    assert r.payload["homogeneous_degree"] is None

    r = run(["lie", "expand", "[x,y]"])
    assert r.payload["terms"] == {"xy": 1, "yx": -1}

    r = run(["lie", "dim", "--degree", "6",
             "--generator-degrees", "2,3"])
    assert r.status == 0
    dims = {row["degree"]: row["dim"] for row in r.payload["rows"]}
    assert dims == {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0}


def test_weighted_alphabet_flag():
    r = run(["lie", "bracket", "--alphabet", "a:2 b:3", "a", "b"])
    assert r.status == 0
    assert r.rendering == "[a,b]"


def test_der_commands():
    r = run(["der", "outdim", "--degree", "1"])
    assert r.status == 0 and r.rendering == "0"
    # the inner derivation ad(x) applied to y
    r = run(["der", "apply", "--image-x", "0", "--image-y", "[x,y]", "y"])
    assert r.rendering == "[x,y]"


def test_ihara_commands():
    r = run(["ihara", "soule", "--degree", "3"])
    assert r.status == 0
    assert r.rendering == "[x,[x,y]] - [[x,y],y]"

    r = run(["ihara", "basis", "--degree", "2"])
    assert r.status == 0
    assert r.payload["dim"] == 0

    r = run(["ihara", "bracket", "--left", "3", "--right", "5"])
    assert r.status == 0
    assert r.payload["left"] == 3 and r.payload["right"] == 5

    r = run(["ihara", "freeness", "--max-degree", "8"])
    assert r.status == 0
    assert r.payload["all_match"] is True

    r = run(["ihara", "congruence", "--json"])
    assert r.status == 0
    assert r.payload["divisible"] is True
    assert int(r.payload["coordinate_gcd"]) % 691 == 0


def test_motivic_commands():
    r = run(["motivic", "dn", "--r1", "1", "--r2", "0", "--s", "1",
             "--n", "7"])
    assert r.rendering == "1"
    r = run(["motivic", "ext", "--r1", "1", "--r2", "0", "--s", "1",
             "--i", "2", "--n", "4"])
    assert r.rendering == "0"
    r = run(["motivic", "kdims", "--r1", "1", "--r2", "0", "--s", "1",
             "--max-degree", "6"])
    assert r.status == 0
    r = run(["motivic", "image", "--max-degree", "12", "--json"])
    dims = {row["degree"]: row["dim"] for row in r.payload["rows"]}
    assert dims[12] == 2


def test_malcev_commands():
    r = run(["malcev", "bch", "--class", "2", "x", "y"])
    assert r.rendering == "x + y + 1/2*[x,y]"
    r = run(["malcev", "word", "--class", "2", "x y x^-1 y^-1"])
    assert r.rendering == "[x,y]"
    r = run(["malcev", "filtration", "--family", "FreeGroup",
             "--params", "2,3", "--json"])
    assert [row["rank"] for row in r.payload["rows"]] == [2, 1, 2]
    r = run(["malcev", "filtration", "--family", "LatticeTimesCyclic",
             "--params", "1,3"])
    assert r.payload["rows"][1]["d_mod_l"] == [3]
    r = run(["malcev", "filtration", "--family", "SubgroupOfNilpotent",
             "--class", "2", "--generator", "x", "--generator", "2*y"])
    assert r.payload["rows"][0]["d_mod_l"] == [2]


def test_json_output_deterministic():
    a = run(["motivic", "kdims", "--r1", "2", "--r2", "1", "--s", "2",
             "--max-degree", "9", "--json"])
    b = run(["motivic", "kdims", "--r1", "2", "--r2", "1", "--s", "2",
             "--max-degree", "9", "--json"])
    assert _json_text(a) == _json_text(b)
    c = run(["lie", "bracket", "1/2*x", "y", "--json"])
    d = run(["lie", "bracket", "1/2*x", "y", "--json"])
    assert _json_text(c) == _json_text(d)
    # fractions serialize as strings, so the payload is pure JSON
    assert c.payload["terms"] == {"xy": "1/2"}


#: Calls the table reader accepts: every verb as the tests, README.md,
#: perfbench and CI call it.
_WELL_FORMED = [
    ["lie", "dim", "--degree", "5"],
    ["lie", "dim", "--degree", "0"],
    ["lie", "dim", "--degree", "6", "--generator-degrees", "2,3"],
    ["lie", "dim", "--letters", "3", "--degree", "4", "--json"],
    ["lie", "lyndon", "--degree", "3"],
    ["lie", "lyndon", "--degree", "3", "--alphabet", "x x"],
    ["lie", "bracket", "x", "[x,y]"],
    ["lie", "bracket", "--alphabet", "a:2 b:3", "a", "b"],
    ["lie", "bracket", "1/2*x", "y", "--json"],
    ["lie", "bracket", "--max-degree", "3", "[x,y]", "x + 2*y"],
    ["lie", "parse", "2*[x,y] - [x,y]", "--json"],
    ["lie", "parse", "[x,y"],
    ["lie", "expand", "[x,y]"],
    ["der", "outdim", "--degree", "1"],
    ["der", "apply", "--image-x", "0", "--image-y", "[x,y]", "y"],
    ["ihara", "basis", "--degree", "17"],
    ["ihara", "soule", "--degree", "3"],
    ["ihara", "bracket", "--left", "3", "--right", "5", "--json"],
    ["ihara", "congruence", "--json"],
    ["ihara", "congruence", "--modulus", "7", "--json"],
    ["ihara", "freeness"],
    ["ihara", "freeness", "--max-degree", "10", "--json"],
    ["motivic", "dn", "--r1", "1", "--r2", "0", "--s", "1", "--n", "7"],
    ["motivic", "ext", "--r1", "1", "--r2", "0", "--s", "1", "--i", "2",
     "--n", "4"],
    ["motivic", "kdims", "--r1", "2", "--r2", "1", "--s", "2",
     "--max-degree", "9", "--json"],
    ["motivic", "image", "--max-degree", "12", "--json"],
    ["malcev", "bch", "--class", "2", "x", "y"],
    ["malcev", "word", "--class", "2", "x y x^-1 y^-1"],
    ["malcev", "filtration", "--family", "FreeGroup", "--params", "2,6",
     "--json"],
    ["malcev", "filtration", "--family", "LatticeTimesCyclic", "--params",
     "1,3", "--max-m", "3"],
    ["malcev", "filtration", "--family", "SubgroupOfNilpotent", "--class",
     "4", "--alphabet", "a:1 b:2", "--generator", "a", "--generator", "b"],
    ["malcev", "filtration", "--family", "Nonsense"],
    # a positional between flags, and empty-string values
    ["lie", "bracket", "--alphabet", "a:2 b:3", "a", "--max-degree", "5",
     "b"],
    ["malcev", "bch", "x", "--class", "2", "y", "--alphabet", "x y"],
    ["lie", "lyndon", "--alphabet", "", "--degree", "2"],
    ["lie", "parse", ""],
    ["lie", "dim", "--degree", "2", "--generator-degrees", ""],
]


def _variants(argv):
    """``argv``, its flags in reverse order, and ``--json`` first and last."""
    head, tail, flags, positionals = argv[:2], iter(argv[2:]), [], []
    for token in tail:
        if token == "--json":
            flags.append([token])
        elif token.startswith("--"):
            flags.append([token, next(tail)])
        else:
            positionals.append(token)
    reordered = [t for chunk in reversed(flags) for t in chunk]
    return [argv, [*head, *reordered, *positionals],
            [*head, "--json", *argv[2:]], [*argv, "--json"]]


def test_reader_agrees_with_argparse():
    readme = [argv for argv, _ in _readme_examples()]
    calls = [v for argv in (*_WELL_FORMED, *readme) for v in _variants(argv)]
    assert {(a[0], a[1]) for a in calls} == {
        (g, v) for g, verbs in cli._VERBS.items() for v in verbs}
    for argv in calls:
        read = cli._read(argv)
        assert read is not None, argv
        assert read == vars(cli._build_parser(argv).parse_args(argv)), argv


#: Calls the table reader leaves to argparse, with the status and rendering
#: they have always had.
_TO_ARGPARSE = [
    (["lie", "dim", "--degree=5"], 0, "6"),
    (["lie", "dim", "--degree", "-1"], 3,
     "witt_dim needs num_letters >= 1 and degree >= 1"),
    (["malcev", "filtration", "--family", "SubgroupOfNilpotent", "--class",
      "2", "--alphabet", "x1 x2", "--generator", "-3*x1 + x2"], 0,
     "        m      rank   torsion   d_mod_l\n"
     "        1         1        []        []\n"
     "        2         0        []        []"),
    (["lie", "parse", "-"], 2, "expected a generator, '[' or '(', found "
     "'end of input' (at position 1)"),
    (["lie", "dim", "--", "--degree", "3"], 1,
     "grt lie dim: the following arguments are required: --degree"),
    (["lie", "dim", "--degree", "3", "--nosuch", "1"], 1,
     "grt: unrecognized arguments: --nosuch 1"),
    (["malcev", "filtration", "--family", "FreeGroup", "--params", "2,x"], 1,
     "grt malcev filtration: argument --params: not an integer: 'x'"),
    (["lie", "dim"], 1,
     "grt lie dim: the following arguments are required: --degree"),
    (["lie", "parse", "x", "y"], 1, "grt: unrecognized arguments: y"),
    (["lie", "dim", "--degree"], 1,
     "grt lie dim: argument --degree: expected one argument"),
    (["lie", "nosuchverb"], 1, "grt lie: argument verb: invalid choice: "
     "'nosuchverb' (choose from 'dim', 'lyndon', 'bracket', 'parse', "
     "'expand')"),
    ([], 1, "grt: the following arguments are required: group"),
]


def test_argparse_takes_what_the_reader_refuses(capsys):
    abbreviated = ["ihara", "freeness", "--max-deg", "10"]
    assert cli._read(abbreviated) is None
    r = run(abbreviated)
    assert (r.status, r.rendering) == (0, run(
        ["ihara", "freeness", "--max-degree", "10"]).rendering)
    for argv, status, rendering in _TO_ARGPARSE:
        assert cli._read(argv) is None, argv
        r = run(argv)
        assert (r.status, r.rendering) == (status, rendering), argv
    assert cli._read(["lie", "dim", "--degree", "3", "-h"]) is None
    with pytest.raises(SystemExit) as e:
        run(["lie", "dim", "--degree", "3", "-h"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: grt lie dim ")


def test_well_formed_calls_never_load_argparse():
    code = (
        "import json, sys\n"
        "from grtlab.cli import run\n"
        "calls = [['malcev', 'filtration', '--family', 'FreeGroup',\n"
        "          '--params', '2,6', '--json'],\n"
        "         ['ihara', 'freeness', '--max-degree', '10', '--json'],\n"
        "         ['lie', 'dim', '--degree', '4']]\n"
        "status = [run(argv).status for argv in calls]\n"
        "loaded = [m for m in ('argparse', 'gettext', 'locale')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps([status, loaded, run(['lie', 'dim']).status]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (
        str(Path(grtlab.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert json.loads(out.stdout) == [[0, 0, 0], [], 1]


def _usage_choices(text):
    """The choices of the subcommand in the first usage line of ``text``."""
    return re.search(r"\{([^}]*)\}", text.splitlines()[0]).group(1).split(",")


def test_help_at_every_level(capsys):
    with pytest.raises(SystemExit) as e:
        run(["--help"])
    assert e.value.code == 0
    assert _usage_choices(capsys.readouterr().out) == list(cli._VERBS)
    for group, verbs in cli._VERBS.items():
        with pytest.raises(SystemExit) as e:
            run([group, "--help"])
        assert e.value.code == 0
        assert _usage_choices(capsys.readouterr().out) == list(verbs)
        for verb, (_, arguments) in verbs.items():
            with pytest.raises(SystemExit) as e:
                run([group, verb, "--help"])
            assert e.value.code == 0
            text = capsys.readouterr().out
            assert text.startswith(f"usage: grt {group} {verb} ")
            for name, _ in (cli._JSON, *arguments):
                assert name in text, (group, verb, name)


def _readme_examples():
    """(argv, printed lines) for each ``$ grt`` line of the block under
    README.md's "Command line" heading."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Command line\n")[1]
    block = section.split("```\n")[1]
    examples, printed = [], None
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            assert argv[0] == "grt", line
            printed = []
            examples.append((argv[1:], printed))
        elif printed is not None and line.strip() not in ("", "..."):
            printed.append(line)
        else:
            printed = None              # output stops at a gap or "..."
    return examples


def test_readme_examples_run():
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == set(cli._VERBS)
    for argv, printed in examples:
        r = run(argv)
        assert r.status == 0, (argv, r.rendering)
        assert r.rendering.splitlines()[:len(printed)] == printed, argv


def _check_process(cmd, route, **kwargs):
    """Exit codes and output streams of ``cmd`` run as a process."""
    def call(*args):
        return subprocess.run([*cmd, *args], capture_output=True, text=True,
                              **kwargs)

    out = call("lie", "dim", "--degree", "4")
    assert out.returncode == 0, f"{route}: exit {out.returncode}, {out.stderr}"
    assert out.stdout.strip() == "3", f"{route}: stdout {out.stdout!r}"
    bad = call("lie", "parse", "[x,y")
    assert bad.returncode == 2, f"{route}: syntax error exits {bad.returncode}"
    assert "position" in bad.stderr, f"{route}: stderr {bad.stderr!r}"
    usage = call()
    assert usage.returncode == 1, f"{route}: bare call exits {usage.returncode}"
    helped = call("--help")
    assert helped.returncode == 0, f"{route}: --help exits {helped.returncode}"
    assert helped.stdout.startswith("usage: grt"), \
        f"{route}: --help prints {helped.stdout[:80]!r}"


def test_console_entry_point(tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                        pyproject.read_text(), re.M | re.S)
    assert scripts and re.search(r'^grt\s*=\s*"grtlab\.cli:main"\s*$',
                                 scripts.group(1), re.M), \
        "pyproject.toml [project.scripts] does not declare grt = grtlab.cli:main"

    # the child imports the grtlab under test, not whatever cwd holds
    src = str(Path(grtlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    _check_process([sys.executable, "-m", "grtlab"], "python -m grtlab",
                   cwd=tmp_path, env=env)

    exe = shutil.which("grt")
    if exe:
        _check_process([exe], f"installed grt wrapper {exe}", cwd=tmp_path)
