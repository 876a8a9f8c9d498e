"""Command line surface: exit codes, JSON determinism, the entry point.

The entry point is run as a real process two ways: as ``python -m grtlab``
against the source tree under test, which needs nothing installed, and as
the ``grt`` wrapper that setuptools generates from ``[project.scripts]``,
wherever that wrapper is on PATH.
"""

import json
import os
import re
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
