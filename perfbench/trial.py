"""One trial of a benchmark workload, in a fresh process.

Every ``grtlab`` cache is process-global, so each trial is its own
interpreter.  Usage (``run.py`` starts it; by hand it is the same):

    python3 perfbench/trial.py WORKLOAD SEED TRACE SPAWN_TIME [--setup-only]

``SPAWN_TIME`` is ``time.monotonic()`` in the parent just before the
process was started; set-up time runs from there to the start of the timed
phase.  The trial prints one JSON object as its last line of output.
Exit code 3 means ``grtlab`` could not be imported at all.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_FILE = HERE / "pins.json"
PINS: dict = {}

#: Degrees in which the stable space is nonzero, up to the set-up degree
#: of ``stable-queries``.
QUERY_DEGREES = (3, 5, 7, 8, 9, 10)
#: Pairs of basis elements (degree, index) bracketed by ``stable-queries``;
#: all distinct pairs of total degree at most 14.
QUERY_PAIRS = [((3, 0), (5, 0)), ((3, 0), (7, 0)), ((3, 0), (8, 0)),
               ((3, 0), (9, 0)), ((3, 0), (10, 0)), ((5, 0), (7, 0)),
               ((5, 0), (8, 0)), ((5, 0), (9, 0))]
#: Each round holds one operation of each kind per degree or pair.
QUERY_ROUNDS = 8


def element_digest(elements) -> str:
    """sha256 of the Lyndon-basis terms of a sequence of elements, with
    every coefficient written as an exact 'p/q'."""
    h = hashlib.sha256()
    for e in elements:
        for w, c in sorted(e.terms.items()):
            c = Fraction(c)
            h.update(f"{w}:{c.numerator}/{c.denominator};".encode())
        h.update(b"|")
    return h.hexdigest()


def _nonzero(rng, bound):
    return rng.choice([k for k in range(-bound, bound + 1) if k])


# ---------------------------------------------------------------------
# Workloads.  Each has a set-up returning the state the timed phase needs,
# a timed phase returning raw outputs (no checking inside the timed
# window), and a check returning one failure message (or None) per
# operation.
# ---------------------------------------------------------------------

def no_setup(grtlab, seed):
    return None


def stable_workload(degree):
    """``ihara freeness`` up to ``degree`` from cold caches, checked against
    the pinned dimensions and the digest of the canonical bases."""

    def timed(grtlab, state, tracer):
        return [grtlab.cli.run(["ihara", "freeness", "--max-degree",
                                str(degree), "--json"])]

    def check(grtlab, state, outputs):
        res = outputs[0]
        if res.status != 0:
            return [f"exit status {res.status}: {res.payload}"]
        dims = [r["computed"] for r in res.payload["rows"]]
        if dims != PINS["stable_dims_2_11"][:degree - 1]:
            return [f"dims {dims}"]
        if not res.payload["all_match"]:
            return ["all_match is false"]
        bases = [f for n in range(2, degree + 1)
                 for f in grtlab.special_basis(n)]
        if element_digest(bases) != PINS[f"basis_digest_2_{degree}"]:
            return ["canonical bases differ from the pinned digest"]
        return [None]

    return no_setup, timed, check


def queries_setup(grtlab, seed):
    basis = {n: grtlab.special_basis(n) for n in range(2, 11)}
    rng = random.Random(seed)
    xy = grtlab.XY
    ops = []
    for _ in range(QUERY_ROUNDS):
        for n in QUERY_DEGREES:
            f = grtlab.LieElement.zero(xy)
            for b in basis[n]:
                f = f + b.scale(_nonzero(rng, 5))
            ops.append(("stable", n, f))
            unequal = [w for w in grtlab.lyndon_words(xy, n)
                       if w.letters.count(0) != w.letters.count(1)]
            w = rng.choice(unequal).letters
            ops.append(("unstable", n,
                        f + grtlab.LieElement(xy, {w: _nonzero(rng, 3)})))
        for left, right in QUERY_PAIRS:
            if rng.random() < 0.5:
                left, right = right, left
            s1, s2 = _nonzero(rng, 4), _nonzero(rng, 4)
            ops.append(("bracket", (left, right, s1 * s2),
                        basis[left[0]][left[1]].scale(s1),
                        basis[right[0]][right[1]].scale(s2)))
    ops.append(("congruence",))
    rng.shuffle(ops)
    return ops


def queries_timed(grtlab, ops, tracer):
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            if op[0] in ("stable", "unstable"):
                out.append(grtlab.is_stable(op[2]))
            elif op[0] == "bracket":
                out.append(grtlab.ihara_bracket(op[2], op[3], verify=True))
            else:
                out.append(grtlab.check_congruence())
        except Exception as e:  # an operation that raised has failed
            out.append(e)
    if tracer is not None:
        tracer.op = -1
    return out


def queries_check(grtlab, ops, outputs):
    fails = []
    for op, got in zip(ops, outputs):
        if isinstance(got, Exception):
            fails.append(f"{op[0]} raised {got!r}")
        elif op[0] in ("stable", "unstable"):
            want = op[0] == "stable"
            fails.append(None if got is want else
                         f"is_stable in degree {op[1]} gave {got}")
        elif op[0] == "bracket":
            (m1, i1), (m2, i2), scale = op[1]
            key = f"{m1}.{i1}|{m2}.{i2}"
            unit = got.scale(Fraction(1, scale))
            fails.append(None if element_digest([unit])
                         == PINS["bracket_digests"][key] else
                         f"bracket {key} differs from the pinned digest")
        else:
            fails.append(None if got.get("coordinate_gcd") == 691
                         and got.get("divisible") else
                         f"congruence gave gcd {got.get('coordinate_gcd')}")
    return fails


def filtration_timed(grtlab, state, tracer):
    return [grtlab.cli.run(["malcev", "filtration", "--family", "FreeGroup",
                            "--params", "2,6", "--json"])]


def filtration_check(grtlab, state, outputs):
    res = outputs[0]
    if res.status != 0:
        return [f"exit status {res.status}: {res.payload}"]
    rows = res.payload["rows"]
    ranks = [r["rank"] for r in rows]
    if ranks != PINS["filtration_ranks_2_6"]:
        return [f"ranks {ranks}"]
    if any(r["d_mod_l"] or r["torsion"] for r in rows):
        return ["nonempty d_mod_l or torsion"]
    return [None]


WORKLOADS = {
    "stable-10": stable_workload(10),
    "stable-queries": (queries_setup, queries_timed, queries_check),
    "filtration-2-6": (no_setup, filtration_timed, filtration_check),
    # Not in BENCHMARK.json: one trial takes about 30 s, too long to be
    # steady in a run.  Kept for the degree-11 stage times in README.md.
    "stable-11": stable_workload(11),
}


def main(argv) -> int:
    workload, seed, trace, spawn = argv[0], int(argv[1]), argv[2] == "1", \
        float(argv[3])
    setup_only = "--setup-only" in argv
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import grtlab
        import grtlab.cli
    except ImportError:
        traceback.print_exc()
        return 3
    setup, timed, check = WORKLOADS[workload]
    tracer = None
    PINS.update(json.loads(PINS_FILE.read_text()))
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    result = {"attempted": 0, "failed": 0, "failures": []}
    try:
        state = setup(grtlab, seed)
        t0 = time.perf_counter()
        result["setup_s"] = time.monotonic() - spawn
        if setup_only:
            print(json.dumps(result))
            return 0
        outputs = timed(grtlab, state, tracer)
        t1 = time.perf_counter()
    except Exception:
        # Set-up or the whole timed phase blew up: one failed operation.
        result.update(attempted=1, failed=1,
                      failures=[traceback.format_exc(limit=3)])
        print(json.dumps(result))
        return 0
    result["wall_s"] = t1 - t0
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, t0, t1)
        result["absent"] = sorted(set(tracer.absent) | {
            k for k, v in layers.items() if v is None})
        result["layers"] = {k: (0 if v is None else v)
                            for k, v in layers.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}.jsonl")
    try:
        fails = check(grtlab, state, outputs)
    except Exception:
        fails = [traceback.format_exc(limit=3)] * len(outputs)
    result["attempted"] = len(outputs)
    result["failures"] = [f for f in fails if f]
    result["failed"] = len(result["failures"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
