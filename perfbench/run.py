"""Benchmark of the grtlab stable-space build, its query path and the BCH
filtration.

    python3 perfbench/run.py --workload stable-10 --seed 1 --seconds 40 \\
        --trace 0

Workloads (see ``trial.py`` and ``README.md``): ``stable-10``,
``stable-queries`` and ``filtration-2-6``, plus ``stable-11``, which is
not in BENCHMARK.json.  A run repeats trials, each a fresh interpreter
with cold caches, one at a time, for as long as the next trial is
expected to end within ``--seconds``, then reports the upper quartile
of the trials' timings and the median of their peak RSS.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans recorded around calls
into grtlab) with ``--trace 1``.  Lines before it are a readable summary
and the run record, which is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stable-10", "stable-queries", "filtration-2-6",
             "stable-11")
#: A traced run needs one untraced and one traced trial.
MIN_TRIALS = {False: 1, True: 2}
MIN_SETUPS = 3
#: A run ends within this many seconds of its start, whatever --seconds is.
RUN_CAP_S = 170.0
#: Largest share of the timed phase of a traced stable-space build that may
#: fall outside the per-layer self times (entry-point and cli bookkeeping).
ATTRIBUTION_REMAINDER = 0.02

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class MissingProgram(Exception):
    """The checkout holds no importable grtlab."""


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_trial(workload, seed, traced, setup_only, timeout) -> dict:
    """Start one trial process, wait for it, and return its report.  A
    trial that crashes or times out counts as one failed operation."""
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "trial.py"), workload, str(seed),
           "1" if traced else "0", repr(spawn)]
    if setup_only:
        cmd.append("--setup-only")
    load = _loadavg()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "traced": traced,
                "failures": [f"trial timed out after {timeout:.0f} s"],
                "loadavg": load, "duration_s": time.monotonic() - spawn}
    if proc.returncode == 3:
        raise MissingProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"attempted": 1, "failed": 1, "failures": [
            f"trial exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    report.update(traced=traced, loadavg=load,
                  duration_s=time.monotonic() - spawn)
    return report


def measure(workload, seed, seconds, trace) -> tuple[list, list]:
    """Trials while the next one, taking as long as the last, would end
    within ``seconds`` (and at least MIN_TRIALS), then set-up-only trials
    until MIN_SETUPS set-ups were timed.  With ``trace`` the trials
    alternate untraced and traced."""
    start = time.monotonic()
    deadline = start + RUN_CAP_S
    trials: list[dict] = []
    while True:
        now = time.monotonic()
        last = trials[-1]["duration_s"] if trials else 0.0
        if (len(trials) >= MIN_TRIALS[trace]
                and now + last - start > seconds):
            break
        if trials and now + 1.25 * last > deadline:
            break
        traced = trace and len(trials) % 2 == 1
        trials.append(run_trial(workload, seed, traced, False,
                                deadline - now))
    setups: list[dict] = []
    if not trace:
        while sum("setup_s" in t for t in trials + setups) < MIN_SETUPS:
            now = time.monotonic()
            last = (setups or trials)[-1]
            if now + 1.25 * last.get("setup_s", last["duration_s"]) \
                    > deadline:
                break
            setups.append(run_trial(workload, seed, False, True,
                                    deadline - now))
    return trials, setups


def upper_quartile(values):
    """The timing a run reports.  The host's speed has a sharp slowest
    state with faster spells of seconds to minutes in between, so the
    upper quartile of a run's trials finds that state more steadily than
    the median does (README.md, "Steadiness")."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def summarize(workload, trials, setups, trace) -> tuple[dict, list]:
    metrics: dict = {}
    notes: list = []
    plain = [t for t in trials if not t["traced"] and "wall_s" in t]
    if not trace:
        for name, values, stat in (
                ("wall_s", [t["wall_s"] for t in plain], upper_quartile),
                ("setup_s", [t["setup_s"] for t in trials + setups
                             if "setup_s" in t], upper_quartile),
                ("peak_rss_mb", [t["peak_rss_mb"] for t in plain],
                 statistics.median)):
            if values:
                metrics[name] = {"value": stat(values),
                                 "unit": END_TO_END_UNITS[name]}
        return metrics, notes
    traced = [t for t in trials if t["traced"] and "layers" in t]
    for name, unit in spans.UNITS.items():
        values = [t["layers"][name] for t in traced if name in t["layers"]]
        if values:
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    walls = [t["wall_s"] for t in trials if t["traced"] and "wall_s" in t]
    if walls and plain:
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(walls)
                      - statistics.median([t["wall_s"] for t in plain])),
            "unit": "s"}
    share = metrics.get("trace.unattributed_share", {}).get("value")
    if workload in ("stable-10", "stable-11") and share is not None:
        ok = abs(share) <= ATTRIBUTION_REMAINDER
        notes.append(f"attribution: per-layer self times leave {share:.4f} "
                     f"of the traced wall time unattributed (allowed "
                     f"{ATTRIBUTION_REMAINDER}): {'ok' if ok else 'FAILED'}")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grtlab" / "__init__.py").is_file():
        print(f"no grtlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        trials, setups = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except MissingProgram as e:
        print(f"grtlab failed to import:\n{e}", file=sys.stderr)
        return 2
    metrics, notes = summarize(args.workload, trials, setups,
                               bool(args.trace))
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials + setups)
    attempted = max(attempted, failed, 1)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "operations_per_trial": [t["attempted"] for t in trials],
        "error_rate": failed / attempted,
        "trials": [{k: t.get(k) for k in ("traced", "loadavg", "duration_s",
                                          "setup_s", "wall_s",
                                          "peak_rss_mb", "failed")}
                   for t in trials],
        "setup_only_trials": [{k: t.get(k) for k in ("loadavg", "setup_s")}
                              for t in setups],
        "failures": [f for t in trials + setups for f in t["failures"]][:20],
        "absent": sorted({a for t in trials for a in t.get("absent", [])}),
        "notes": notes,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload:15} {name:32} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:15} {'error_rate':32} {record['error_rate']:.6g}"
          f" ratio ({failed}/{attempted})")
    for line in notes:
        print(line)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
