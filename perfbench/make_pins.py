"""Regenerate ``pins.json``, the exact values the benchmark checks.

The committed pins were taken at the commit that introduced the
benchmark; regenerate them only to pin a deliberate change of output.

    python3 perfbench/make_pins.py > perfbench/pins.json
"""

import json
import sys

import trial

sys.path.insert(0, str(trial.ROOT / "src"))
import grtlab  # noqa: E402
import grtlab.cli  # noqa: E402


def main() -> None:
    res = grtlab.cli.run(["ihara", "freeness", "--max-degree", "11"])
    basis = {n: grtlab.special_basis(n) for n in range(2, 12)}
    brackets = {}
    for left, right in trial.QUERY_PAIRS:
        for (m1, i1), (m2, i2) in ((left, right), (right, left)):
            out = grtlab.ihara_bracket(basis[m1][i1], basis[m2][i2])
            brackets[f"{m1}.{i1}|{m2}.{i2}"] = trial.element_digest([out])
    filt = grtlab.cli.run(["malcev", "filtration", "--family", "FreeGroup",
                           "--params", "2,6"])
    pins = {
        "stable_dims_2_11": [r["computed"] for r in res.payload["rows"]],
        "basis_digest_2_10": trial.element_digest(
            [f for n in range(2, 11) for f in basis[n]]),
        "basis_digest_2_11": trial.element_digest(
            [f for n in range(2, 12) for f in basis[n]]),
        "bracket_digests": brackets,
        "filtration_ranks_2_6": [r["rank"] for r in filt.payload["rows"]],
    }
    print(json.dumps(pins, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
