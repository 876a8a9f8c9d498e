"""Spans around calls into ``grtlab``, recorded from outside the package.

:class:`Tracer` rebinds each hook point (a function name) in every
``grtlab`` module namespace that holds it, so callers that resolve the name
at call time go through a wrapper that records a span: name, start, end,
parent span, operation id and, for the per-degree stages, the degree
argument.  Spans stay in memory; :meth:`Tracer.write` dumps them once the
trial is over and :func:`layer_metrics` folds them into per-layer numbers.

A hook point that no longer exists (a later refactor renamed or deleted
it) is skipped and the metrics that depend on it are reported as absent
rather than failing the run.  ``_basis_bracket`` and ``_merge_scaled`` run
millions of times and are never wrapped; their caches are read through
``cache_info()`` instead.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# (defining module, attribute, span name, probe).  The probe names extra
# data the wrapper records: "degree" keeps the first argument, "rss" the
# growth of ru_maxrss across the call, "shape" the input matrix shape.
HOOKS = [
    ("grtlab.cli", "run", "cli.run", None),
    ("grtlab.ihara", "freeness_table", "ihara.freeness_table", None),
    ("grtlab.ihara", "special_dim", "ihara.special_dim", None),
    ("grtlab.ihara", "special_basis", "ihara.special_basis", None),
    ("grtlab.ihara", "soule_generator", "ihara.soule_generator", None),
    ("grtlab.ihara", "check_congruence", "ihara.check_congruence", None),
    ("grtlab.malcev", "filtration_report", "malcev.filtration_report", None),
    ("grtlab.ihara", "_stable_pairs", "ihara.stable_pairs", "degree"),
    ("grtlab.ihara", "_hex_pairs", "ihara.hex", "degree"),
    ("grtlab.ihara", "_special_pair_matrix", "ihara.special.matrix", None),
    ("grtlab.ihara", "_pentagon_rows", "ihara.pentagon.eval", "rss"),
    ("grtlab.ihara", "_symmetry_rows", "ihara.symmetry", None),
    ("grtlab.ihara", "special_witness", "ihara.witness", None),
    ("grtlab.ihara", "is_stable", "ihara.is_stable", None),
    ("grtlab.ihara", "ihara_bracket", "ihara.bracket", None),
    ("grtlab.derivations", "Derivation.apply", "derivations.apply", None),
    ("grtlab.lie", "bracket", "lie.bracket", None),
    ("grtlab.lie", "substitute", "lie.substitute", None),
    ("grtlab.linalg", "kernel_basis", "linalg.kernel", "shape"),
    ("grtlab.linalg", "reduced_echelon", "linalg.echelon", None),
    ("grtlab.linalg", "smith_normal_form", "linalg.smith", None),
    ("grtlab.malcev", "bch", "malcev.bch", None),
    ("grtlab.malcev", "universal_bch", "malcev.universal_bch", None),
]

# Spans that only orchestrate library calls.  Their self time is not a
# layer's work; it is what the attribution check leaves unexplained.
ENTRY_SPANS = {"cli.run", "ihara.freeness_table", "ihara.special_dim",
               "ihara.special_basis", "ihara.soule_generator",
               "ihara.check_congruence", "malcev.filtration_report"}

NAME, START, END, PARENT, OP, ARG = range(6)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _matrix_shape(m):
    """(rows, cols, nonzeros, largest bit length) of a list-of-rows input,
    None for anything else."""
    if not isinstance(m, (list, tuple)):
        return None
    rows = len(m)
    cols = len(m[0]) if rows else 0
    nnz = 0
    bits = 0
    for row in m:
        for x in row:
            if x:
                nnz += 1
                if isinstance(x, int):
                    b = abs(x).bit_length()
                else:
                    b = max(abs(x.numerator).bit_length(),
                            x.denominator.bit_length())
                if b > bits:
                    bits = b
    return rows, cols, nnz, bits


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrapper(self, fn, name, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    None]
            if probe == "degree":
                span[ARG] = args[0] if args else None
            elif probe == "shape":
                span[ARG] = _matrix_shape(args[0] if args else None)
            elif probe == "rss":
                span[ARG] = (args[0] if args else None, _maxrss_mb())
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if probe == "rss":
                    n, before = span[ARG]
                    span[ARG] = (n, _maxrss_mb() - before)

        return traced

    def install(self) -> None:
        """Wrap every hook point that exists in the loaded package."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "grtlab" or k.startswith("grtlab.")) and m]
        for modname, attr, name, probe in HOOKS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self._wrapper(orig, name, probe)
            if cls_name:
                self._rebind(owner, meth, orig, wrapped)
            else:
                # Every module that imported the name holds its own
                # binding; rebind each one that refers to the original.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, orig, wrapped)
            self.installed.add(name)

    def _rebind(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i] + s) + "\n")


#: Per-layer metrics and their units, in report order.
UNITS = {
    "ihara.pentagon.eval_s": "s", "ihara.pentagon.eval_s.top": "s",
    "ihara.pentagon.cut_s": "s", "ihara.pentagon.cut_s.top": "s",
    "ihara.hex.total_s.top": "s", "ihara.special.matrix_s": "s",
    "ihara.special.kernel_s": "s", "ihara.special.kernel_s.top": "s",
    "ihara.symmetry_s": "s", "linalg.echelon_s": "s",
    "ihara.witness_s": "s", "ihara.is_stable_s": "s",
    "ihara.bracket_s": "s", "derivations.apply_s": "s",
    "lie.bracket_s": "s", "lie.bracket.calls": "count",
    "lie.substitute_s": "s", "lie.substitute.calls": "count",
    "lie.basis_bracket.misses": "count",
    "lie.basis_bracket.hit_ratio": "ratio",
    "lie.basis_bracket.entries": "count",
    "words.lyndon.misses": "count",
    "words.std_factorization.misses": "count",
    "linalg.kernel_s": "s", "linalg.kernel.calls": "count",
    "linalg.kernel.max_rows": "count", "linalg.kernel.max_cols": "count",
    "linalg.kernel.nnz": "count", "linalg.kernel.max_bits": "bit",
    "linalg.smith_s": "s", "linalg.smith.calls": "count",
    "malcev.bch_s": "s", "malcev.bch.calls": "count",
    "malcev.universal_bch_s": "s",
    "ihara.act_cache.entries": "count", "ihara.eval_cache.entries": "count",
    "ihara.pentagon.eval.rss_mb": "MiB", "cli.overhead_s": "s",
    "trace.unattributed_share": "ratio", "trace.overhead_s": "s",
}

# metric -> span whose summed self time it is
SELF_TIME = {
    "ihara.pentagon.eval_s": "ihara.pentagon.eval",
    "ihara.special.matrix_s": "ihara.special.matrix",
    "ihara.symmetry_s": "ihara.symmetry",
    "linalg.echelon_s": "linalg.echelon",
    "ihara.witness_s": "ihara.witness",
    "ihara.is_stable_s": "ihara.is_stable",
    "ihara.bracket_s": "ihara.bracket",
    "derivations.apply_s": "derivations.apply",
    "lie.bracket_s": "lie.bracket",
    "lie.substitute_s": "lie.substitute",
    "linalg.kernel_s": "linalg.kernel",
    "linalg.smith_s": "linalg.smith",
    "malcev.bch_s": "malcev.bch",
    "malcev.universal_bch_s": "malcev.universal_bch",
    "cli.overhead_s": "cli.run",
}
# metric -> span whose calls it counts
CALLS = {
    "lie.bracket.calls": "lie.bracket",
    "lie.substitute.calls": "lie.substitute",
    "linalg.kernel.calls": "linalg.kernel",
    "linalg.smith.calls": "linalg.smith",
    "malcev.bch.calls": "malcev.bch",
}
# metric -> (module, lru_cache-wrapped function, cache_info field)
CACHES = {
    "lie.basis_bracket.misses": ("grtlab.lie", "_basis_bracket", "misses"),
    "lie.basis_bracket.hit_ratio": ("grtlab.lie", "_basis_bracket", None),
    "lie.basis_bracket.entries": ("grtlab.lie", "_basis_bracket",
                                  "currsize"),
    "words.lyndon.misses": ("grtlab.words", "_lyndon_tuples", "misses"),
    "words.std_factorization.misses": ("grtlab.words", "_std_factorization",
                                       "misses"),
}


def _cache_counter(modname: str, attr: str, field):
    """A cache_info() field, the hit ratio when ``field`` is None, or None
    when the cache is gone."""
    info = getattr(getattr(sys.modules.get(modname), attr, None),
                   "cache_info", None)
    if info is None:
        return None
    ci = info()
    if field is None:
        total = ci.hits + ci.misses
        return ci.hits / total if total else 0.0
    return getattr(ci, field)


def layer_metrics(tr: Tracer, timed_start: float, timed_end: float) -> dict:
    """Per-layer numbers of one traced trial; None marks a metric whose
    hook point is gone.  Timings cover the whole trial (set-up and timed
    phase); ``trace.unattributed_share`` compares the layer self times
    inside the timed phase with its wall time."""
    spans = tr.spans

    def dur(s):
        return s[END] - s[START]

    child_total = [0.0] * len(spans)
    # The cut is _stable_pairs minus its hex, eval and echelon children.
    not_cut = [0.0] * len(spans)
    cut_children = {"ihara.hex", "ihara.pentagon.eval", "linalg.echelon"}
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child_total[p] += dur(s)
            if (s[NAME] in cut_children
                    and spans[p][NAME] == "ihara.stable_pairs"):
                not_cut[p] += dur(s)

    # The ``.top`` metrics are the shares of the highest degree built.
    top = max((s[ARG] for s in spans if s[NAME] == "ihara.stable_pairs"
               and isinstance(s[ARG], int)), default=None)
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self_in_timed = 0.0
    cut = cut_top = kern_hex = kern_hex_top = hex_top = eval_top = rss = 0.0
    shapes = []
    for i, s in enumerate(spans):
        name = s[NAME]
        own = dur(s) - child_total[i]
        selfs[name] = selfs.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name not in ENTRY_SPANS and s[START] >= timed_start:
            layer_self_in_timed += own
        if name == "ihara.stable_pairs":
            cut += dur(s) - not_cut[i]
            if s[ARG] == top:
                cut_top += dur(s) - not_cut[i]
        elif name == "ihara.pentagon.eval":
            rss += s[ARG][1]
            if s[ARG][0] == top:
                eval_top += dur(s)
        elif name == "ihara.hex" and s[ARG] == top:
            hex_top += dur(s)
        elif name == "linalg.kernel":
            if s[ARG] is not None:
                shapes.append(s[ARG])
            p = s[PARENT]
            if p >= 0 and spans[p][NAME] == "ihara.hex":
                kern_hex += dur(s)
                if spans[p][ARG] == top:
                    kern_hex_top += dur(s)

    def hooked(span, value):
        return value if span in tr.installed else None

    m = {k: hooked(span, selfs.get(span, 0.0))
         for k, span in SELF_TIME.items()}
    m.update((k, hooked(span, calls.get(span, 0)))
             for k, span in CALLS.items())
    m.update((k, _cache_counter(*where)) for k, where in CACHES.items())
    m.update({
        "ihara.pentagon.eval_s.top": hooked("ihara.pentagon.eval", eval_top),
        "ihara.pentagon.eval.rss_mb": hooked("ihara.pentagon.eval", rss),
        "ihara.pentagon.cut_s": hooked("ihara.stable_pairs", cut),
        "ihara.pentagon.cut_s.top": hooked("ihara.stable_pairs", cut_top),
        "ihara.hex.total_s.top": hooked("ihara.hex", hex_top),
        "ihara.special.kernel_s": hooked("ihara.hex", kern_hex),
        "ihara.special.kernel_s.top": hooked("ihara.hex", kern_hex_top),
    })
    for k, field in (("linalg.kernel.max_rows", 0),
                     ("linalg.kernel.max_cols", 1),
                     ("linalg.kernel.nnz", 2),
                     ("linalg.kernel.max_bits", 3)):
        m[k] = hooked("linalg.kernel",
                      max((x[field] for x in shapes), default=0))
    ihara = sys.modules.get("grtlab.ihara")
    act = getattr(ihara, "_ACT_ON_WORD", None)
    m["ihara.act_cache.entries"] = None if act is None else len(act)
    evc = getattr(ihara, "_EVAL_CACHE", None)
    m["ihara.eval_cache.entries"] = (None if evc is None
                                     else sum(len(c) for c in evc))
    wall = timed_end - timed_start
    m["trace.unattributed_share"] = (1 - layer_self_in_timed / wall
                                     if wall > 0 else 0.0)
    return m
