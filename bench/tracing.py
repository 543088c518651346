"""Span recording around calls into the probsynth layers, and its reduction.

Wrappers are installed from the benchmark's own files; nothing under
``src/`` changes. A wrapper replaces a public function of one layer
module in the namespace of every *other* probsynth module that holds it
(``cli``, the package ``__init__``, sibling layers), so a span marks a
call that crosses a layer boundary. A few functions the per-layer metrics
need are also wrapped inside their own module (``INTRA_LAYER``). The
wrappers are in place only between ``install`` and ``uninstall``. Spans
stay in memory as tuples ``(name, start, end, parent, note)`` and are
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("corpus", "subsets", "probability", "spacecount", "synth", "xval", "cli")

# Functions wrapped inside their own module as well: the counter call the
# per-(scope, size) metrics need, the split inside validate, and every cli
# command (main dispatches to them through its own globals).
INTRA_LAYER = {
    "spacecount": ("count_admissible",),
    "xval": ("split_corpus",),
    "cli": "*",
}

# Number formatting called once per CSV cell; a span there would cost more
# than the call it measures.
UNWRAPPED = ("probability.fmt12",)

# What a span remembers about its call, beyond the timing.
NOTES = {
    "corpus.load_corpus": lambda args, kwargs, result: len(result.units),
    "spacecount.count_admissible": lambda args, kwargs, result: [args[0].scope, args[1]],
    "subsets.cluster_subsets": lambda args, kwargs, result: [len(result.subsets), len(result.excluded_units)],
    "synth.synthesize": lambda args, kwargs, result: [
        result.nodes_expanded,
        result.nodes_pruned_by_threshold,
        result.rounds,
    ],
}


class Tracer:
    """In-memory span recorder; records while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._replaced: list[tuple] = []  # (module, attribute, original function)

    def _open(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, index: int, name: str, parent: int, start: float, note) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, note)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a setup, a pass, an operation)."""
        index, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(index, name, parent, start, None)

    def wrap(self, name: str, fn):
        note_of = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent, start = tracer._open(name)
            note = None
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(args, kwargs, result)
                return result
            finally:
                tracer._close(index, name, parent, start, note)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer at its boundaries."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "probsynth" or n.startswith("probsynth.")]
        for layer in LAYERS:
            home = importlib.import_module(f"probsynth.{layer}")
            intra = INTRA_LAYER.get(layer, ())
            for fname, fn in list(vars(home).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                if f"{layer}.{fname}" in UNWRAPPED:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for module in modules:
                    if module is home and not (intra == "*" or fname in intra):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._replaced.append((module, attr, fn))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for module, attr, fn in self._replaced:
            setattr(module, attr, fn)
        self._replaced = []


def write_spans(spans: list, path) -> None:
    """One JSON array per span: name, start, end (s), parent index, note."""
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent, note in spans:
            f.write(json.dumps([name, round(start, 7), round(end, 7), parent, note]) + "\n")


class Reduced:
    """Busy time, self time and counts over one list of spans."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.children_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.children_time[parent] += end - start

    def _has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self._matches(self.spans[parent][0], names):
                return True
            parent = self.spans[parent][3]
        return False

    @staticmethod
    def _matches(name: str, names) -> bool:
        if isinstance(names, str):
            return name == names or name.startswith(names + ".")
        return name in names

    def select(self, names) -> list[int]:
        keys = [n for n in self.by_name if self._matches(n, names)]
        return sorted(i for n in keys for i in self.by_name[n])

    def count(self, names) -> int:
        return len(self.select(names))

    def busy(self, names) -> float:
        """Time inside spans of ``names``, nested ones counted once.

        ``names`` is a layer name (every span of that layer) or a tuple of
        exact span names."""
        return sum(
            self.spans[i][2] - self.spans[i][1] for i in self.select(names) if not self._has_ancestor(i, names)
        )

    def self_time(self, layer: str) -> float:
        """Time in the layer not covered by any child span."""
        return sum(self.spans[i][2] - self.spans[i][1] - self.children_time[i] for i in self.select(layer))

    def durations(self, names) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self.select(names)]

    def notes(self, names) -> list:
        return [self.spans[i][4] for i in self.select(names) if self.spans[i][4] is not None]

    def calls(self, names) -> list[tuple]:
        """(duration, note) of each completed call that left a note."""
        return [(self.spans[i][2] - self.spans[i][1], self.spans[i][4])
                for i in self.select(names) if self.spans[i][4] is not None]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method; the value itself for n = 1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _busy(*names):
    return lambda r: r.busy(names) if r.count(names) else None


def _count(*names):
    return lambda r: r.count(names) or None


def _note_sum(name: str, field: int):
    return lambda r: sum(note[field] for note in r.notes((name,))) if r.count((name,)) else None


def _first_note(name: str, field: int):
    return lambda r: r.notes((name,))[0][field] if r.notes((name,)) else None


def _ratio(num, den):
    def f(r):
        a, b = num(r), den(r)
        return None if a is None or not b else a / b

    return f


def _counter_ms(q: int):
    names = ("spacecount.count_admissible",)
    return lambda r: 1000 * percentile(r.durations(names), q) if r.count(names) else None


def _counter_time(pick):
    """Total time of the counter calls whose (scope, size) note ``pick(notes)`` accepts."""

    def f(r):
        calls = r.calls(("spacecount.count_admissible",))
        if not calls:
            return None
        accept = pick([note for _, note in calls])
        picked = [d for d, note in calls if accept(note)]
        return sum(picked) if picked else None

    return f


def _largest_size(notes):
    top = max(size for _, size in notes)
    return lambda note: note[1] == top


def _layer(kind: str, layer: str):
    def f(r):
        if not r.count(layer):
            return None
        return r.busy(layer) if kind == "busy" else r.self_time(layer)

    return f


_expanded = _note_sum("synth.synthesize", 0)
_pruned = _note_sum("synth.synthesize", 1)
_search = _busy("synth.synthesize")


def _visited(r):
    expanded = _expanded(r)
    return None if expanded is None else expanded + _pruned(r)


def _spec_setup(r):
    cli_synth, search = _busy("cli.cmd_synth")(r), _search(r)
    return None if cli_synth is None or search is None else cli_synth - search


# name -> (unit, reduction over one span list); a reduction returns None
# when the spans hold no call into what it measures.
PER_LAYER = {
    "corpus.load_s": ("s", _busy("corpus.load_corpus")),
    "corpus.load_calls": ("count", _count("corpus.load_corpus")),
    "corpus.units_per_s": ("1/s", _ratio(lambda r: sum(r.notes(("corpus.load_corpus",))) or None,
                                         _busy("corpus.load_corpus"))),
    "corpus.gen_s": ("s", _busy("corpus.generate_zipf_corpus", "synth.random_program_corpus")),
    "corpus.save_s": ("s", _busy("corpus.save_corpus")),
    "subsets.cluster_s": ("s", _busy("subsets.cluster_subsets")),
    "subsets.count": ("count", _first_note("subsets.cluster_subsets", 0)),
    "subsets.excluded_units": ("count", _first_note("subsets.cluster_subsets", 1)),
    "probability.tables_s": ("s", _busy("probability.subset_instruction_probs",
                                        "probability.global_instruction_probs")),
    "probability.thresholds_s": ("s", _busy("probability.derive_thresholds")),
    "probability.thresholds_calls": ("count", _count("probability.derive_thresholds")),
    "probability.solution_probs_s": ("s", _busy("probability.solution_probability")),
    "spacecount.calls": ("count", _count("spacecount.count_admissible")),
    "spacecount.call_p50_ms": ("ms", _counter_ms(50)),
    "spacecount.call_p97_ms": ("ms", _counter_ms(97)),
    "spacecount.largest_size_s": ("s", _counter_time(_largest_size)),
    "spacecount.global_busy_s": ("s", _counter_time(lambda notes: lambda note: note[0] == "global")),
    "synth.search_s": ("s", _search),
    "synth.nodes_expanded": ("count", _expanded),
    "synth.nodes_pruned": ("count", _pruned),
    "synth.rounds": ("count", _note_sum("synth.synthesize", 2)),
    "synth.nodes_per_s": ("1/s", _ratio(_expanded, _search)),
    "synth.prune_share": ("ratio", _ratio(_pruned, _visited)),
    "synth.spec_setup_s": ("s", _spec_setup),
    "xval.validate_s": ("s", _busy("xval.validate")),
    "xval.split_s": ("s", _busy("xval.split_corpus")),
    **{f"cli.{cmd}_s": ("s", _busy(f"cli.cmd_{cmd}"))
       for cmd in ("gen", "cluster", "probs", "thresholds", "measure", "validate", "synth")},
    **{f"{layer}.busy_s": ("s", _layer("busy", layer)) for layer in LAYERS},
    **{f"{layer}.self_s": ("s", _layer("self", layer)) for layer in LAYERS},
}

# Metrics the worker measures outside the spans.
EXTRA_UNITS = {
    "synth.evaluate_steps_per_s": "1/s",
    "synth.restart_ratio": "ratio",
    "cli.threads_speedup": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
}


def per_layer_metrics(spans: list, extra: dict) -> dict:
    """Every per-layer metric. One whose layer the workload leaves idle (no
    span, or an ``extra`` value of None) reads 0 and is marked ``idle``."""
    reduced = Reduced(spans)
    values = {name: (unit, reduce(reduced)) for name, (unit, reduce) in PER_LAYER.items()}
    values.update({name: (unit, extra.get(name)) for name, unit in EXTRA_UNITS.items()})
    out = {}
    for name, (unit, value) in values.items():
        out[name] = {"value": value, "unit": unit} if value is not None else {"value": 0, "unit": unit, "idle": True}
    return out
