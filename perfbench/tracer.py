"""Outside-in tracer for the facegroup package.

The tracer wraps package functions at the names their callers look them
up under (``engine.recommend``, ``train.recommend``, ``bench.recommend``
and so on), records one span per call, and restores every original on
``restore``. Nothing inside ``src/`` is edited: the spans are taken around
the calls into each layer, from the benchmark's own files.

A span is (name, start, end, parent, album). Spans are kept in compact
arrays while the run goes on; self time, counts and the span file are
derived once at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import Counter

import numpy as np

from facegroup import bench, core, engine, features, learn, metrics, train

# The package re-exports the function ``recommend`` under the module's name.
recommend = importlib.import_module("facegroup.recommend")

MARKER = "__perfbench_wrapped__"


def _rows(args, kwargs):
    X = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return np.shape(X)[0]


def _live_pairs(args, kwargs):
    groups = args[0].partition.n_groups
    return groups * (groups - 1) // 2


# (owner, attribute, span name, counters taken from the arguments). Every
# name a package module imports by name is wrapped where it is looked up.
# ``predict_many`` and ``decision_many`` are wrapped on the class and rows
# are counted only there, because ``predict`` and ``decision`` call them.
TARGETS = [
    (bench, "simulate", "bench.simulate", None),
    (bench, "save_model", "bench.model_io", None),
    (bench, "load_model", "bench.model_io", None),
    (bench, "score_album", "metrics.score", None),
    (bench, "run_episode", "engine.episode", None),
    (engine, "recommend", "recommend", {"live_pairs": _live_pairs}),
    (train, "recommend", "recommend", {"live_pairs": _live_pairs}),
    (bench, "recommend", "recommend", {"live_pairs": _live_pairs}),
    (recommend, "pair_distance", "features.pair_distance", None),
    (engine, "extract_features", "features.extract", None),
    (train, "extract_features", "features.extract", None),
    (features.AlbumContext, "__init__", "features.context", None),
    (engine, "transition", "core.transition", None),
    (train, "transition", "core.transition", None),
    (bench, "transition", "core.transition", None),
    (engine, "ground_truth_action", "core.expert", None),
    (train, "ground_truth_action", "core.expert", None),
    # ground_truth_action imports metrics.op_cost inside its body
    (metrics, "op_cost", "metrics.op_cost", None),
    (engine, "op_cost", "metrics.op_cost", None),
    (train, "op_cost", "metrics.op_cost", None),
    (learn.ForestModel, "predict_many", "learn.forest_predict", {"rows": _rows}),
    (learn.SvmModel, "decision_many", "learn.svm_decision", {"rows": _rows}),
    (train, "svm_fit", "learn.svm_fit", {"rows": lambda a, k: np.shape(a[0])[0]}),
    (train, "forest_fit", "learn.forest_fit", {"rows": lambda a, k: np.shape(a[0])[0]}),
    (train, "expert_trajectory", "train.expert_trajectory", None),
    (train, "irl_train", "train.irl", None),
    (train, "q_train", "train.q", None),
]

# Spans whose callees are not recorded: scoring normalises with
# ``metrics.op_cost`` (through the module global that the expert's lazy
# import also reads), and those calls are the scorer's, not the expert's.
OPAQUE = {"metrics.score"}

# Counters read from a call's result: span name -> {counter: fn(result)}.
RESULT_COUNTERS = {
    "engine.episode": {"steps": lambda r: len(r.steps)},
    "train.irl": {
        "irl_epochs": lambda r: r.epochs_run,
        "mistake_set_size": lambda r: r.mistake_set_size,
    },
    "train.q": {"q_experiences": lambda r: r.n_experiences},
}


def wrapped_names() -> list[str]:
    """Targets currently replaced by a tracing wrapper (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in TARGETS
        if getattr(getattr(owner, attr), MARKER, False)
    ]


class Tracer:
    """Records spans for every call into the wrapped targets.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions, even when the traced code raises.
    """

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.album = array("l")
        self.albums: list[str] = []
        self._album_code: dict[str, int] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._opaque = 0  # depth of open OPAQUE spans
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _album_of(self, args) -> int:
        if args and isinstance(args[0], core.Album):
            aid = args[0].album_id
            code = self._album_code.get(aid)
            if code is None:
                code = self._album_code[aid] = len(self.albums)
                self.albums.append(aid)
            return code
        return self.album[self._stack[-1]] if self._stack else -1

    def _open(self, name: str, args=()) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.album.append(self._album_of(args))
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, album: core.Album | None = None):
        """A span opened by the benchmark itself, around its own steps."""
        idx = self._open(name, (album,) if album is not None else ())
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name, arg_counters):
        result_counters = RESULT_COUNTERS.get(name, {})
        counters = self.counters
        opaque = name in OPAQUE

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = self._open(name, args)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self._close(idx)
            if arg_counters:
                for key, count in arg_counters.items():
                    counters[f"{name}.{key}"] += count(args, kwargs)
            for key, count in result_counters.items():
                counters[f"{name.split('.')[0]}.{key}"] += count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARKER, True)
        return wrapper

    def __enter__(self) -> "Tracer":
        if wrapped_names():
            raise RuntimeError("another tracer is installed")
        for owner, attr, name, arg_counters in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, arg_counters))
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def _durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of its children.

        Calls nest on one thread, so children never overlap each other.
        """
        dur = self._durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.shape[0])
        return dur - covered

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the counters."""
        codes = np.frombuffer(self.name_code, dtype=np.int32)
        selfs = np.bincount(codes, weights=self.self_times(), minlength=len(self.names))
        calls = np.bincount(codes, minlength=len(self.names))
        out: dict[str, float] = {}
        for code, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[code])
            out[f"{name}.self_s"] = float(selfs[code])
        out.update(self.counters)
        return out

    def calls_under(self, root: str) -> Counter:
        """Calls per span name among the spans whose outermost span is ``root``."""
        roots = array("l", bytes(8 * len(self.parent)))
        for i, p in enumerate(self.parent):
            roots[i] = i if p < 0 else roots[p]
        code = self._code.get(root)
        return Counter(
            self.names[self.name_code[i]]
            for i in range(len(roots))
            if roots[i] != i and self.name_code[roots[i]] == code
        )

    def inclusive_s(self, name: str) -> float:
        """Summed wall time of the spans called ``name``, children included,
        leaving out those whose parent has the same name."""
        code = self._code.get(name)
        if code is None:
            return 0.0
        codes = np.frombuffer(self.name_code, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = self._durations()
        mine = codes == code
        outer = mine & ~np.isin(parent, np.flatnonzero(mine))
        return float(dur[outer].sum())

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, album."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\talbum\n")
            for i in range(len(self.start)):
                album = self.album[i]
                fh.write(
                    f"{self.names[self.name_code[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                    f"{self.albums[album] if album >= 0 else ''}\n"
                )
