"""Shared pieces of the repository benchmark: layer probes, percentiles,
set-up timing, correctness comparison and the host record.

Nothing here changes the program under test. Layer timings come from
wrapping public callables (instance attributes or module functions) for
the duration of a traced run and restoring them afterwards.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

CLOCK = time.monotonic     # the engine's default clock; every stamp uses it


# -- statistics -------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default), 0.0 when empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the ``q`` percentile of ``n`` samples."""
    return int(n - np.ceil(n * q / 100.0))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Process peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], object], repeats: int,
                 teardown: Callable[[object], None]) -> tuple:
    """Run ``build`` ``repeats`` times; return (median seconds, last system,
    every run's seconds).

    Every system but the last is torn down, so the measured set-up is the
    full cost a user pays per start, and the last one serves the run.
    """
    seconds: List[float] = []
    system = None
    for i in range(repeats):
        t0 = time.perf_counter()
        system = build()
        seconds.append(time.perf_counter() - t0)
        if i + 1 < repeats:
            teardown(system)
    return median(seconds), system, seconds


def compare_maps(got: np.ndarray, want: np.ndarray, class_map) -> bool:
    """Served probabilities against a fresh reference: class maps equal and
    probabilities within 1e-6."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    if not np.array_equal(class_map(got), class_map(want)):
        return False
    return bool(np.max(np.abs(got - want)) <= 1e-6) if got.size else True


# -- host record ----------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except Exception:           # older NumPy: no dict mode
        return "unknown"


def environment() -> dict:
    """What the numbers were measured on, recorded with every result."""
    import scipy
    return {"nproc": os.cpu_count() or 1, "cpu": _cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _blas(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- layer probes -----------------------------------------------------------
class Probe:
    """Times calls into layer entry points by wrapping them in place.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` with a timing
    wrapper: on an instance this shadows the class method, so calls the
    object makes on itself (``self.detail_map_batch(...)``) are caught too;
    on a module it replaces the global that callers in that module use.
    Each wrapped call adds to the name's inclusive total and, via a
    per-thread stack, to its *self* time (inclusive minus the wrapped calls
    nested in it), so self times of all names never double count.
    :meth:`restore` puts every original back.

    With a tracer, each call is also recorded as a span on the ``bench``
    track (one lane per thread) so the Chrome trace shows the layers.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[tuple] = []
        #: (cache key or None, natural APF length) per image preprocessed
        self.lengths: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        shadowed = attr in vars(owner)
        probe = self

        def timed(*args, **kwargs):
            stack = probe._stack()
            stack.append(0.0)
            t0 = CLOCK()
            try:
                out = original(*args, **kwargs)
            finally:
                t1 = CLOCK()
                dt = t1 - t0
                nested = stack.pop()
                with probe._lock:
                    probe.total[name] += dt
                    probe.self_time[name] += dt - nested
                if stack:
                    stack[-1] += dt
                if probe.tracer is not None:
                    probe.tracer.complete(name, "bench", t0, t1,
                                          tid=threading.current_thread().name)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, shadowed, original))

    def restore(self) -> None:
        for owner, attr, shadowed, original in reversed(self._undo):
            if shadowed:              # module global or own attribute
                setattr(owner, attr, original)
            else:                     # instance shadow of a class method
                delattr(owner, attr)
        self._undo.clear()

    def self_sum(self) -> float:
        with self._lock:
            return sum(self.self_time.values())

    def tokens_per_image(self, upto: Optional[int] = None) -> float:
        """Mean APF length of the images preprocessed, each keyed image
        counted once (so the figure depends only on the inputs)."""
        seen, plain = {}, []
        for key, n in self.lengths[:upto]:
            if key is None:
                plain.append(n)
            else:
                seen[key] = n
        values = plain + list(seen.values())
        return float(np.mean(values)) if values else 0.0


def wrap_pipeline(probe: Probe, pipeline) -> None:
    """Time one PatchPipeline: ``process``, the batched patcher's stages and
    the content digest used inside the pipeline module; record the natural
    length of every sequence ``process`` returns."""
    import repro.pipeline.engine as pipeline_engine

    def record(args, kwargs, out):
        keys = args[1] if len(args) > 1 else kwargs.get("keys")
        keys = keys if keys is not None else [None] * len(out)
        with probe._lock:
            probe.lengths.extend((k, len(s)) for k, s in zip(keys, out))

    probe.wrap(pipeline, "process", "pipeline.process", on_return=record)
    patcher = pipeline.patcher
    probe.wrap(patcher, "detail_map_batch", "pipeline.detail")
    probe.wrap(patcher, "build_tree_batch", "pipeline.tree")
    probe.wrap(patcher, "extract_natural_batch", "pipeline.extract")
    probe.wrap(pipeline_engine, "content_key", "pipeline.digest")


def span_seconds(events: Sequence[dict]) -> Dict[str, list]:
    """Durations of the tracer's closed spans (``ph == "X"``) by name."""
    out: Dict[str, list] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            out[ev["name"]].append(ev["dur"])
    return out


def coverage(probe: Probe, tracer, wall: float) -> float:
    """``trace.coverage``: layer self times over wall time. The scheduler's
    ``batch.form``/``execute``/``stitch`` spans never overlap a probed call
    (``plan.compile`` nests inside ``execute``)."""
    spans = span_seconds(tracer.events)
    sched = sum(sum(spans.get(n, [])) for n in ("batch.form", "execute",
                                                 "stitch"))
    return (probe.self_sum() + sched) / wall


def layer_metrics(probe: Probe, tracer, units: int,
                  ops: Sequence[str]) -> Dict[str, float]:
    """The per-layer metrics every workload shares, per unit of work.

    ``pipeline.preprocess_s`` is PatchPipeline.process minus the digests
    nested in it; detail/tree/extract are the batched patcher's stages as
    self times; ``runtime.execute_s`` is the scheduler's ``execute`` span
    minus the plan compiles nested in it. ``tracer`` is the traced run's
    ``Tracer(profile_kernels=True)``.
    """
    n = max(units, 1)
    spans = span_seconds(tracer.events)
    kernels = tracer.kernels.summary()
    st, tot = probe.self_time, probe.total
    compile_s = sum(spans.get("plan.compile", []))
    execute_s = sum(spans.get("execute", [])) - compile_s
    gflops = sum(k["gflops"] for k in kernels.values())
    kernel_s = sum(k["seconds"] for k in kernels.values())
    out = {
        "pipeline.preprocess_s": (st["pipeline.process"]
                                  + tot["pipeline.extract"]) / n,
        "pipeline.detail_s": tot["pipeline.detail"] / n,
        "pipeline.tree_s": st["pipeline.tree"] / n,
        "pipeline.extract_s": st["pipeline.extract"] / n,
        "pipeline.digest_s": (tot["pipeline.digest"]
                              + tot["engine.digest"]) / n,
        "runtime.execute_s": execute_s / n,
        "runtime.gflop_per_s": gflops / kernel_s if kernel_s > 0 else 0.0,
        "scheduler.batches": len(spans.get("batch.form", [])) / n,
        "scheduler.batch_form_s": sum(spans.get("batch.form", [])) / n,
        "scheduler.stitch_s": sum(spans.get("stitch", [])) / n,
        "scheduler.plan_compiles": len(spans.get("plan.compile", [])) / n,
        "scheduler.compile_s": compile_s / n,
    }
    for op in ops:
        out[f"runtime.op.{op}_s"] = kernels.get(op, {}).get("seconds", 0.0) / n
    return out
