"""Spans around the public functions of each fedkme layer, kept in memory.

Nothing inside fedkme is edited: each function is replaced, for the length
of one traced sample, by a wrapper bound to the name its *caller* looks up
(``cli``, ``fedsim`` and ``qagg`` import by name, so ``cli.run_protocol_all``
and ``fedsim.embed`` are the names that get called).

A span records its name, its parent span, its thread and its start and end.
A span whose own thread has no open span (a job on a pool worker) takes the
open span of the thread that created the tracer as its parent.  Self time is
a span's duration minus the union of its children's intervals, so two
overlapping worker jobs under ``cmd_run`` are not subtracted twice.

Raw-data reads are counted through fedkme's public ``audit_raw_access``: each
job opens one audit window on its own thread, and a span's read count is the
growth of that window's log while the span was open.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from fedkme import cli, data, embedding, fedsim, qagg


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    thread: int
    start: float
    end: float
    reads: int
    extra: object


def _featurized(args, kwargs, result):
    Z = np.ascontiguousarray(args[1])
    return Z.shape[0], hashlib.sha1(Z.tobytes()).hexdigest()


def _steps(args, kwargs, result):
    return args[1].t


def _ledger(args, kwargs, result):
    return result[1]


# (module whose namespace the caller reads, attribute, span name, extractor)
_TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "cmd_run", "cli.cmd_run", None),
    (cli, "_safe_job", "cli.job", None),
    (cli, "gen_concept_shift", "datagen.gen_concept_shift", None),
    (cli, "concept_shift_test_sets", "datagen.concept_shift_test_sets", None),
    (cli, "gen_covariate_shift", "datagen.gen_covariate_shift", None),
    (cli, "covariate_shift_test_sets", "datagen.covariate_shift_test_sets", None),
    (cli, "run_protocol_all", "fedsim.run_protocol_all", _ledger),
    (cli, "charge_fedavg", "fedsim.charge_fedavg", None),
    (cli, "baseline_weights", "fedsim.baseline_weights", None),
    (fedsim.CommLedger, "write_csv", "fedsim.ledger_write", None),
    (fedsim, "sample_rff", "rff.sample_rff", None),
    (embedding, "featurize_matrix", "rff.featurize_matrix", _featurized),
    (fedsim, "embed", "embedding.embed", None),
    (fedsim, "local_features", "embedding.local_features", None),
    (qagg, "q_stat", "embedding.q_stat", None),
    (fedsim, "learn_weights", "qagg.learn_weights", None),
    (qagg, "build_problem", "qagg.build_problem", None),
    (qagg, "operator_norm", "qagg.operator_norm", None),
    (qagg, "optimize", "qagg.optimize", _steps),
    (cli, "fit_weighted", "models.fit_weighted", None),
    (cli, "fedavg", "models.fedavg", None),
    (cli, "evaluate", "models.evaluate", None),
)


class Tracer:
    """Records spans for one traced sample; ``patched()`` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _log(self):
        return getattr(self._local, "log", None)

    def wrap(self, name, fn, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            log = self._log()
            reads0 = len(log) if log is not None else 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                reads = len(log) - reads0 if log is not None and log is self._log() else 0
                extra = extract(args, kwargs, result) if extract is not None and result is not None else None
                self.spans.append(Span(name, span_id, parent, threading.get_ident(), start, end, reads, extra))

        return wrapper

    def _job(self, fn):
        """A pool job: one audit window on the job's thread counts its raw reads."""
        traced = self.wrap("cli.job", fn)

        @functools.wraps(fn)
        def job(*args, **kwargs):
            with data.audit_raw_access() as log:
                self._local.log = log
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._local.log = None

        return job

    @contextmanager
    def patched(self):
        """Install every wrapper for the length of the block, then restore."""
        with ExitStack() as restore:
            for owner, attr, name, extract in _TARGETS:
                original = getattr(owner, attr, None)
                if original is None:  # renamed or removed by a later version
                    self.missing.append(name)
                    continue
                wrapper = self._job(original) if name == "cli.job" else self.wrap(name, original, extract)
                setattr(owner, attr, wrapper)
                restore.callback(setattr, owner, attr, original)
            yield self


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - _covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


def summarize(tracer: Tracer, threads: int) -> dict[str, float]:
    """Additive sums for one traced sample; ``per_layer`` turns them into metrics."""
    spans = tracer.spans
    own = self_times(spans)
    sums: dict[str, float] = defaultdict(float)
    distinct: dict[str, int] = {}
    ledgers = []
    for s in spans:
        sums[f"self:{s.name}"] += own[s.span_id]
        sums[f"calls:{s.name}"] += 1
        sums[f"reads:{s.name}"] += s.reads
        sums[f"layer:{s.name.split('.')[0]}"] += own[s.span_id]
        if s.name == "rff.featurize_matrix" and s.extra is not None:
            rows, digest = s.extra
            sums["rff.rows"] += rows
            distinct[digest] = rows
        elif s.name == "qagg.optimize" and s.extra is not None:
            sums["qagg.steps"] += s.extra
        elif s.name == "fedsim.run_protocol_all" and s.extra is not None:
            ledgers.append(s.extra)
        elif s.name == "cli.job":
            sums["job_s"] += s.end - s.start
            sums["data.reads"] += s.reads
        elif s.name == "cli.cmd_run":
            sums["cmd_run_thread_s"] += threads * (s.end - s.start)
    sums["rff.distinct_rows"] = float(sum(distinct.values()))
    sums["fedsim.ledger_entries"] = float(sum(len(ledger.entries) for ledger in ledgers))
    sums["self_total"] = float(sum(own.values()))
    return dict(sums)


_SELF_TIMES = {
    "datagen.busy_s": ("datagen.gen_concept_shift", "datagen.concept_shift_test_sets",
                       "datagen.gen_covariate_shift", "datagen.covariate_shift_test_sets"),
    "cli.self_s": ("cli.main", "cli.cmd_run", "cli.job"),
    "rff.sample_s": ("rff.sample_rff",),
    "rff.featurize_s": ("rff.featurize_matrix",),
    "embedding.embed_s": ("embedding.embed",),
    "embedding.local_features_s": ("embedding.local_features",),
    "embedding.q_stat_s": ("embedding.q_stat",),
    "qagg.learn_weights_s": ("qagg.learn_weights",),
    "qagg.build_problem_s": ("qagg.build_problem",),
    "qagg.operator_norm_s": ("qagg.operator_norm",),
    "qagg.optimize_s": ("qagg.optimize",),
    "models.fit_weighted_s": ("models.fit_weighted",),
    "models.fedavg_s": ("models.fedavg",),
    "models.evaluate_s": ("models.evaluate",),
    "fedsim.self_s": ("fedsim.run_protocol_all",),
    "fedsim.ledger_write_s": ("fedsim.ledger_write",),
    "fedsim.charge_fedavg_s": ("fedsim.charge_fedavg",),
    "fedsim.baseline_weights_s": ("fedsim.baseline_weights",),
}

LAYERS = ("cli", "datagen", "fedsim", "rff", "embedding", "qagg", "models")


def per_layer(sums: dict[str, float], reps: int) -> dict[str, float]:
    """Per-repetition layer metrics from the summed ``summarize`` output."""
    def get(key):
        return sums.get(key, 0.0)

    out = {name: sum(get(f"self:{s}") for s in spans) / reps for name, spans in _SELF_TIMES.items()}
    rows = get("rff.rows")
    out.update({
        "cli.thread_busy_ratio": get("job_s") / get("cmd_run_thread_s") if get("cmd_run_thread_s") else 0.0,
        "rff.featurized_rows": rows / reps,
        # 0 where nothing is featurized (the poly2 path)
        "rff.featurize_useful_ratio": get("rff.distinct_rows") / rows if rows else 0.0,
        "embedding.q_stat_calls": get("calls:embedding.q_stat") / reps,
        "qagg.optimize_calls": get("calls:qagg.optimize") / reps,
        "qagg.steps_total": get("qagg.steps") / reps,
        "models.fit_calls": get("calls:models.fit_weighted") / reps,
        "models.raw_reads": sum(get(f"reads:models.{f}") for f in ("fit_weighted", "fedavg", "evaluate")) / reps,
        "fedsim.ledger_entries": get("fedsim.ledger_entries") / reps,
        "data.raw_reads": get("data.reads") / reps,
        "trace.self_sum_s": get("self_total") / reps,
    })
    return out


def layer_shares(sums: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the summed self time of all spans."""
    total = sums.get("self_total", 0.0)
    return {layer: (sums.get(f"layer:{layer}", 0.0) / total if total else 0.0) for layer in LAYERS}
