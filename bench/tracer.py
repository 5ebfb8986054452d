"""Span tracer for the benchmark's traced run.

The tracer wraps subtod's public functions in the modules that import them
(``subtod.iteration.detect_subgoals``, ``subtod.evaluate.query``, ...) plus
the ``generate`` method of the backend instance the CLI builds, and records one
span per call: id, name, start, end, parent span id and goal id. Spans stay in
memory until the job ends. Nothing inside ``src/`` changes.

Self time is wall time: a span is "self-active" while none of its children
runs, and each instant of wall time is split evenly between the spans that are
self-active at that instant (on different ``--workers`` threads). The self
times of all spans therefore sum exactly to the duration of the root spans,
which is the traced job time minus the wrapper's residual.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Span tuple fields.
ID, NAME, START, END, PARENT, GOAL, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.keys: dict[str, set] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def current(self) -> int:
        return getattr(self._local, "span", 0)

    def wrap(self, name, fn, *, goal=None, info=None, key=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``.

        ``goal(args)`` gives the call's goal id, ``info(result)`` a small
        number kept with the span, and ``key(args, kwargs)`` a hashable
        request key whose distinct values are counted per span name.
        """
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        keys = self.keys.setdefault(name, set()) if key else None

        def traced(*args, **kwargs):
            parent = getattr(local, "span", 0)
            sid = next(ids)
            local.span = sid
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                local.span = parent
                spans.append(
                    (
                        sid,
                        name,
                        start,
                        end,
                        parent,
                        goal(args) if goal else None,
                        info(result) if info and result is not None else None,
                    )
                )
                if keys is not None:
                    keys.add(key(args, kwargs))

        return traced

    def run_under(self, parent: int, fn):
        """``fn`` wrapped to run as a child of span ``parent`` on any thread."""
        local = self._local

        def adopted(*args, **kwargs):
            saved = getattr(local, "span", 0)
            local.span = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.span = saved

        return adopted

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span[:GOAL + 1]))
                handle.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced subtod function where its callers look it up."""
    from subtod import cli, evaluate, iteration, sampling, subgoals
    from subtod.model import normalize_value

    def patch(modules, attr, name, **kwargs):
        for module in modules:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kwargs))

    def goal_of_source(args):
        return args[0].goal_id

    patch([cli], "load_corpus", "corpus.load_corpus")
    patch([cli], "dialog_to_dict", "corpus.dialog_to_dict")
    patch([cli], "dialog_from_dict", "corpus.dialog_from_dict")
    patch([cli], "cmd_detect", "cli.cmd_detect")
    patch([cli], "run_iteration", "iteration.run_iteration")
    patch([cli, iteration], "build_group", "iteration.build_group", goal=goal_of_source)
    patch([iteration], "predict_greedy", "iteration.predict_greedy")
    patch([iteration], "sample_turn", "sampling.sample_turn", goal=lambda args: args[1].goal_id)
    patch([iteration], "assemble_candidates", "subgoals.assemble_candidates", info=len)
    patch([iteration], "label_success", "subgoals.label_success", goal=goal_of_source)
    patch([cli, iteration], "detect_subgoals", "subgoals.detect_subgoals", goal=goal_of_source)
    patch([cli, iteration], "emit_sft", "subgoals.emit", info=len)
    patch([cli, iteration], "emit_dpo", "subgoals.emit", info=len)
    patch([subgoals], "dialog_success", "evaluate.dialog_success", info=int)
    patch([iteration], "evaluate_corpus", "evaluate.evaluate_corpus")
    patch([subgoals], "replace_turn", "model.replace_turn")
    patch([evaluate], "query", "model.query",
          key=lambda args, kwargs: (
              args[1],
              tuple(sorted((slot, normalize_value(v)) for slot, v in args[2].items())),
          ))
    for module in (sampling, iteration, subgoals):
        for attr in ("serialize_state_prompt", "serialize_act_prompt"):
            if hasattr(module, attr):
                patch([module], attr, "verbalize.serialize")
    for module in (sampling, iteration):
        for attr in ("parse_state", "parse_act_response"):
            patch([module], attr, "verbalize.parse", info=lambda parsed: len(parsed.diagnostics))

    for module in (cli, iteration):
        write = module.write_jsonl
        to_candidates = tracer.wrap("corpus.write_candidates", write)
        to_dataset = tracer.wrap("iteration.write_jsonl", write)

        def traced_write(path, records, _candidates=to_candidates, _dataset=to_dataset):
            write_one = _candidates if Path(path).name == "candidates.jsonl" else _dataset
            return write_one(path, records)

        module.write_jsonl = traced_write

    make_backend = cli._make_backend

    def make_traced_backend(args, corpus):
        backend = make_backend(args, corpus)
        backend.generate = tracer.wrap(
            "backends.generate",
            backend.generate,
            info=len,
            key=lambda a, k: (a[0], a[1], k.get("greedy"), k.get("seed")),
        )
        return backend

    cli._make_backend = tracer.wrap("backends.construct", make_traced_backend)

    # Goals run on map_goals' thread pool: each goal gets its own span whose
    # parent is the map_goals span, whichever thread runs it.
    for module in (cli, iteration):
        map_goals = getattr(module, "map_goals")

        def traced_map_goals(goal_ids, fn, workers, _map_goals=map_goals):
            goal_fn = tracer.wrap("iteration.goal", fn, goal=lambda args: args[0])
            return _map_goals(goal_ids, tracer.run_under(tracer.current(), goal_fn), workers)

        module.map_goals = tracer.wrap("iteration.map_goals", traced_map_goals)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Wall-clock self time per span id (see the module docstring)."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    events = []
    for span in spans:
        sid = span[ID]
        cursor = span[START]
        for start, end in sorted(children.get(sid, ())):
            if start > cursor:
                events.append((cursor, 1, sid))
                events.append((start, 0, sid))
            cursor = max(cursor, end)
        if span[END] > cursor:
            events.append((cursor, 1, sid))
            events.append((span[END], 0, sid))
    # Ends (0) sort before starts (1) at equal times.
    events.sort()
    out: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    last = 0.0
    for t, starts, sid in events:
        if active and t > last:
            share = (t - last) / len(active)
            for running in active:
                out[running] += share
        last = t
        if starts:
            active.add(sid)
        else:
            active.discard(sid)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, *, candidates_bytes: int) -> dict:
    """Per-layer metrics of one traced job, plus the self time of every span name.

    The stub server's counts (``backends.server_busy_s`` and the metrics
    derived from it) are added by the caller, which owns the server.
    """
    spans = tracer.spans
    by_id = {span[ID]: span for span in spans}
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total_info: dict[str, int] = defaultdict(int)
    generate_ms: list[float] = []
    goal_ms: dict[str, float] = defaultdict(float)
    evals = {"subgoals.label_success": 0, "subgoals.detect_subgoals": 0}
    flips = 0
    for span in spans:
        name = span[NAME]
        length = span[END] - span[START]
        busy[name] += length
        self_s[name] += own.get(span[ID], 0.0)
        calls[name] += 1
        if span[INFO] is not None:
            total_info[name] += span[INFO]
        if name == "backends.generate":
            generate_ms.append(1000.0 * length)
        if name in ("iteration.build_group", "subgoals.detect_subgoals"):
            goal_ms[span[GOAL]] += 1000.0 * length
        if name == "evaluate.dialog_success":
            parent = by_id.get(span[PARENT])
            caller = parent[NAME] if parent else ""
            if caller in evals:
                evals[caller] += 1
                if caller == "subgoals.detect_subgoals" and span[INFO] == 0:
                    flips += 1

    n_calls = calls["backends.generate"]
    distinct = len(tracer.keys.get("backends.generate", ()))
    busy_s = busy["backends.generate"]
    splices = calls["model.replace_turn"]
    goal_values = list(goal_ms.values())
    roots = sum(span[END] - span[START] for span in spans if span[PARENT] == 0)
    metrics = {
        "corpus.load_s": busy["corpus.load_corpus"],
        "corpus.candidates_write_s": busy["corpus.dialog_to_dict"]
        + busy["corpus.write_candidates"],
        "corpus.candidates_read_s": self_s["cli.cmd_detect"] + busy["corpus.dialog_from_dict"],
        "corpus.candidates_mb": candidates_bytes / 1e6,
        "backends.calls": n_calls,
        "backends.completions": total_info["backends.generate"],
        "backends.distinct_calls": distinct,
        "backends.distinct_share": distinct / n_calls if n_calls else 0.0,
        "backends.busy_s": busy_s,
        "backends.call_p50_ms": percentile(generate_ms, 50),
        "backends.call_p99_ms": percentile(generate_ms, 99),
        "backends.construct_s": busy["backends.construct"],
        "verbalize.serialize_s": busy["verbalize.serialize"],
        "verbalize.parse_s": busy["verbalize.parse"],
        "verbalize.parse_calls": calls["verbalize.parse"],
        "verbalize.parse_diagnostics": total_info["verbalize.parse"],
        "sampling.turns": calls["sampling.sample_turn"],
        "sampling.turn_s": busy["sampling.sample_turn"],
        "sampling.self_s": self_s["sampling.sample_turn"],
        "subgoals.detect_s": busy["subgoals.detect_subgoals"],
        "subgoals.detect_self_s": self_s["subgoals.detect_subgoals"],
        "subgoals.splices": splices,
        "subgoals.flips": flips,
        "subgoals.flip_share": flips / splices if splices else 0.0,
        "subgoals.candidates": total_info["subgoals.assemble_candidates"],
        "subgoals.assemble_s": busy["subgoals.assemble_candidates"],
        "subgoals.label_s": busy["subgoals.label_success"],
        "subgoals.emit_s": busy["subgoals.emit"],
        "subgoals.records": total_info["subgoals.emit"],
        "evaluate.label_evals": evals["subgoals.label_success"],
        "evaluate.detect_evals": evals["subgoals.detect_subgoals"],
        "evaluate.dialog_success_s": busy["evaluate.dialog_success"],
        "evaluate.dev_eval_s": busy["evaluate.evaluate_corpus"],
        "model.query_calls": calls["model.query"],
        "model.query_distinct": len(tracer.keys.get("model.query", ())),
        "model.query_s": busy["model.query"],
        "model.replace_turn_calls": splices,
        "iteration.build_group_s": busy["iteration.build_group"],
        "iteration.goal_p50_ms": percentile(goal_values, 50),
        "iteration.goal_p99_ms": percentile(goal_values, 99),
        "iteration.dev_predict_s": busy["iteration.predict_greedy"],
        "iteration.write_s": busy["iteration.write_jsonl"],
        "iteration.self_s": self_s["iteration.run_iteration"]
        + self_s["iteration.map_goals"]
        + self_s["iteration.goal"],
        "cli.self_s": self_s["cli.main"],
        "trace.spans": len(spans),
    }
    return {"metrics": metrics, "self_by_span": dict(self_s), "roots_s": roots}
