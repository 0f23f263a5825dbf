"""Trace exporters — Chrome trace-event JSON, flame text, critical paths.

Three views of one :class:`~repro.obs.tracer.Tracer` event list:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (load ``trace.json`` in Perfetto or
  ``chrome://tracing``). One *process* per tracer track (replica,
  router, viewer, …), one *thread* per lane/sub-track; per-request
  lifetimes are async ``b``/``e`` intervals keyed by ``rid``.
  Serialization is canonical (sorted keys, no whitespace) so same-seed
  DES runs export byte-identical files — the CI determinism gate diffs
  the bytes.
* :func:`flame_text` — an indented who-contains-whom time summary per
  track/thread, for terminals without a trace viewer.
* :func:`critical_paths` — per-request ``queue / batch_form / plan /
  execute / stitch`` breakdowns joined from the request's async interval
  and the batch span that carried it.

:func:`validate_trace` checks the structural invariants the bench gate
pins: spans have non-negative durations and nest properly per thread,
every opened request interval closes exactly once, and cancelled /
failed requests are marked with an outcome.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .tracer import Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "validate_trace",
           "flame_text", "critical_paths"]


def _us(seconds: float) -> float:
    """Seconds -> microseconds, rounded so repr is stable across platforms."""
    return round(seconds * 1e6, 3)


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer's events as a Chrome trace-event dict.

    Tracks become processes (pid = first-seen order), ``tid`` strings
    become per-track thread ids, and ``process_name``/``thread_name``
    metadata events label them so Perfetto shows ``replica0 / interactive``
    instead of ``pid 2 / tid 1``.
    """
    pids = tracer.tracks
    tids: Dict[Tuple[str, str], int] = {}
    out: List[dict] = []

    for track, pid in pids.items():
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": track}})

    for ev in tracer.events:
        track = ev["track"]
        pid = pids[track]
        key = (track, ev["tid"])
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == track]) + 1
            tids[key] = tid
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": tid, "args": {"name": ev["tid"]}})
        ce: dict = {"ph": ev["ph"], "name": ev["name"], "pid": pid,
                    "tid": tid, "ts": _us(ev["ts"])}
        if ev["ph"] == "X":
            ce["dur"] = _us(ev["dur"])
        elif ev["ph"] == "i":
            ce["s"] = "t"
        elif ev["ph"] in ("b", "e"):
            ce["cat"] = ev["cat"]
            ce["id"] = ev["id"]
        if ev.get("args"):
            ce["args"] = ev["args"]
        out.append(ce)

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> dict:
    """Serialize :func:`chrome_trace` to ``path`` in canonical form
    (sorted keys, compact separators) — byte-stable for diffing."""
    trace = chrome_trace(tracer)
    blob = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(blob)
    return trace


def validate_trace(trace: dict) -> List[str]:
    """Structural invariants on an exported Chrome trace.

    Returns a list of human-readable violations (empty == valid):

    * every event has the fields its phase requires; ``X`` durations
      are non-negative;
    * ``X`` spans on one (pid, tid) nest — sorted by start time, each
      span is fully inside or fully outside the enclosing one;
    * async intervals (``b``/``e``) pair exactly 1:1 per (cat, id),
      end not before begin, and every *request* end names its outcome
      (``done`` / ``cancelled`` / ``failed`` / …) in args.
    """
    errors: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]

    spans: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    opens: Dict[Tuple[str, int], List[float]] = {}

    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "i", "b", "e", "M"):
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"event {i} ({ev.get('name')}): missing ts")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i} ({ev.get('name')}): bad dur {dur!r}")
                continue
            spans.setdefault((ev.get("pid"), ev.get("tid")), []).append(
                (ev["ts"], dur, ev.get("name", "?")))
        elif ph == "b":
            opens.setdefault((ev.get("cat"), ev.get("id")), []).append(ev["ts"])
        elif ph == "e":
            key = (ev.get("cat"), ev.get("id"))
            pending = opens.get(key)
            if not pending:
                errors.append(f"event {i} ({ev.get('name')}): async end "
                              f"without begin (id={ev.get('id')})")
                continue
            t0 = pending.pop(0)
            if ev["ts"] < t0:
                errors.append(f"async {key}: ends at {ev['ts']} before "
                              f"begin {t0}")
            if ev.get("cat") == "request":
                outcome = (ev.get("args") or {}).get("outcome")
                if not outcome:
                    errors.append(f"request id={ev.get('id')}: end has no "
                                  "outcome")

    for key, pending in opens.items():
        if pending:
            errors.append(f"async {key}: {len(pending)} begin(s) never closed")

    # 0.01 us tolerance: ts and dur round to ns independently in the
    # exporter, so abutting siblings can disagree by ~0.001 us
    eps = 1e-2
    for (pid, tid), sl in spans.items():
        sl.sort(key=lambda s: (s[0], -s[1]))
        stack: List[Tuple[float, float, str]] = []
        for ts, dur, name in sl:
            while stack and ts >= stack[-1][0] + stack[-1][1] - eps:
                stack.pop()
            if stack:
                p_ts, p_dur, p_name = stack[-1]
                if ts + dur > p_ts + p_dur + eps:
                    errors.append(
                        f"pid {pid} tid {tid}: span {name!r} "
                        f"[{ts},{ts + dur}] overlaps {p_name!r} "
                        f"[{p_ts},{p_ts + p_dur}] without nesting")
            stack.append((ts, dur, name))

    return errors


def flame_text(tracer: Tracer, *, min_seconds: float = 0.0) -> str:
    """Indented inclusive-time summary of the span tree per track/thread.

    Siblings with the same name aggregate (total seconds + call count);
    children indent under their containing span. ``min_seconds`` prunes
    noise rows. Instants and async intervals are omitted — this is the
    where-did-the-time-go view, not the request ledger.
    """
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for ev in tracer.events:
        if ev["ph"] == "X":
            groups.setdefault((ev["track"], ev["tid"]), []).append(ev)

    lines: List[str] = []
    for (track, tid), evs in groups.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        # path tuple -> [seconds, calls]
        agg: Dict[Tuple[str, ...], List[float]] = {}
        stack: List[Tuple[float, float, str]] = []
        for ev in evs:
            ts, dur = ev["ts"], ev["dur"]
            while stack and ts >= stack[-1][0] + stack[-1][1] - 1e-12:
                stack.pop()
            path = tuple(s[2] for s in stack) + (ev["name"],)
            cell = agg.setdefault(path, [0.0, 0])
            cell[0] += dur
            cell[1] += 1
            stack.append((ts, dur, ev["name"]))
        lines.append(f"{track}/{tid}")
        for path in sorted(agg, key=lambda p: (p[:-1], -agg[p][0], p[-1])):
            seconds, calls = agg[path]
            if seconds < min_seconds:
                continue
            indent = "  " * len(path)
            lines.append(f"{indent}{path[-1]:<24s} {seconds:10.6f}s "
                         f"x{int(calls)}")
    return "\n".join(lines)


def critical_paths(tracer: Tracer) -> Dict[int, Dict[str, float]]:
    """Per-request breakdown: where each rid's latency went.

    Joins the request's async interval (begin at admission, end at
    completion) with the ``batch`` span that executed it (batch args
    carry ``rids``) and that batch's child spans::

        queue       admission -> batch start (waiting in the FairQueue)
        batch_form  fit + collate inside the scheduler
        plan        plan-cache miss compile time (0.0 on a hit)
        execute     compiled-graph run
        stitch      scatter back to per-tile maps
        total       admission -> completion
        outcome     done / cancelled / failed / cache_hit / collapsed

    Requests that never reached a batch (cache hits, collapsed twins,
    cancelled while queued) report only ``queue``-less fields: their
    ``total`` and ``outcome`` still appear.
    """
    begins: Dict[int, dict] = {}
    ends: Dict[int, dict] = {}
    batches: List[dict] = []
    children: Dict[Tuple[str, str], List[dict]] = {}

    for ev in tracer.events:
        if ev["ph"] == "b" and ev.get("cat") == "request":
            begins.setdefault(ev["id"], ev)
        elif ev["ph"] == "e" and ev.get("cat") == "request":
            ends.setdefault(ev["id"], ev)
        elif ev["ph"] == "X":
            if ev["name"] == "batch":
                batches.append(ev)
            else:
                children.setdefault((ev["track"], ev["tid"]), []).append(ev)

    # rid -> the batch span that ran it, plus that batch's sub-span totals.
    per_batch: List[Tuple[dict, Dict[str, float]]] = []
    for b in batches:
        inside: Dict[str, float] = {}
        t0, t1 = b["ts"], b["ts"] + b["dur"]
        for ev in children.get((b["track"], b["tid"]), []):
            if ev["ts"] >= t0 - 1e-12 and ev["ts"] + ev["dur"] <= t1 + 1e-12:
                inside[ev["name"]] = inside.get(ev["name"], 0.0) + ev["dur"]
        per_batch.append((b, inside))

    out: Dict[int, Dict[str, float]] = {}
    for rid, bev in sorted(begins.items()):
        eev = ends.get(rid)
        row: Dict[str, float] = {}
        args = bev.get("args") or {}
        end_args = (eev.get("args") or {}) if eev else {}
        row["outcome"] = end_args.get("outcome",
                                      args.get("outcome", "open"))
        if eev is not None:
            row["total"] = eev["ts"] - bev["ts"]
        for b, inside in per_batch:
            rids = (b.get("args") or {}).get("rids") or []
            if rid in rids:
                row["queue"] = b["ts"] - bev["ts"]
                row["batch_form"] = inside.get("batch.form", 0.0)
                row["plan"] = inside.get("plan.compile", 0.0)
                row["execute"] = inside.get("execute", 0.0) \
                    - inside.get("plan.compile", 0.0)
                row["stitch"] = inside.get("stitch", 0.0)
                break
        out[rid] = row
    return out
