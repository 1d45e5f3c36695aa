"""In-memory span recorder and the wrappers that put sievesim's layers under it.

A span is one call across a layer boundary: its name (``module.function``),
a key (the ``expand_tree`` threshold, else ``None``), start and end on
``time.monotonic`` (CLOCK_MONOTONIC, shared by every process on Linux, so
spans from pool workers line up with the parent's), its self time (duration
minus the time of the spans it called), a work count (draws, nodes, points,
bytes, rows), its depth below the runner and the name of the span that
called it.

Wrappers are installed on the names the consumer modules bound at import,
so the program itself is unchanged.  Spans stay in memory and are written
once, by the process that ran the CLI, after it returns.
"""

from __future__ import annotations

import functools
import math
import os
import time

now = time.monotonic

# expand_tree points reported separately: the theorem-main log n values
TREE_POINTS = ("logn50", "logn150", "logn400")


def _size_draws(size) -> int:
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(int(s) for s in size)
    return int(size)


class Recorder:
    """Span list plus the stack of open spans of this process."""

    def __init__(self, base_depth: int = 0, root: str | None = None):
        self.spans: list[tuple] = []
        # frame: [name, start, time covered by child spans]
        self._stack: list[list] = []
        self._base_depth = base_depth
        self._root = root

    def call(self, name, key, fn, args, kwargs, count_fn):
        frame = [name, now(), 0.0]
        self._stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            end = now()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
        count = count_fn(out, args, kwargs)
        parent = self._stack[-1][0] if self._stack else self._root
        self.spans.append((name, key, frame[1], end, dur - frame[2], count,
                           self._base_depth + len(self._stack), parent))
        return out


RECORDER = Recorder()


def _wrap(fn, name, count_fn, key_fn=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        key = key_fn(args, kwargs) if key_fn else None
        return RECORDER.call(name, key, fn, args, kwargs, count_fn)
    traced.__wrapped_by_perfbench__ = True
    return traced


# ------------------------------------------------------------- work counts

def _draws_at(pos):
    def count(out, args, kwargs):
        return _size_draws(args[pos] if len(args) > pos else kwargs.get("size"))
    return count


def _nodes_kept(tree, args, kwargs):
    return int(sum(level.size for level in tree.neglogs))


def _leaves(result, args, kwargs):
    tree = args[0]
    return int(tree.neglogs[tree.max_level - 1].size)


def _n_draws(out, args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["n_draws"])


def _replica_bins(grid, args, kwargs):
    n_replicas = args[3] if len(args) > 3 else kwargs["n_replicas"]
    return int(n_replicas) * int(grid.values.size)


def _walk_points(walk, args, kwargs):
    return int(walk.t_values.size)


def _one(out, args, kwargs):
    return 1


def _emitted_bytes(paths, args, kwargs):
    return int(sum(os.path.getsize(p) for p in paths))


def _report_rows(report, args, kwargs):
    return len(report.rows)


def _threshold_key(args, kwargs):
    return kwargs.get("neglog_threshold")


# ----------------------------------------------------------------- install

def install(runners: dict) -> None:
    """Wrap every layer entry point that the benchmark workloads reach.

    ``runners`` is ``cli._RUNNERS``; its entries become ``cli.runner``
    spans.  Installing twice is a no-op.
    """
    from sievesim import harness, occupancy, perturbed_walk, renewal_numerics, stable_paths

    if getattr(harness.emit, "__wrapped_by_perfbench__", False):
        return
    targets = [
        # (module, attribute, span name, count, key)
        (occupancy, "sample_w_pair", "distributions.sample_w_pair", _draws_at(2), None),
        (renewal_numerics, "sample_w_pair", "distributions.sample_w_pair", _draws_at(2), None),
        (perturbed_walk, "sample_w_pair", "distributions.sample_w_pair", _draws_at(2), None),
        (renewal_numerics, "sample_xi", "distributions.sample_xi", _draws_at(2), None),
        (stable_paths, "sample_positive_stable", "distributions.sample_positive_stable",
         _draws_at(3), None),
        (harness, "sample_positive_stable", "distributions.sample_positive_stable",
         _draws_at(3), None),
        (occupancy, "expand_tree", "occupancy.expand_tree", _nodes_kept, _threshold_key),
        (occupancy, "occupancy_poissonized", "occupancy.occupancy_poissonized", _leaves, None),
        (stable_paths, "sample_limit_integrals", "stable_paths.sample_limit_integrals",
         _n_draws, None),
        (stable_paths, "sample_fixed_level_limits", "stable_paths.sample_fixed_level_limits",
         _n_draws, None),
        (renewal_numerics, "estimate_V", "renewal_numerics.estimate_V", _replica_bins, None),
        (renewal_numerics, "convolution_powers", "renewal_numerics.convolution_powers",
         _one, None),
        (perturbed_walk, "generate_walk", "perturbed_walk.generate_walk", _walk_points, None),
        (perturbed_walk, "weighted_sum_statistic", "perturbed_walk.weighted_sum_statistic",
         _one, None),
        (harness, "emit", "harness.emit", _emitted_bytes, None),
    ]
    for module, attr, name, count_fn, key_fn in targets:
        setattr(module, attr, _wrap(getattr(module, attr), name, count_fn, key_fn))
    for command, runner in runners.items():
        if runner is not None:
            runners[command] = _wrap(runner, "cli.runner", _report_rows)
    harness._map_chunks = _wrap_map_chunks(harness._map_chunks)


class TracedChunk:
    """Picklable chunk worker that returns the spans it recorded.

    Pool workers record into their own memory; the spans travel back with
    each chunk's result and join the parent's list at depth 1, under the
    runner that fanned the chunks out.
    """

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, args):
        global RECORDER
        from sievesim import cli
        install(cli._RUNNERS)  # a spawned worker starts from a fresh import
        outer, RECORDER = RECORDER, Recorder(base_depth=1, root="cli.runner")
        try:
            result = self.worker(args)
            return result, RECORDER.spans
        finally:
            RECORDER = outer


def _wrap_map_chunks(map_chunks):
    @functools.wraps(map_chunks)
    def traced(worker, args_list, workers):
        out = []
        for result, spans in map_chunks(TracedChunk(worker), args_list, workers):
            RECORDER.spans.extend(spans)
            out.append(result)
        return out
    traced.__wrapped_by_perfbench__ = True
    return traced


# ------------------------------------------------------------ aggregation

def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, threshold_labels: dict) -> dict:
    """Per-layer metrics from one traced CLI run.

    ``spans`` are ``(name, key, start, end, self_s, count, depth, parent)``
    tuples;
    ``threshold_labels`` maps an ``expand_tree`` threshold to its point
    label, one of TREE_POINTS.  Rates over zero work are reported as 0.
    """
    by_name: dict[str, dict] = {}
    for name, _key, start, end, self_s, count, _depth, _parent in spans:
        agg = by_name.setdefault(name, {"calls": 0, "count": 0, "self_s": 0.0,
                                        "total_s": 0.0})
        agg["calls"] += 1
        agg["count"] += count
        agg["self_s"] += self_s
        agg["total_s"] += end - start

    def get(name, field):
        return by_name.get(name, {}).get(field, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    for name in ("distributions.sample_w_pair", "distributions.sample_positive_stable"):
        calls, draws = get(name, "calls"), get(name, "count")
        m[f"{name}.calls"] = calls
        m[f"{name}.draws"] = draws
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.ns_per_draw"] = ratio(get(name, "total_s"), draws, 1e9)
        m[f"{name}.draws_per_call"] = ratio(draws, calls)

    tree = "occupancy.expand_tree"
    m[f"{tree}.calls"] = get(tree, "calls")
    m[f"{tree}.self_s"] = get(tree, "self_s")
    m[f"{tree}.nodes_kept"] = get(tree, "count")
    per_point = {label: [0.0, 0] for label in TREE_POINTS}
    for name, key, start, end, _self, count, _depth, _parent in spans:
        if name == tree:
            point = per_point[_label_for(key, threshold_labels)]
            point[0] += end - start
            point[1] += count
    for label, (seconds, nodes) in per_point.items():
        m[f"{tree}.ns_per_node.{label}"] = ratio(seconds, nodes, 1e9)
    # W-pair draws made inside expand_tree: each is one attempted child
    tree_draws = sum(s[5] for s in spans
                     if s[0] == "distributions.sample_w_pair" and s[7] == tree)
    m["occupancy.nodes_per_draw"] = ratio(get(tree, "count"), tree_draws)
    poi = "occupancy.occupancy_poissonized"
    m[f"{poi}.self_s"] = get(poi, "self_s")
    m[f"{poi}.ns_per_leaf"] = ratio(get(poi, "total_s"), get(poi, "count"), 1e9)

    lim, fix = "stable_paths.sample_limit_integrals", "stable_paths.sample_fixed_level_limits"
    m[f"{lim}.self_s"] = get(lim, "self_s")
    m[f"{fix}.self_s"] = get(fix, "self_s")
    increments = sum(s[5] for s in spans
                     if s[0] == "distributions.sample_positive_stable"
                     and s[7] in (lim, fix))
    m["stable_paths.increments"] = increments
    m["stable_paths.ns_per_increment"] = ratio(
        get(lim, "total_s") + get(fix, "total_s"), increments, 1e9)

    est, conv = "renewal_numerics.estimate_V", "renewal_numerics.convolution_powers"
    m[f"{est}.self_s"] = get(est, "self_s")
    m[f"{est}.ns_per_replica_bin"] = ratio(get(est, "total_s"), get(est, "count"), 1e9)
    m[f"{est}.bytes_computed"] = 8 * get(est, "count")
    m[f"{conv}.self_s"] = get(conv, "self_s")

    walk, wsum = "perturbed_walk.generate_walk", "perturbed_walk.weighted_sum_statistic"
    m[f"{walk}.calls"] = get(walk, "calls")
    m[f"{walk}.self_s"] = get(walk, "self_s")
    m[f"{walk}.points"] = get(walk, "count")
    m[f"{wsum}.self_s"] = get(wsum, "self_s")

    runner = [s for s in spans if s[0] == "cli.runner"]
    covered = _union_length((s[2], s[3]) for s in spans if s[6] == 1)
    m["harness.self_s"] = sum(s[3] - s[2] for s in runner) - covered
    m["harness.rows"] = sum(s[5] for s in runner)
    m["harness.emit.self_s"] = get("harness.emit", "self_s")
    m["harness.emit.bytes"] = get("harness.emit", "count")
    return m


def _label_for(key, labels: dict) -> str:
    for threshold, label in labels.items():
        if key is not None and abs(key - threshold) <= 1e-9 * threshold:
            return label
    raise KeyError(f"expand_tree threshold {key!r} matches no workload point")
