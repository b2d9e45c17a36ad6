"""Span recorder for one traced ddprach command, kept in the benchmark's files.

The program is not edited: :func:`install` replaces the module attributes
through which each layer calls the next (``ddprach.cli``,
``ddprach.experiments``, ``ddprach.prach_modem`` and ``ddprach.channel``) with
wrappers that record a span per call.  A span has an id, a name, start and
end times, its parent span's id, its thread and the run id; the run id is
the same for every span of one process.
Spans stay in memory and are written out once, by :meth:`Recorder.dump`, when
the command has finished.  :func:`summarize` turns a dump into the per-layer
metrics the benchmark reports.

A span's layer is the part of its name before the first dot.
"""

import collections
import itertools
import json
import math
import threading
import time

LAYERS = (
    "cli",
    "config",
    "experiments",
    "channel",
    "prach_modem",
    "dd_transform",
    "zc",
    "uav_scenario",
    "metrics",
)

# Per-layer metrics that are counts: two traced runs of the same code and
# seed must give identical values.
EXACT_COUNTS = (
    "channel.kaiser_calls",
    "channel.interp_taps",
    "zc.generate_calls",
    "zc.correlate_calls",
    "prach_modem.transmit_calls",
)

# Sub-sample threshold of ``ddprach.channel._fractional_delay``: a tap whose
# delay lies closer than this to the sample grid is applied as a pure shift.
_ON_GRID = 1e-12


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # open ``experiments.run_*`` span: the parent of spans opened on the
        # experiment's worker threads, whose own span stack is empty
        self._root = None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, observe=None, root: bool = False):
        """Return ``fn`` recording a span ``name`` around each call.

        ``observe(args, kwargs, result)`` runs after a successful call and may
        update counters.  ``root`` marks the span that worker-thread spans
        attach to.
        """

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._root
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            if root:
                self._root = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = None
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        threads = {}
        with open(path, "w") as fh:
            json.dump(
                {
                    "counts": dict(self.counts),
                    "spans": [
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": threads.setdefault(thread, len(threads)),
                            "run": self.run_id,
                        }
                        for span_id, name, start, end, parent, thread in self.spans
                    ],
                },
                fh,
            )


class _CountingNumpy:
    """Stand-in for ``numpy`` inside ``ddprach.channel`` that counts ``kaiser``."""

    def __init__(self, numpy, recorder: Recorder):
        self._numpy = numpy
        self._recorder = recorder

    def kaiser(self, *args, **kwargs):
        self._recorder.count("channel.kaiser_calls")
        return self._numpy.kaiser(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._numpy, name)


def install(recorder: Recorder) -> None:
    """Replace the layer entry points of an imported ddprach with spans."""
    import ddprach.channel as channel
    import ddprach.cli as cli
    import ddprach.experiments as experiments
    import ddprach.prach_modem as prach_modem

    def wrap(module, attr, name, **kw):
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), **kw))

    def count_taps(args, kwargs, result):
        waveform, realization = args[0], args[1]
        off_grid = 0
        for tap in realization.taps:
            delay = tap.delay_s * waveform.sample_rate
            mu = delay - math.floor(delay)
            off_grid += _ON_GRID <= mu <= 1.0 - _ON_GRID
        recorder.count("channel.taps", len(realization.taps))
        recorder.count("channel.interp_taps", off_grid)

    def count_detection(args, kwargs, result):
        scheme = args[1].modulation
        recorder.count(f"prach_modem.attempted_{scheme}")
        recorder.count(f"prach_modem.detected_{scheme}", int(result.detected))

    wrap(cli, "main", "cli.main")
    wrap(cli, "load_config", "config.load")
    for runner in ("run_simulate", "run_cdf_sweep", "run_speed_tradeoff"):
        wrap(cli, runner, f"experiments.{runner}", root=True)
    wrap(cli, "write_results_csv", "metrics.write")
    # cdf.csv and speed_tradeoff.csv are written by this private helper
    wrap(cli, "_write_rows", "metrics.write")

    wrap(experiments, "apply_channel", "channel.apply", observe=count_taps)
    wrap(experiments, "add_awgn", "channel.awgn")
    wrap(experiments, "synthesize_scenario_channel", "channel.synthesize")
    wrap(experiments, "transmit", "prach_modem.transmit")
    wrap(
        experiments,
        "receive_and_estimate_toa",
        "prach_modem.receive",
        observe=count_detection,
    )
    for fn in ("build_trajectory", "pitch_angle", "propulsion_power"):
        wrap(experiments, fn, f"uav_scenario.{fn}")
    wrap(experiments, "error_cdf", "metrics.error_cdf")
    wrap(experiments, "rmse", "metrics.rmse")

    wrap(prach_modem, "wigner_demodulate", "dd_transform.wigner")
    wrap(prach_modem, "sfft", "dd_transform.sfft")
    wrap(prach_modem, "isfft", "dd_transform.isfft")
    wrap(prach_modem, "heisenberg_modulate", "dd_transform.heisenberg")
    wrap(prach_modem, "generate_zc", "zc.generate")
    wrap(prach_modem, "circular_correlation", "zc.correlate")
    channel.np = _CountingNumpy(channel.np, recorder)


def _union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def summarize(dump: dict, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced command from its :meth:`Recorder.dump`.

    Times are in milliseconds.  A span's self time is its duration minus the
    part of it that its child spans cover; a layer's self time sums that over
    the layer's spans.
    """
    spans = dump["spans"]
    counts = collections.Counter(dump["counts"])
    children = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    total_ms = collections.Counter()
    calls = collections.Counter()
    self_ms = collections.Counter()
    busy_ms = 0.0
    run_ms = 0.0
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        kids = children.get(span["id"], [])
        covered = _union_length(
            (max(k["start"], span["start"]), min(k["end"], span["end"]))
            for k in kids
        )
        total_ms[name] += 1e3 * duration
        calls[name] += 1
        self_ms[name.split(".", 1)[0]] += 1e3 * (duration - covered)
        if name.startswith("experiments.run_"):
            run_ms += 1e3 * duration
            busy_ms += 1e3 * sum(k["end"] - k["start"] for k in kids)

    def per_call(name):
        return total_ms[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {
        "channel.apply_ms_per_call": per_call("channel.apply"),
        "channel.taps_per_apply": counts["channel.taps"] / max(calls["channel.apply"], 1),
        "channel.interp_taps": counts["channel.interp_taps"],
        "channel.kaiser_calls": counts["channel.kaiser_calls"],
        "channel.awgn_ms_per_call": per_call("channel.awgn"),
        "channel.synthesize_ms_per_call": per_call("channel.synthesize"),
        "prach_modem.receive_ms_per_call": per_call("prach_modem.receive"),
        "prach_modem.transmit_calls": calls["prach_modem.transmit"],
        "prach_modem.transmit_ms": total_ms["prach_modem.transmit"],
        "prach_modem.detected_ratio_otfs": ratio(
            "prach_modem.detected_otfs", "prach_modem.attempted_otfs"
        ),
        "prach_modem.detected_ratio_ofdm": ratio(
            "prach_modem.detected_ofdm", "prach_modem.attempted_ofdm"
        ),
        "dd_transform.wigner_ms_per_call": per_call("dd_transform.wigner"),
        "dd_transform.sfft_ms_per_call": per_call("dd_transform.sfft"),
        "zc.generate_calls": calls["zc.generate"],
        "zc.correlate_calls": calls["zc.correlate"],
        "zc.correlate_ms": total_ms["zc.correlate"],
        "uav_scenario.ms": sum(
            ms for name, ms in total_ms.items() if name.startswith("uav_scenario.")
        ),
        "metrics.write_ms": total_ms["metrics.write"],
        "metrics.error_cdf_ms": total_ms["metrics.error_cdf"],
        "config.load_ms": total_ms["config.load"],
        "experiments.thread_busy_ratio": busy_ms / (run_ms * threads) if run_ms else 0.0,
        "cli.main_ms": total_ms["cli.main"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer]
    return metrics

