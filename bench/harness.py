"""Timing, the per-call limit, spans and metrics of one benchmark run.

Everything runs in one process and one thread.  Every call into the
package goes through :meth:`Recorder.call`, which times it, stops it
with ``SIGALRM`` at the per-call limit, and records its outcome.  A
pass runs every input of a workload once; its answers are checked
against known answers after the pass, outside the timed region, the
first time the call gives one.  A call's time is its best over the
run's passes, scaled by how fast the host ran during the run (see
:class:`Speed`).
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

LAYERS = ("terms", "syntax", "wellformed", "sessions", "machines")
HELPERS = ("gen", "oracles", "zoo")

# The host's speed drifts: for seconds, and at times minutes, every
# piece of work runs up to twice as slowly, CPU time and wall time
# alike.  A run therefore times a fixed probe between inputs, and
# scales every time it reports by how fast the probe ran (see Speed).
PROBE_EVERY_S = 0.05
# the probe's time, as Speed takes it, on the 2-vCPU host the bounds
# were set on; scaled times read as seconds on that host
PROBE_REFERENCE_S = 0.003

DECIDED, UNDECIDED, RAISED, TIMEOUT = "decided", "undecided", "raised", "timeout"

# returned by Recorder.call in place of the result of a call that
# raised or ran past the limit
FAILED = types.SimpleNamespace(name="FAILED")


class CallTimeout(BaseException):
    """Raised by the alarm in a call that runs past the per-call limit.

    A BaseException, so that no ``except Exception`` in the package
    can swallow it."""


_probe_rng = random.Random(1)
PROBE_GRAPH = [(_probe_rng.randrange(2000), _probe_rng.randrange(2000))
               for _ in range(2000)]


def _probe_depth(i, k):
    return 0 if k == 0 else 1 + _probe_depth(PROBE_GRAPH[i][k % 2], k - 1)


def probe_work():
    """Partition refinement of a fixed random graph, in plain Python,
    with no call into ``mpst``: the same kind of work as the package's
    (tuples, dicts, lists, calls), so both slow down together."""
    cls = [i % 3 for i in range(len(PROBE_GRAPH))]
    for _ in range(6):
        sig = {}
        cls = [sig.setdefault((cls[i], cls[a], cls[b]), len(sig))
               for i, (a, b) in enumerate(PROBE_GRAPH)]
    return len(sig) + sum(_probe_depth(i, 40) for i in range(0, 2000, 20))


class Speed:
    """The probe's times over one run.

    A probe runs before each set-up and before an input whenever
    ``PROBE_EVERY_S`` has gone by since the last, never inside a timed
    call.  ``factor()`` is the reference time over the tenth
    percentile of the run's probe times; a low quantile, since the
    run's call times are also taken at their best."""

    def __init__(self):
        self.times = []
        self.last = -float("inf")

    def probe(self):
        start = time.perf_counter()
        probe_work()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def maybe_probe(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def factor(self):
        return PROBE_REFERENCE_S / statistics.quantiles(
            self.times, n=10, method="inclusive")[0]


def load_lib():
    """Import ``mpst`` and the test helpers afresh.

    Earlier imports are dropped first, so repeated set-ups each pay for
    the import, and objects of two imports never meet."""
    for name in list(sys.modules):
        if name == "mpst" or name.startswith("mpst.") or name in HELPERS:
            del sys.modules[name]
    lib = types.SimpleNamespace()
    for name in LAYERS:
        setattr(lib, name, importlib.import_module(f"mpst.{name}"))
    for name in HELPERS:
        setattr(lib, name, importlib.import_module(name))
    return lib


class Call:
    __slots__ = ("input", "name", "start", "end", "outcome", "result",
                 "expect", "work", "error", "key")

    def __init__(self, input_id, name, start, end, outcome, result=None,
                 expect=None, work=0, error=None):
        self.input = input_id
        self.name = name
        self.start = start
        self.end = end
        self.outcome = outcome
        self.result = result
        self.expect = expect
        self.work = work
        self.error = error
        self.key = None


class Recorder:
    """Times and records the calls of one pass.

    With ``traced`` it also records a span for each input and each
    call, as it happens."""

    def __init__(self, limit, undecided, traced=False, speed=None):
        self.limit = limit
        self.speed = speed
        self.undecided = undecided
        self.traced = traced
        self.calls = []
        self.spans = []
        self.input_id = None
        self.input_span = None
        self._armed = False

    def on_alarm(self, signum, frame):
        if self._armed:
            raise CallTimeout()

    def begin_input(self, input_id):
        if self.speed is not None:
            self.speed.maybe_probe()
        self.input_id = input_id
        if self.traced:
            self.input_span = {"id": len(self.spans), "name": "input",
                               "start": time.perf_counter(), "end": None,
                               "parent": None, "input": input_id,
                               "outcome": None, "result": None, "work": 0}
            self.spans.append(self.input_span)

    def end_input(self):
        if self.traced:
            self.input_span["end"] = time.perf_counter()

    def call(self, name, fn, *args, expect=None, work=0):
        """``fn(*args)``, timed and limited; FAILED if it raised or was
        stopped.  ``expect`` checks the result after the pass; ``work``
        is a size, or a function of the result giving one."""
        error = None
        # the timer is set and cleared outside the timed region
        start = end = time.perf_counter()
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            start = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                end = time.perf_counter()
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CallTimeout:
            # a stopped call is timed at the limit
            outcome, result, end = TIMEOUT, FAILED, start + self.limit
        except Exception as err:  # the benchmark keeps going; the error is counted
            outcome, result, error = RAISED, FAILED, type(err).__name__
        else:
            outcome = UNDECIDED if isinstance(result, self.undecided) else DECIDED
        if result is not FAILED and callable(work):
            work = work(result)
        elif result is FAILED and callable(work):
            work = 0
        self.calls.append(Call(self.input_id, name, start, end, outcome,
                               result, expect, work, error))
        if self.traced:
            self.spans.append({"id": len(self.spans), "name": name,
                               "start": start, "end": end,
                               "parent": self.input_span["id"],
                               "input": self.input_id, "outcome": outcome,
                               "result": None if result is FAILED else type(result).__name__,
                               "work": work})
        return result


def run_pass(inputs, rec):
    """Run every input once; returns the pass's wall time and the time
    of each call (None for a stopped call), keyed by input, call name
    and how many calls of that name the input made before it."""
    start = time.perf_counter()
    for input_id, run in inputs:
        rec.begin_input(input_id)
        run(rec)
        rec.end_input()
    wall = time.perf_counter() - start
    durations, seen = {}, {}
    for c in rec.calls:
        k = seen[(c.input, c.name)] = seen.get((c.input, c.name), -1) + 1
        c.key = (c.input, c.name, k)
        durations[c.key] = None if c.outcome == TIMEOUT else c.end - c.start
    return wall, durations


def verify(calls):
    """Compare answers with known answers; returns (checked, wrong)."""
    checked, wrong = 0, []
    for c in calls:
        if c.expect is None or c.result is FAILED:
            continue
        try:
            ok = c.expect(c.result)
        except Exception as err:  # a check that cannot read the result rejects it
            ok = False
            c.error = f"check raised {type(err).__name__}: {err}"
        if ok is None:
            continue
        checked += 1
        if not ok:
            wrong.append(f"{c.input} {c.name}: {c.error or repr(c.result)[:200]}")
    return checked, wrong


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def keep_best(best, durations):
    """Fold one pass's call times into ``best``, each call's least time
    so far (None while every pass has stopped it)."""
    for key, took in durations.items():
        if took is None:
            best.setdefault(key, None)
        elif best.get(key) is None or took < best[key]:
            best[key] = took


def best_times(best, factor, limit):
    """The best call times scaled by ``factor``, a call stopped in
    every pass counting at ``limit``; and the sum of an input's best
    call times, its verdict time."""
    best = {key: limit if took is None else factor * took
            for key, took in best.items()}
    verdicts = {}
    for (input_id, _, _), took in best.items():
        verdicts[input_id] = verdicts.get(input_id, 0.0) + took
    return best, list(verdicts.values())


def end_to_end(passes, best, setup_times, factor, limit):
    """The end-to-end metrics of a run's passes and its best call
    times; times are scaled by the run's speed ``factor``, and a call
    stopped in every pass counts at the ``limit``."""
    best, verdicts = best_times(best, factor, limit)
    counts = {k: sum(p["counts"][k] for p in passes)
              for k in (DECIDED, UNDECIDED, RAISED, TIMEOUT)}
    attempted = sum(counts.values())
    checked = sum(p["checked"] for p in passes)
    wrong = sum(len(p["wrong"]) for p in passes)
    return {
        "setup_s": factor * statistics.median(setup_times),
        "check_s": sum(best.values()),
        "verdict_ms.p50": 1000 * statistics.median(verdicts),
        "verdict_ms.p90": 1000 * statistics.quantiles(verdicts, n=10, method="inclusive")[-1],
        "decided_share": counts[DECIDED] / attempted,
        "error_free_share": 1 - counts[RAISED] / attempted,
        "right_verdict_share": (checked - wrong) / checked if checked else 1.0,
        "peak_rss_mb": peak_rss_mb(),
    }, {"verdict_samples": len(verdicts), "checked": checked, "wrong": wrong,
        "speed_factor": factor,
        **{f"calls_{k}": v for k, v in counts.items()}}


def _per_pass(traced, fn):
    return statistics.median(fn(p["spans"]) for p in traced)


def _seconds(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _rate(traced, name, factor):
    work = time_ = 0.0
    for p in traced:
        for s in p["spans"]:
            if s["name"] == name and s["outcome"] in (DECIDED, UNDECIDED):
                work += s["work"]
                time_ += s["end"] - s["start"]
    return work / (factor * time_) if time_ else 0.0


def _share(traced, name, kind):
    """Share of the calls named ``name`` that returned a ``kind``."""
    spans = [s for p in traced for s in p["spans"] if s["name"] == name]
    return sum(1 for s in spans if s["result"] == kind) / len(spans) if spans else 0.0


def per_layer(traced, untraced, factor):
    """Per-layer metrics from the spans of the traced passes; times
    and rates are scaled by the run's speed ``factor``."""
    def secs(name):
        return factor * _per_pass(traced, lambda spans: _seconds(spans, name))

    def count(prefix, outcome):
        return _per_pass(traced, lambda spans: sum(
            1 for s in spans if s["name"].startswith(prefix) and s["outcome"] == outcome))

    m = {}
    m["syntax.parse.s"] = secs("syntax.parse")
    m["syntax.parse.chars_per_s"] = _rate(traced, "syntax.parse", factor)
    m["syntax.format.s"] = secs("syntax.format")
    m["syntax.errors"] = count("syntax.", RAISED)
    m["terms.key.s"] = secs("terms.key")
    m["terms.key.nodes_per_s"] = _rate(traced, "terms.key", factor)
    m["terms.minimize.s"] = secs("terms.minimize")
    m["terms.bisimilar.s"] = secs("terms.bisimilar")
    for name in ("depth", "bounded", "weight", "read", "dread", "agree",
                 "balanced", "weakly_balanced"):
        m[f"wellformed.{name}.s"] = secs(f"wellformed.{name}")
    m["wellformed.balanced.accept_share"] = _share(traced, "wellformed.balanced", "Accept")
    m["wellformed.timeouts"] = count("wellformed.", TIMEOUT)
    m["wellformed.errors"] = count("wellformed.", RAISED)
    m["sessions.check_liveness.s"] = secs("sessions.check_liveness")
    m["sessions.simulate.s"] = secs("sessions.simulate")
    m["sessions.simulate.steps_per_s"] = _rate(traced, "sessions.simulate", factor)
    m["sessions.check_liveness.verified_share"] = _share(
        traced, "sessions.check_liveness", "Verified")
    m["sessions.check_liveness.horizon_exceeded_share"] = _share(
        traced, "sessions.check_liveness", "HorizonExceeded")
    m["sessions.timeouts"] = count("sessions.", TIMEOUT)
    m["machines.qm_run.s"] = secs("machines.qm_run")
    m["machines.qm_run.steps_per_s"] = _rate(traced, "machines.qm_run", factor)
    m["machines.encode.s"] = secs("machines.encode")
    m["trace.overhead"] = (statistics.median(p["check_s"] for p in traced)
                           / statistics.median(p["check_s"] for p in untraced) - 1)
    return m


# ---------------------------------------------------------------------------
# the run


def git_sha(root: Path) -> str:
    """The commit of a git checkout, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, workload, seed, seconds, trace, limit):
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "per_call_limit_s": limit,
            "git_sha": git_sha(root), "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "recursion_limit": sys.getrecursionlimit()}


SETUPS = 9
SETUPS_PER_PASS = 2
FIRST_PROBES = 10


def measure(build, root, seed, seconds, trace, limit, sizes=None, spans_out=None):
    """Run passes for ``seconds`` seconds, at least one (two when
    traced: passes alternate untraced and traced), each after
    ``SETUPS_PER_PASS`` set-ups of its own, and set up again until
    there have been ``SETUPS``, so that set-ups are spread over the
    run.  Returns the run's result object
    (``correct``, ``attempted``, ``failed``, ``metrics``) and a record
    of details."""
    setup_times = []
    speed = Speed()
    for _ in range(FIRST_PROBES):
        speed.probe()

    def setup():
        gc.collect()
        speed.probe()
        start = time.perf_counter()
        lib = load_lib()
        prepare = build(lib, root, seed) if sizes is None else build(lib, root, seed, sizes)
        setup_times.append(time.perf_counter() - start)
        return lib, prepare

    untraced, traced, answered, best = [], [], set(), {}
    previous = signal.getsignal(signal.SIGALRM)
    deadline = time.perf_counter() + seconds
    try:
        while (not untraced or (trace and not traced)
               or time.perf_counter() < deadline):
            for _ in range(SETUPS_PER_PASS):
                lib, prepare = setup()
            undecided = (lib.wellformed.Unknown, lib.sessions.HorizonExceeded,
                         lib.machines.RunningAfter)
            # the limit is in seconds on the reference host
            rec = Recorder(limit / speed.factor(), undecided, speed=speed,
                           traced=trace and len(untraced) > len(traced))
            signal.signal(signal.SIGALRM, rec.on_alarm)
            inputs = prepare()
            check_s, durations = run_pass(inputs, rec)
            keep_best(best, durations)
            # the package is deterministic: a call's answer is checked
            # the first time it gives one
            fresh = [c for c in rec.calls if c.key not in answered]
            checked, wrong = verify(fresh)
            answered.update(c.key for c in fresh if c.result is not FAILED)
            counts = {k: 0 for k in (DECIDED, UNDECIDED, RAISED, TIMEOUT)}
            for c in rec.calls:
                counts[c.outcome] += 1
            (traced if rec.traced else untraced).append({
                "check_s": check_s, "counts": counts,
                "spans": rec.spans, "checked": checked, "wrong": wrong})
            del rec, inputs, lib, prepare, durations, fresh
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    while len(setup_times) < SETUPS:
        setup()
    metrics, detail = end_to_end(untraced + traced, best, setup_times,
                                 speed.factor(), limit)
    wrong = [w for p in untraced + traced for w in p["wrong"]]
    out = {"correct": not wrong,
           "attempted": detail["calls_decided"] + detail["calls_undecided"]
           + detail["calls_raised"] + detail["calls_timeout"],
           "failed": len(wrong)}
    if trace:
        out["metrics"] = per_layer(traced, untraced, speed.factor())
        if spans_out is not None:
            write_spans(spans_out, traced)
    else:
        out["metrics"] = metrics
    detail["passes"] = len(untraced) + len(traced)
    detail["pass_check_s"] = [round(p["check_s"], 4) for p in untraced + traced]
    detail["probes"] = len(speed.times)
    detail["probe_s"] = {"min": min(speed.times), "median": statistics.median(speed.times)}
    detail["wrong_verdicts"] = wrong[:20]
    return out, detail


def write_spans(path: Path, traced):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for k, p in enumerate(traced):
            base = p["spans"][0]["start"] if p["spans"] else 0.0
            for s in p["spans"]:
                rec = dict(s, start=s["start"] - base, end=s["end"] - base, **{"pass": k})
                fh.write(json.dumps(rec) + "\n")
