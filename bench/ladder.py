"""Baseline sweep: single calls on the scaling families over a ladder
of sizes, the growth of their time, and where they run out of stack.

Each call gets a freshly built input and runs at the interpreter's
default recursion limit; a time is the median of ``REPEATS`` calls.
The output is stored in ``bench/ladder.txt``.
"""

from __future__ import annotations

import math
import sys
import time

import families as F
import harness

RING = (100, 200, 400, 800)
CHAIN = (100, 200, 400, 600)
DIAMONDS = (6, 7, 8)
PAIRS = (2, 3)
HORIZONS = (4, 5, 6)
THRESHOLD_RANGE = (1, 2000)
REPEATS = 3


def timed(fn, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except RecursionError:
        return time.perf_counter() - start, "RecursionError"
    return time.perf_counter() - start, type(result).__name__


def median_of(make, n):
    """Median time of ``REPEATS`` calls ``make(n)``, and an outcome."""
    runs = [make(n) for _ in range(REPEATS)]
    times = sorted(t for t, _ in runs)
    return times[len(times) // 2], runs[-1][1]


def growth(sizes, times):
    """Time ratio per doubling of the size between neighbouring rungs."""
    out = []
    for (n1, t1), (n2, t2) in zip(zip(sizes, times), zip(sizes[1:], times[1:])):
        out.append((t2 / t1) ** (1 / math.log2(n2 / n1)) if t1 > 0 else float("nan"))
    return out


def recursion_threshold(raises, lo, hi):
    """Smallest n in [lo, hi] for which ``raises(n)``, by bisection; None
    when even ``hi`` passes."""
    if not raises(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if raises(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def sweep(title, sizes, calls, scale=lambda n: n):
    """``calls`` maps a name to a function of the size that makes one
    call; growth is given per doubling of ``scale(size)``."""
    print(f"\n## {title}")
    print(f"{'call':28s} " + " ".join(f"{n:>12}" for n in sizes) + "   ratio per doubling")
    for name, make in calls.items():
        rows = [median_of(make, n) for n in sizes]
        cells = " ".join(f"{t:11.4f}s" if out != "RecursionError" else f"{'RecErr':>12}"
                         for t, out in rows)
        ok = [(scale(n), t) for n, (t, out) in zip(sizes, rows) if out != "RecursionError"]
        ratios = growth([n for n, _ in ok], [t for _, t in ok])
        overall = growth([ok[0][0], ok[-1][0]], [ok[0][1], ok[-1][1]]) if len(ok) > 2 else []
        print(f"{name:28s} {cells}   " + " ".join(f"{r:.2f}" for r in ratios)
              + "".join(f"  (first to last: {r:.2f})" for r in overall))
        sys.stdout.flush()


def main():
    lib = harness.load_lib()
    T, S, W, Ss = lib.terms, lib.syntax, lib.wellformed, lib.sessions
    empty = T.Queue()
    queued = T.Queue.from_msgs([T.Msg("p", "z", "r")])
    print("# Baseline sweep")
    print(f"python {sys.version.split()[0]}, recursion limit {sys.getrecursionlimit()}, "
          f"git {harness.git_sha(harness.Path(__file__).resolve().parent.parent)}")

    sweep("ring(n): time per call", RING, {
        "parse (one def per node)": lambda n: timed(S.parse, F.ring_text(n)),
        "key": lambda n: timed(F.build_ring(T, n).key),
        "minimize": lambda n: timed(T.minimize, F.build_ring(T, n)),
        "bisimilar (2n spelling)": lambda n: timed(
            T.bisimilar, F.build_ring(T, n), S.parse(F.ring_text(n, "H", 2)).globals_["H"]),
        "format_gtype": lambda n: timed(S.format_gtype, F.build_ring(T, n)),
        "bounded": lambda n: timed(W.bounded, F.build_ring(T, n)),
    })
    sweep("chain(n): time per call (RecErr: RecursionError)", CHAIN, {
        "parse": lambda n: timed(S.parse, F.chain_text(n)),
        "format_gtype": lambda n: timed(S.format_gtype, F.build_chain(T, n)),
        "key": lambda n: timed(F.build_chain(T, n).key),
        "bounded": lambda n: timed(W.bounded, F.build_chain(T, n)),
        "read (queued p->r:z)": lambda n: timed(W.read, F.build_chain(T, n), queued),
        "balanced_inductive": lambda n: timed(W.balanced_inductive, F.build_chain(T, n), empty),
    })

    print("\n## chain(n): smallest n that raises RecursionError "
          f"(searched {THRESHOLD_RANGE[0]}..{THRESHOLD_RANGE[1]})")
    probes = {
        "parse": lambda n: S.parse(F.chain_text(n)),
        "format_gtype": lambda n: S.format_gtype(F.build_chain(T, n)),
        "read (queued p->r:z)": lambda n: W.read(F.build_chain(T, n), queued),
        "dread (empty queue)": lambda n: W.dread(F.build_chain(T, n), empty),
        "agree (empty queue)": lambda n: W.agree(F.build_chain(T, n), empty),
        "balanced_inductive": lambda n: W.balanced_inductive(F.build_chain(T, n), empty),
        "weakly_balanced_inductive": lambda n: W.weakly_balanced_inductive(
            F.build_chain(T, n), empty),
    }
    for name, probe in probes.items():
        print(f"{name:28s} {recursion_threshold(lambda n: timed(probe, n)[1] == 'RecursionError', *THRESHOLD_RANGE)}")
    for name in ("key", "bounded"):
        print(f"{name:28s} none up to {CHAIN[-1]} (not searched further: quadratic time)")

    sweep("diamonds(n), empty queue: time per call (ratio per doubling of the path count)",
          DIAMONDS, {
              "balanced_inductive": lambda n: timed(
                  W.balanced_inductive, F.build_diamonds(T, n), empty),
              "weakly_balanced_inductive": lambda n: timed(
                  W.weakly_balanced_inductive, F.build_diamonds(T, n), empty),
          }, scale=lambda n: 2 ** n)

    print("\n## pairs(k): check_liveness time and verdict per horizon")
    for k in PAIRS:
        for h in HORIZONS:
            def make(_, k=k, h=h):
                session = Ss.Session(F.build_pairs(T, k), empty)
                start = time.perf_counter()
                result = Ss.check_liveness(session, h)
                return time.perf_counter() - start, repr(result)
            took, result = median_of(make, None)
            print(f"k={k} horizon={h}: {took:9.4f}s  {result}")
            sys.stdout.flush()
    return 0
