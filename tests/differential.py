"""Differential run of the session semantics, the syntax layer and
balancing against another checkout.

    python tests/differential.py OTHER_CHECKOUT [--sample N]

runs a fixed set of calls once with this checkout's ``src`` and once
with ``OTHER_CHECKOUT/src``, each in its own subprocess with that
``src`` first on the path, and compares their output line by line.
It prints the first mismatching calls and exits 1 if any differ.

The sessions are ``random.Random(seed)``, then ``gen.random_network``,
then ``gen.random_queue``, always drawn by this checkout's ``gen.py``.
The calls:

- ``check_liveness`` in both modes, for seeds 3000-3399 at horizons 2
  and 4 and seeds 2000-2099 at horizon 6 (1,800 calls): the result
  class and, for a counterexample, every round's communications and
  every session's ``Network.key()`` and queue key;
- ``simulate`` of each of those 500 sessions, one communication at a
  time and in lockstep rounds, with ``MinLabelPolicy`` and with
  ``RandomPolicy(seed)``: every step's communications and session;
- ``step_session`` of each of those sessions on every candidate
  communication, both kinds, every ordered pair of ``gen.PARTS`` and
  every label of ``gen.LABELS``: ``NOT_ENABLED`` or the session after;
- ``parse`` of every ``protocols/*.mps``, of ``format_gtype`` of
  ``gen.random_gnode`` for seeds 4000-4999, of ``format_network`` of
  ``gen.random_network`` for seeds 5000-5999, and of random texts for
  seeds 6000-9999, each the head of a definition and then up to
  ``TEXT_LENGTH`` of ``TEXT_PIECES``: every definition of the
  document, printed back, or the error with its line and column;
- ``balanced_inductive`` and ``weakly_balanced_inductive`` at
  ``max_revisits`` 1 and 2 and ``agree``, each with and without
  ``mod_g``, of ``gen.random_gnode`` with ``gen.random_queue`` for
  seeds 10000-10599, of ``encode_config`` of ``gen.random_machine``
  started on ``gen.random_word`` for seeds 11000-11199, and of
  ``gen.diamonds(n)`` with the empty queue for n = 1..10 (8,100
  calls): the verdict and, for an Accept, its derivation written out
  as a tree, a line per rule with its node's index in
  ``reachable_nodes`` and its queues' keys.

A raise is an answer: its class and message are compared.  ``--sample
N`` runs only N calls, split about evenly over the five kinds and
spread evenly within each.
"""

from __future__ import annotations

import argparse
import itertools
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROTOCOLS = HERE.parent / "protocols"
SIMULATE_STEPS = 30
SHOWN = 5
# characters of every kind of token, blanks, a comment, a letter (一)
# and numerals (², Ⅻ) outside ASCII, strays, and words that start
# definitions and machine sections
TEXT_PIECES = list("pqé一²Ⅻ1_$ \t\r\n\"/-|>!?;:,={}()[]#") + [
    "->", "|>", "end", "proc ", "global ", "network ", "queue ",
    "machine ", "states ", "start ", "delta "]
TEXT_LENGTH = 12
HEADS = ["proc P = ", "global G = ", "network N { ", "queue Q = [",
         "machine M { "]
CHECKS = [(check, max_revisits) for check in ("balanced", "weakly")
          for max_revisits in (1, 2)] + [("agree", None)]


def _sessions():
    """(seed, liveness horizons) of every session of the call set."""
    return ([(seed, (2, 4)) for seed in range(3000, 3400)]
            + [(seed, (6,)) for seed in range(2000, 2100)])


def call_set() -> list:
    """Every call, as a tuple that names it; cheap to build, since no
    call runs."""
    from gen import LABELS, PARTS

    calls = []
    for seed, horizons in _sessions():
        for horizon in horizons:
            for mode in ("INPUT_ENABLING", "QUEUE_CONSUMING"):
                calls.append(("check_liveness", seed, horizon, mode))
        for rounds in (False, True):
            for policy in ("MinLabelPolicy", "RandomPolicy"):
                calls.append(("simulate", seed, rounds, policy))
        for kind in ("out", "in"):
            for sender, receiver in itertools.permutations(PARTS, 2):
                for label in LABELS:
                    calls.append(("step_session", seed, kind, sender,
                                  receiver, label))
    calls += [("parse", "protocol", path.stem)
              for path in sorted(PROTOCOLS.glob("*.mps"))]
    calls += [("parse", "gtype", seed) for seed in range(4000, 5000)]
    calls += [("parse", "network", seed) for seed in range(5000, 6000)]
    calls += [("parse", "text", seed) for seed in range(6000, 10000)]
    configs = ([("gtype", seed) for seed in range(10000, 10600)]
               + [("machine", seed) for seed in range(11000, 11200)]
               + [("diamonds", n) for n in range(1, 11)])
    calls += [("balancing", source, key, check, max_revisits, mod_g)
              for source, key in configs for check, max_revisits in CHECKS
              for mod_g in (False, True)]
    return calls


def sample(calls: list, n) -> list:
    """``n`` of ``calls``, split about evenly over the kinds of call and
    spread evenly within each kind; all of them when ``n`` is None."""
    if n is None:
        return calls
    kinds = {}
    for call in calls:
        kinds.setdefault(call[0], []).append(call)
    picked = []
    for i, group in enumerate(kinds.values()):
        k = (n + i) // len(kinds)
        picked += [group[j * len(group) // k] for j in range(k)]
    return picked


def emit(src: str, n) -> None:
    """Print one line per call, with the ``mpst`` under ``src``."""
    sys.path[:0] = [src, str(HERE)]
    import mpst
    from mpst import sessions as S
    from mpst.syntax import (format_gtype, format_machine, format_network,
                             format_proc, format_queue, parse)
    from mpst import wellformed as W
    from mpst.machines import encode_config, qm_start
    from mpst.terms import Comm, Queue, reachable_nodes
    from gen import (diamonds, random_gnode, random_machine, random_network,
                     random_queue, random_word)

    if not Path(mpst.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {mpst.__file__}, not from {src}")

    def show(s):
        return f"{s.net.key()!r} {s.queue.key()!r}"

    def delta(comms):
        return " ".join(sorted(map(str, comms)))

    cache = {}

    def session(seed):
        if seed not in cache:
            rng = random.Random(seed)
            net = random_network(rng)
            cache[seed] = S.Session(net, random_queue(rng))
        return cache[seed]

    def text(source, key):
        if source == "protocol":
            return (PROTOCOLS / f"{key}.mps").read_text()
        rng = random.Random(key)
        if source == "gtype":
            return format_gtype(random_gnode(rng))
        if source == "network":
            return format_network(random_network(rng))
        return rng.choice(HEADS) + "".join(
            rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, TEXT_LENGTH)))

    def printed(doc):
        lines = []
        for defs, fmt in ((doc.procs, format_proc), (doc.globals_, format_gtype),
                          (doc.networks, format_network),
                          (doc.queues, format_queue),
                          (doc.machines, format_machine)):
            for name, value in defs.items():
                lines += fmt(value, name).splitlines()
        return lines

    def config(source, key):
        if source == "diamonds":
            return diamonds(key), Queue()
        rng = random.Random(key)
        if source == "gtype":
            return random_gnode(rng), random_queue(rng)
        machine = random_machine(rng)
        return encode_config(machine, qm_start(machine,
                                               random_word(rng, machine)))

    def derivation(g, d):
        index = {id(n): i for i, n in enumerate(reachable_nodes(g))}
        lines, todo = [], [d]
        while todo:
            d = todo.pop()
            line = [d["rule"], index[id(d["type"])], d["queue"].key()]
            if d["rule"] == "ib-Cycle":
                line += [d["hypothesis_queue"].key(), d["suffix"].key()]
            if d["rule"] == "ib-In":
                line.append(d["label"])
                todo.append(d["branch"])
            if d["rule"] == "ib-Out":
                line.append(list(d["branches"]))
                todo += reversed(d["branches"].values())
            lines.append(" ".join(map(str, line)))
        return lines

    def balancing(source, key, check, max_revisits, mod_g):
        g, queue = config(source, key)
        if check == "agree":
            return [str(W.agree(g, queue, mod_g))]
        verdict = (W.balanced_inductive if check == "balanced"
                   else W.weakly_balanced_inductive)(g, queue, max_revisits,
                                                     mod_g)
        return [type(verdict).__name__] + (
            derivation(g, verdict.derivation)
            if isinstance(verdict, W.Accept) else [])

    def run(call):
        what, seed, *args = call
        if what == "parse":
            return printed(parse(text(seed, *args)))
        if what == "balancing":
            return balancing(seed, *args)
        s = session(seed)
        if what == "check_liveness":
            horizon, mode = args
            result = S.check_liveness(s, horizon, S.LivenessMode[mode])
            lines = [type(result).__name__]
            for comms, after in getattr(result, "trace", ()):
                lines.append(f"{delta(comms)} | {show(after)}")
            return lines
        if what == "simulate":
            rounds, policy = args
            chooser = (S.RandomPolicy(seed) if policy == "RandomPolicy"
                       else S.MinLabelPolicy())
            return [f"{step.step} {delta(step.delta)} | {show(step.session)}"
                    for step in S.simulate(s, chooser, SIMULATE_STEPS, rounds)]
        after = S.step_session(s, Comm(*args))
        return [repr(after) if after is S.NOT_ENABLED else show(after)]

    for call in sample(call_set(), n):
        try:
            lines = run(call)
        except Exception as err:  # a raise is an answer to compare
            lines = [f"raises {type(err).__name__}: {err}"]
        print(repr(call), " / ".join(lines))


def _outputs(checkouts, n) -> list:
    procs = [subprocess.Popen(
        [sys.executable, __file__, "--emit", str(Path(c) / "src")]
        + ([] if n is None else ["--sample", str(n)]),
        stdout=subprocess.PIPE, text=True) for c in checkouts]
    outs = [p.communicate()[0] for p in procs]
    for c, p in zip(checkouts, procs):
        if p.returncode:
            raise SystemExit(f"the run with {c} failed ({p.returncode})")
    return [out.splitlines() for out in outs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", nargs="?", help="the checkout to compare with")
    ap.add_argument("--sample", type=int, default=None,
                    help="run this many calls, spread over each kind")
    ap.add_argument("--emit", metavar="SRC",
                    help="print the calls' output with the mpst under SRC")
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit, args.sample)
        return 0
    if args.other is None:
        ap.error("name the checkout to compare with")
    mine, theirs = _outputs([HERE.parent, args.other], args.sample)
    diff = [(a, b) for a, b in zip(mine, theirs) if a != b]
    if len(mine) != len(theirs):
        diff.append((f"{len(mine)} lines", f"{len(theirs)} lines"))
    kinds = {}
    for line in mine:
        what = line.split(",", 1)[0].strip("('")
        kinds[what] = kinds.get(what, 0) + 1
    found = sum(" CounterexampleTrace" in line for line in mine)
    print(f"{len(mine)} calls ({', '.join(f'{k} {v}' for k, v in kinds.items())}; "
          f"{found} counterexamples), {len(diff)} mismatches")
    for a, b in diff[:SHOWN]:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                  min(len(a), len(b)))
        window = slice(max(0, at - 40), at + 120)
        print(f"{a.split(')', 1)[0]}) differs at character {at}:\n"
              f"  this checkout: {a[window]}\n  {args.other}: {b[window]}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
