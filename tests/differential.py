"""Differential run of the session semantics, the syntax layer and
balancing against another checkout.

    python tests/differential.py OTHER_CHECKOUT [--sample N]

runs a fixed set of calls once with this checkout's ``src`` and once
with ``OTHER_CHECKOUT/src``, each in its own subprocess with that
``src`` first on the path, and compares their output line by line.
It prints the first mismatching calls and exits 1 if any differ.

The sessions are ``random.Random(seed)``, then ``gen.random_network``,
then ``gen.random_queue``, always drawn by this checkout's ``gen.py``.
The starving sessions, for ``STARVING_SEEDS``, are ``random.Random(seed)``,
then ``p`` and ``q`` from ``gen.random_pnode`` over ``p`` and ``q`` with
at most three nodes and no end, ``r`` waiting on ``s``, which is absent,
and ``gen.random_queue`` over ``p``, ``q`` and ``r``: every schedule
that does not deadlock starves ``r``, so many end in a lasso.  The
unread sessions, for ``UNREAD_SEEDS``, are ``random.Random(seed)``,
then ``p`` and ``q`` from ``gen.random_pnode`` over ``p``, ``q`` and
``r`` with at most three nodes, and ``gen.random_queue`` over the same
three: ``r`` is absent and ``p`` or ``q`` may end, so outputs and
queued messages land on lanes that nobody can read.  The
protocol sessions are network ``N`` of ``protocols/hospital.mps``,
``burst.mps`` and ``growing.mps`` with the empty queue, whose queues
grow past ``terms._SHORT`` messages at long horizons.  The 94,854
calls:

- ``check_liveness`` in both modes, for seeds 3000-3399 at horizons 2
  and 4, seeds 2000-2099 at horizon 6, the starving sessions at
  horizons 3 and 5, the unread sessions at horizons 3 and 6, and the
  protocol sessions at horizons 1-12 and at the benchmark's horizon of
  each (5,478 calls): the result class and,
  for a counterexample, every round's communications and every
  session's ``Network.key()`` and queue key;
- ``simulate`` of each of the 500 random sessions, one communication at a
  time and in lockstep rounds, with ``MinLabelPolicy`` and with
  ``RandomPolicy(seed)`` (2,000 calls): every step's communications
  and session;
- ``simulate`` at ``LONG_STEPS`` of the protocol sessions and of the
  random sessions for seeds 3000-3049, in both kinds of step and with
  both policies, ``RandomPolicy(seed)`` seeded by the protocol's name
  for a protocol (212 calls): every step's communications and the
  final session.  Lanes pass ``terms._SHORT`` here, so the list
  buffers that snapshots share are compared too;
- ``step_session`` of each of those sessions on every candidate
  communication, both kinds, every ordered pair of ``gen.PARTS`` and
  every label of ``gen.LABELS`` (60,000 calls): ``NOT_ENABLED`` or
  the session after;
- ``parse`` of every ``protocols/*.mps``, of ``format_gtype`` of
  ``gen.random_gnode`` for seeds 4000-4999, of ``format_network`` of
  ``gen.random_network`` for seeds 5000-5999, and of random texts for
  seeds 6000-9999, each the head of a definition and then up to
  ``TEXT_LENGTH`` of ``TEXT_PIECES``, quoted marks among them, and of
  long texts for seeds 12000-12199, each ``LONG_DEFS`` lines of
  ``format_gtype`` of ``gen.random_gnode`` with one character replaced
  by one of ``TEXT_PIECES``, so errors sit deep in the text (6,208
  calls): every definition of the document, printed back, or the
  error with its line and column;
- ``format_gtype``, ``format_proc`` and ``format_network`` of
  ``gen.random_gnode``, ``gen.random_pnode`` (for ``p``) and
  ``gen.random_network`` for ``FORMAT_SEEDS``, each as drawn and again
  with one change where the graph has a choice: a participant or a
  label swapped for one that does not parse back (``1x``, ``end``,
  ``q-r``), or the choice emptied (1,800 calls): the text, or the
  ValueError's message;
- ``balanced_inductive`` and ``weakly_balanced_inductive`` at
  ``max_revisits`` 1 and 2 and ``agree``, each with and without
  ``mod_g``, and ``read`` and ``dread``, of ``gen.random_gnode`` with
  ``gen.random_queue`` for seeds 10000-10599, of ``encode_config`` of
  ``gen.random_machine`` started on ``gen.random_word`` for seeds
  11000-11199, and of ``gen.diamonds(n)`` with the empty queue for
  n = 1..10 (9,720 calls): the verdict and, for an Accept, its
  derivation written out as a tree, a line per rule with its node's
  index in ``reachable_nodes`` and its queues' keys;
- ``lanes``: the same checks of ``gen.lane_loop(k)`` for k = 1..10,
  and of ``gen.random_gnode`` with a queue of one to three labels on
  each of three to five channels drawn from ``gen.PARTS``, for
  ``LANE_SEEDS`` (6,000 calls): as for balancing;
- ``qm_run`` of ``gen.random_machine`` on ``gen.random_word`` at
  ``QM_STEPS`` for seeds 16000-17999 (2,000 calls), and at
  ``LONG_QM_STEPS`` for ``LONG_MACHINE_SEEDS`` (200 calls), where a
  run that neither accepts nor stops early makes every step: the
  result;
- ``key``, ``minimize``, ``quotient``, ``subterms`` and
  ``bounded_witness`` of ``gen.random_gnode`` at its defaults and with
  ``FEW`` labels (``p`` and ``q``; ``a``, ``b`` and ``c``; up to 40
  nodes) and of ``gen.random_pnode`` for ``p``, each for
  ``GRAPH_SEEDS``, and of ``gen.ring``, ``gen.chain`` and
  ``gen.diamonds`` for n = 1..12 (1,236 calls): the key; the shape of
  ``minimize``, first with no key cached on the graph and then with
  one, as each node's local signature and its children's indices in
  ``reachable_nodes`` order, labels sorted; whether ``quotient``
  returns the graph itself; the ``reachable_nodes`` indices of
  ``subterms``; and the witness as its participant and its subterm's
  index.

A raise is an answer: its class and message are compared.  After the
mismatch count, one line gives the states that ``check_liveness``
built over all its calls on each side: the calls of
``sessions._options_by_player`` less one per round of a returned
trace, which its replay makes.  The line is for information and never
counts as a mismatch.  Then one line per change of a
``check_liveness`` result class, from the other checkout's to this
one's, gives how many calls made it, and a last one how many
``check_liveness`` mismatches keep their class and differ in the trace
alone (trace-only).  ``--sample N`` runs only N calls, split about
evenly over the eleven kinds and spread evenly within each.
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
LONG_STEPS = 300
SHOWN = 5
# characters of every kind of token, blanks, a comment, a letter (一)
# and numerals (², Ⅻ) outside ASCII, strays, words that start
# definitions and machine sections, and quoted marks, which are
# strings wherever a mark may stand
TEXT_PIECES = list("pqé一²Ⅻ1_$ \t\r\n\"/-|>!?;:,={}()[]#") + [
    "->", "|>", "end", "proc ", "global ", "network ", "queue ",
    "machine ", "states ", "start ", "delta ", '"!"', '"?"', '","', '"{"',
    '"}"', '";"', '"]"']
TEXT_LENGTH = 12
LONG_DEFS = 50
HEADS = ["proc P = ", "global G = ", "network N { ", "queue Q = [",
         "machine M { "]
STARVING_SEEDS = range(14000, 14600)
UNREAD_SEEDS = range(15000, 15300)
MACHINE_SEEDS = range(16000, 18000)
LONG_MACHINE_SEEDS = range(19000, 19200)
FORMAT_SEEDS = range(18000, 18300)
GRAPH_SEEDS = range(20000, 20400)
LANE_SEEDS = range(21000, 21490)
# few labels, so that many nodes are bisimilar
FEW = dict(parts=["p", "q"], labels=["a", "b", "c"], max_nodes=40)
UNPRINTABLE = ["1x", "end", "q-r"]
QM_STEPS = 2000
LONG_QM_STEPS = 10**5
# each protocol session's horizon in bench/workloads.py
PROTOCOL_HORIZONS = {"hospital": 30, "burst": 32, "growing": 20}
CHECKS = ([(check, max_revisits, mod_g) for check in ("balanced", "weakly")
           for max_revisits in (1, 2) for mod_g in (False, True)]
          + [("agree", None, mod_g) for mod_g in (False, True)]
          + [("read", None, None), ("dread", None, None)])


def _sessions():
    """(seed, liveness horizons) of every random session of the call set."""
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
    calls += [("long_simulate", seed, rounds, policy)
              for seed in (*PROTOCOL_HORIZONS, *range(3000, 3050))
              for rounds in (False, True)
              for policy in ("MinLabelPolicy", "RandomPolicy")]
    calls += [("check_liveness", seed, horizon, mode)
              for seed in STARVING_SEEDS for horizon in (3, 5)
              for mode in ("INPUT_ENABLING", "QUEUE_CONSUMING")]
    calls += [("check_liveness", seed, horizon, mode)
              for seed in UNREAD_SEEDS for horizon in (3, 6)
              for mode in ("INPUT_ENABLING", "QUEUE_CONSUMING")]
    calls += [("check_liveness", name, horizon, mode)
              for name, longest in PROTOCOL_HORIZONS.items()
              for horizon in (*range(1, 13), longest)
              for mode in ("INPUT_ENABLING", "QUEUE_CONSUMING")]
    calls += [("parse", "protocol", path.stem)
              for path in sorted(PROTOCOLS.glob("*.mps"))]
    calls += [("parse", "gtype", seed) for seed in range(4000, 5000)]
    calls += [("parse", "network", seed) for seed in range(5000, 6000)]
    calls += [("parse", "text", seed) for seed in range(6000, 10000)]
    calls += [("parse", "long", seed) for seed in range(12000, 12200)]
    calls += [("format", kind, seed, changed)
              for kind in ("gtype", "proc", "network") for seed in FORMAT_SEEDS
              for changed in (False, True)]
    configs = ([("gtype", seed) for seed in range(10000, 10600)]
               + [("machine", seed) for seed in range(11000, 11200)]
               + [("diamonds", n) for n in range(1, 11)])
    calls += [("balancing", source, key, *check)
              for source, key in configs for check in CHECKS]
    calls += [("lanes", source, key, *check)
              for source, keys in (("loop", range(1, 11)),
                                   ("random", LANE_SEEDS))
              for key in keys for check in CHECKS]
    calls += [("qm_run", seed) for seed in MACHINE_SEEDS]
    calls += [("long_qm_run", seed) for seed in LONG_MACHINE_SEEDS]
    calls += [("graphs", source, seed)
              for source in ("gnode", "few", "pnode") for seed in GRAPH_SEEDS]
    calls += [("graphs", family, n)
              for family in ("ring", "chain", "diamonds") for n in range(1, 13)]
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
    from mpst.machines import encode_config, qm_run, qm_start
    from mpst.terms import (Comm, Network, Queue, gend, minimize, pin,
                            quotient, reachable_nodes, subterms)
    from gen import (LABELS, PARTS, chain, diamonds, lane_loop,
                     random_gnode, random_machine, random_network,
                     random_pnode, random_queue, random_word, ring)

    if not Path(mpst.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {mpst.__file__}, not from {src}")

    options_by_player = S._options_by_player
    built, states = [0], [0]  # calls of _options_by_player, states built

    def counted(*args):
        built[0] += 1
        return options_by_player(*args)

    S._options_by_player = counted

    def show(s):
        return f"{s.net.key()!r} {s.queue.key()!r}"

    def delta(comms):
        return " ".join(sorted(map(str, comms)))

    cache = {}

    def session(seed):
        if seed not in cache:
            rng = random.Random(seed)
            if seed in PROTOCOL_HORIZONS:
                net = parse((PROTOCOLS / f"{seed}.mps").read_text()) \
                    .networks["N"]
                queue = Queue()
            elif seed in STARVING_SEEDS:
                net = Network({p: random_pnode(rng, p, 3, ["p", "q"],
                                               end_bias=0.0) for p in "pq"}
                              | {"r": pin("s", {"a": gend()})})
                queue = random_queue(rng, ["p", "q", "r"])
            elif seed in UNREAD_SEEDS:
                net = Network({p: random_pnode(rng, p, 3, ["p", "q", "r"])
                               for p in "pq"})
                queue = random_queue(rng, ["p", "q", "r"])
            else:
                net, queue = random_network(rng), random_queue(rng)
            cache[seed] = S.Session(net, queue)
        return cache[seed]

    def text(source, key):
        if source == "protocol":
            return (PROTOCOLS / f"{key}.mps").read_text()
        rng = random.Random(key)
        if source == "gtype":
            return format_gtype(random_gnode(rng))
        if source == "network":
            return format_network(random_network(rng))
        if source == "long":
            text = "\n".join(format_gtype(random_gnode(rng), f"G{i}")
                             for i in range(LONG_DEFS))
            at = rng.randrange(len(text))
            return text[:at] + rng.choice(TEXT_PIECES) + text[at + 1:]
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

    def formatted(kind, seed, changed):
        rng = random.Random(seed)
        if kind == "network":
            net = random_network(rng)
            roots = [proc for _, proc in net.items()]
        else:
            roots = [random_gnode(rng) if kind == "gtype"
                     else random_pnode(rng, "p")]
        choices = [n for root in roots for n in reachable_nodes(root)
                   if n.kind != "end"]
        if changed and choices:
            node, bad = rng.choice(choices), rng.choice(UNPRINTABLE)
            change = rng.choice(["participant", "label", "empty"])
            if change == "empty":
                node.branches.clear()
            elif change == "label":
                node.branches[bad] = node.branches.pop(
                    rng.choice(sorted(node.branches)))
            elif node.receiver is not None:
                node.receiver = bad
            else:
                node.sender = bad
        if kind == "network":
            return format_network(net)
        return (format_gtype if kind == "gtype" else format_proc)(roots[0])

    def config(source, key):
        if source == "diamonds":
            return diamonds(key), Queue()
        if source == "loop":
            return lane_loop(key)
        rng = random.Random(key)
        if source == "random":
            chans = rng.sample(list(itertools.permutations(PARTS, 2)),
                               rng.randint(3, 5))
            return random_gnode(rng), Queue({
                chan: rng.choices(LABELS, k=rng.randint(1, 3))
                for chan in chans})
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
        if check in ("read", "dread"):
            return [str(getattr(W, check)(g, queue))]
        verdict = (W.balanced_inductive if check == "balanced"
                   else W.weakly_balanced_inductive)(g, queue, max_revisits,
                                                     mod_g)
        return [type(verdict).__name__] + (
            derivation(g, verdict.derivation)
            if isinstance(verdict, W.Accept) else [])

    def graph(source, key):
        if source in ("ring", "chain", "diamonds"):
            return {"ring": ring, "chain": chain, "diamonds": diamonds}[
                source](key)
        rng = random.Random(key)
        if source == "pnode":
            return random_pnode(rng, "p")
        return random_gnode(rng, **(FEW if source == "few" else {}))

    def shape(root):
        nodes = reachable_nodes(root)
        at = {id(n): i for i, n in enumerate(nodes)}
        return [(n._local_sig(), [(lab, at[id(n.branches[lab])])
                                  for lab in sorted(n.branches)])
                for n in nodes]

    def graphs(source, key):
        g = graph(source, key)
        at = {id(n): i for i, n in enumerate(reachable_nodes(g))}
        before = shape(minimize(g))  # with no key cached on g
        witness = W.bounded_witness(g)
        return [repr(g.key()), repr(before), repr(shape(minimize(g))),
                str(quotient(g) is g),
                repr([at[id(sub)] for sub in subterms(g)]),
                repr(witness and (witness["participant"],
                                  at[id(witness["subterm"])]))]

    def run(call):
        what, seed, *args = call
        if what == "graphs":
            return graphs(seed, *args)
        if what == "parse":
            return printed(parse(text(seed, *args)))
        if what == "format":
            return formatted(seed, *args).splitlines()
        if what in ("balancing", "lanes"):
            return balancing(seed, *args)
        if what in ("qm_run", "long_qm_run"):
            rng = random.Random(seed)
            machine = random_machine(rng)
            return [repr(qm_run(machine, random_word(rng, machine),
                                QM_STEPS if what == "qm_run"
                                else LONG_QM_STEPS))]
        s = session(seed)
        if what == "check_liveness":
            horizon, mode = args
            before = built[0]
            result = S.check_liveness(s, horizon, S.LivenessMode[mode])
            states[0] += built[0] - before - len(getattr(result, "trace", ()))
            lines = [type(result).__name__]
            for comms, after in getattr(result, "trace", ()):
                lines.append(f"{delta(comms)} | {show(after)}")
            return lines
        if what in ("simulate", "long_simulate"):
            rounds, policy = args
            chooser = (S.RandomPolicy(seed) if policy == "RandomPolicy"
                       else S.MinLabelPolicy())
            if what == "simulate":
                return [f"{step.step} {delta(step.delta)} | "
                        f"{show(step.session)}" for step in
                        S.simulate(s, chooser, SIMULATE_STEPS, rounds)]
            trace = list(S.simulate(s, chooser, LONG_STEPS, rounds))
            return [f"{step.step} {delta(step.delta)}" for step in trace] + [
                show(trace[-1].session if trace else s)]
        after = S.step_session(s, Comm(*args))
        return [repr(after) if after is S.NOT_ENABLED else show(after)]

    for call in sample(call_set(), n):
        try:
            lines = run(call)
        except Exception as err:  # a raise is an answer to compare
            lines = [f"raises {type(err).__name__}: {err}"]
        print(repr(call), " / ".join(lines))
    print(states[0])  # the last line, kept out of the comparison


def _outputs(checkouts, n) -> list:
    """Each checkout's output lines and the states that its
    ``check_liveness`` calls built."""
    procs = [subprocess.Popen(
        [sys.executable, __file__, "--emit", str(Path(c) / "src")]
        + ([] if n is None else ["--sample", str(n)]),
        stdout=subprocess.PIPE, text=True) for c in checkouts]
    outs = [p.communicate()[0] for p in procs]
    for c, p in zip(checkouts, procs):
        if p.returncode:
            raise SystemExit(f"the run with {c} failed ({p.returncode})")
    return [(lines[:-1], int(lines[-1]))
            for lines in (out.splitlines() for out in outs)]


def _result(line: str) -> str:
    """The result class on an output line of ``check_liveness``."""
    return line.split(") ", 1)[1].split(" ", 1)[0]


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
    (mine, built), (theirs, other_built) = _outputs(
        [HERE.parent, args.other], args.sample)
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
    print(f"check_liveness built {built} states here, "
          f"{other_built} with {args.other}")
    moves = {}
    trace_only = 0
    for a, b in diff:
        if a.startswith("('check_liveness'"):
            if _result(a) == _result(b):
                trace_only += 1
                continue
            move = f"{_result(b)} -> {_result(a)}"
            moves[move] = moves.get(move, 0) + 1
    for move, count in sorted(moves.items()):
        print(f"check_liveness {move}: {count}")
    print(f"check_liveness trace-only: {trace_only}")
    for a, b in diff[:SHOWN]:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                  min(len(a), len(b)))
        window = slice(max(0, at - 40), at + 120)
        print(f"{a.split(')', 1)[0]}) differs at character {at}:\n"
              f"  this checkout: {a[window]}\n  {args.other}: {b[window]}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
