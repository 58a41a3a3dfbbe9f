"""The three workloads: inputs made at set-up, and the calls of one pass.

Each builder is the workload's set-up: it reads or generates every
input from the seed and returns ``prepare``, which makes the graphs of
one pass afresh (untimed) and returns ``(input id, run)`` pairs.
``run(rec)`` makes the input's calls through ``rec.call``.  Graphs are
never reused across passes or calls that could read a cached key.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import expect as E
import families as F
from harness import FAILED

# Per-call limit in seconds on the reference host.  On corpus it cuts the heavy tail of the
# random draw: most calls take well under a millisecond, but about one
# input in eight has a call (liveness of a random network, a machine
# whose queue keeps growing) that runs longer, some for seconds.  Cut
# later, those calls would decide check_s and verdict_ms.p90 and swing
# them from seed to seed.  Elsewhere the limit only guards against a
# hang.
LIMITS = {"corpus": 0.003, "families": 30.0, "growing-queues": 30.0}

CORPUS_HORIZON = 6
CORPUS_ROUNDS = 20
QM_STEPS = 2000
PAIRS_HORIZON = 4
GROWING_HORIZONS = {"hospital": 30, "burst": 32, "growing": 20}


@dataclass(frozen=True)
class Sizes:
    # four times a draw of 300, 100 and 100: with that smaller draw
    # the median input time moved by about 7% from seed to seed.  Twice
    # as many globals would steady the median more, but would move the
    # 90th percentile off the inputs cut at the limit, where it is
    # steady, into the sparse times just below it
    globals: int = 1200
    networks: int = 400
    machines: int = 400
    machine_word_len: int = 3
    # small enough that a run fits a dozen or more passes, so that each
    # call's best time over the run is steady: at the commit that
    # added the benchmark, key, minimize, bisimilar and bounded are
    # quadratic on ring and key_chain, and format, parse, read and
    # balancing raise RecursionError from chain 166 to 496
    ring: int = 250
    chain: int = 550
    key_chain: int = 250
    diamonds: int = 7
    pairs: int = 3
    growing_rounds: int = 5000
    hospital_steps: int = 10000


def _simulate(sessions, session, policy, steps, lockstep):
    deltas, last = [], session
    for step in sessions.simulate(session, policy, steps, lockstep):
        deltas.append(step.delta)
        last = step.session
    return deltas, last


def _simulated_steps(summary):
    return len(summary[0])


def gtype_text(root, name="G") -> str:
    """One ``global`` definition per node, so parsing nests no deeper
    than one choice."""
    nodes = E.reach(root)
    names = {id(n): name if i == 0 else f"{name}_{i}" for i, n in enumerate(nodes)}
    lines = []
    for node in nodes:
        if node.kind == "end":
            body = "end"
        else:
            mark = "!" if node.kind == "out" else "?"
            arms = ", ".join(f"{lab}; {names[id(node.branches[lab])]}"
                             for lab in sorted(node.branches))
            body = f"{node.sender} {node.receiver}{mark}{{{arms}}}"
        lines.append(f"global {names[id(node)]} = {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pipelines, one per kind of input


def global_run(lib, text, name, queue, players, msgs, nodes, ref=None,
               table=None):
    """Parse, print and re-parse; key and minimize; depth of each
    player, boundedness, weight of each queued message; read, dread,
    agree; balanced and weakly balanced.  ``ref`` is the generated
    graph the text spells, when there is one."""
    S, T, W, O = lib.syntax, lib.terms, lib.wellformed, lib.oracles
    table = table or {}

    def known(call, default):
        return E.table_check(lib, table[call]) if call in table else default

    def run(rec):
        first = None if ref is None else (
            lambda d: O.oracle_bisimilar(d.globals_[name], ref))
        doc = rec.call("syntax.parse", S.parse, text, work=len(text),
                       expect=first)
        if doc is FAILED:
            return
        g = doc.globals_[name]
        base = g if ref is None else ref
        out = rec.call("syntax.format", S.format_gtype, g)
        if out is not FAILED:
            rec.call("syntax.parse", S.parse, out, work=len(out),
                     expect=lambda d: O.oracle_bisimilar(d.globals_["G"], base))
        rec.call("terms.key", g.key, work=nodes)
        rec.call("terms.minimize", T.minimize, g, work=nodes,
                 expect=lambda m: (O.oracle_bisimilar(m, base)
                                   and len(E.reach(m)) == E.class_count(O, base)))
        for p in players:
            rec.call("wellformed.depth", W.depth, g, p,
                     expect=known(f"wellformed.depth {p}",
                                  lambda d, p=p: d == O.oracle_depth(base, p)))
        rec.call("wellformed.bounded", W.bounded, g,
                 expect=known("wellformed.bounded",
                              lambda b: b == E.oracle_bounded(O, base)))
        for m in msgs:
            rec.call("wellformed.weight", W.weight, m, g,
                     expect=known(f"wellformed.weight {m}",
                                  lambda w, m=m: w == O.oracle_weight(m, base)))
        rec.call("wellformed.read", W.read, g, queue)
        rec.call("wellformed.dread", W.dread, g, queue)
        rec.call("wellformed.agree", W.agree, g, queue)
        rec.call("wellformed.balanced", W.balanced_inductive, g, queue,
                 expect=known("wellformed.balanced", None))
        rec.call("wellformed.weakly_balanced", W.weakly_balanced_inductive,
                 g, queue)

    return run


def network_run(lib, nets, queue, horizon, live=False, expected=None):
    """Liveness in both modes and a lockstep simulation; ``nets`` holds
    one fresh copy of the network per call."""
    Ss = lib.sessions

    def run(rec):
        for net, mode in zip(nets, Ss.LivenessMode):
            session = Ss.Session(net, queue)
            rec.call("sessions.check_liveness", Ss.check_liveness, session,
                     horizon, mode,
                     expect=E.liveness_check(lib, session, mode, live, expected))
        session = Ss.Session(nets[-1], queue)
        rec.call("sessions.simulate", _simulate, Ss, session,
                 Ss.MinLabelPolicy(), CORPUS_ROUNDS, True, work=_simulated_steps,
                 expect=E.simulation_check(lib.oracles, session, True, CORPUS_ROUNDS))

    return run


def machine_run(lib, machine, word, answer):
    """Run the machine, encode its start configuration, and check the
    encoding's balancing.  ``answer()`` gives whether the machine
    accepts the word (None when unknown) and after how many steps."""
    M, W = lib.machines, lib.wellformed
    answer = functools.cache(answer)

    def run_ok(r):
        steps = answer()[1]
        if steps is None:
            return isinstance(r, M.RunningAfter) and r.steps == QM_STEPS
        return isinstance(r, M.Accepted) and r.steps == steps

    def balanced_ok(b):
        accepts = answer()[0]
        if accepts is None:
            return None
        if accepts:
            return not isinstance(b, W.Accept)
        return True if isinstance(b, W.Accept) else None

    def run(rec):
        rec.call("machines.qm_run", M.qm_run, machine, word, QM_STEPS,
                 work=lambda r: r.steps, expect=run_ok)
        enc = rec.call("machines.encode",
                       lambda: M.encode_config(machine, M.qm_start(machine, word)))
        if enc is not FAILED:
            rec.call("wellformed.balanced", W.balanced_inductive, *enc,
                     expect=balanced_ok)

    return run


# ---------------------------------------------------------------------------
# workloads


def _words(alphabet, max_len):
    return ["".join(w) for k in range(max_len + 1)
            for w in itertools.product(alphabet, repeat=k)]


def corpus(lib, root, seed, sizes=Sizes()):
    """Every ``protocols/*.mps`` through the full pipeline, plus a
    seeded draw from the ``tests/gen.py`` generators."""
    S, O, gen = lib.syntax, lib.oracles, lib.gen
    Queue = lib.terms.Queue
    fixed = []       # (id, make run) built once: globals and machines
    per_pass = []    # (id, factory) whose graphs are rebuilt each pass

    for path in sorted((root / "protocols").glob("*.mps")):
        stem, text = path.stem, path.read_text()
        doc = S.parse(text)
        queues = sorted(doc.queues.items()) or [("-", Queue())]
        for gname in sorted(doc.globals_):
            g = doc.globals_[gname]
            for qname, queue in queues:
                subject = f"{gname}/{qname}"
                table = {call: want for (f, s, call), want in E.PROTOCOL_TABLE.items()
                         if (f, s) == (stem, subject)}
                fixed.append((f"{stem}/{subject}", global_run(
                    lib, text, gname, queue, sorted(O.oracle_players(g)),
                    queue.messages(), len(E.reach(g)), table=table)))
        for nname in sorted(doc.networks):
            expected = E.PROTOCOL_TABLE.get((stem, nname, "sessions.check_liveness"))
            per_pass.append((f"{stem}/{nname}", lambda text=text, nname=nname, expected=expected:
                             network_run(lib, [S.parse(text).networks[nname] for _ in range(3)],
                                         Queue(), CORPUS_HORIZON, expected=expected)))
        for mname in sorted(doc.machines):
            machine = doc.machines[mname]
            kind = E.PROTOCOL_TABLE[(stem, mname, "accepts")]
            for word in _words(machine.input_alphabet, sizes.machine_word_len):
                accepts = E.machine_accepts(kind, word)
                answer = (accepts, len(word) + 1 if accepts else None)
                fixed.append((f"{stem}/{mname}/{word or '-'}", machine_run(
                    lib, machine, word, lambda answer=answer: answer)))

    rng = random.Random(f"corpus/{seed}")
    for i in range(sizes.globals):
        g = gen.random_gnode(rng)
        queue = gen.random_queue(rng)
        fixed.append((f"draw/global/{i}", global_run(
            lib, gtype_text(g), "G", queue, sorted(O.oracle_players(g)),
            queue.messages(), len(E.reach(g)), ref=g)))
    for i in range(sizes.networks):
        def make(tag=f"corpus/{seed}/net/{i}"):
            # the same network and queue each time, as fresh objects
            copies = []
            for _ in range(3):
                r = random.Random(tag)
                copies.append((gen.random_network(r), gen.random_queue(r)))
            return network_run(lib, [net for net, _ in copies], copies[0][1],
                               CORPUS_HORIZON)
        per_pass.append((f"draw/network/{i}", make))
    for i in range(sizes.machines):
        machine = gen.random_machine(rng)
        word = gen.random_word(rng, machine)

        def answer(machine=machine, word=word):
            kind, steps = O.oracle_qm_run(machine.delta, machine.start,
                                          machine.bottom, word, QM_STEPS)
            # a machine still running after QM_STEPS may accept later
            return (True, steps) if kind == "accepted" else (None, None)
        fixed.append((f"draw/machine/{i}", machine_run(lib, machine, word, answer)))

    def prepare():
        return fixed + [(iid, factory()) for iid, factory in per_pass]

    return prepare


def families(lib, root, seed, sizes=Sizes()):
    """One instance of each scaling family, built afresh every pass.
    The inputs do not depend on the seed."""
    S, T, W, O, Ss = lib.syntax, lib.terms, lib.wellformed, lib.oracles, lib.sessions
    n, c, k = sizes.ring, sizes.chain, sizes.key_chain
    ring, ring2, chain = F.ring_text(n), F.ring_text(n, "H", 2), F.chain_text(c)
    never_read = T.Queue.from_msgs([T.Msg("p", "z", "r")])

    def accept(r):
        # every family here is balanced, so Accept is right and Unknown
        # is no answer
        return True if isinstance(r, W.Accept) else None

    def ring_run(rec):
        doc = rec.call("syntax.parse", S.parse, ring, work=len(ring))
        other = rec.call("syntax.parse", S.parse, ring2, work=len(ring2))
        if doc is FAILED or other is FAILED:
            return
        g, h = doc.globals_["G"], other.globals_["H"]
        rec.call("terms.key", g.key, work=n)
        rec.call("terms.minimize", T.minimize, g, work=n,
                 expect=lambda m: len(E.reach(m)) == n)
        rec.call("terms.bisimilar", T.bisimilar, g, h, work=3 * n,
                 expect=lambda b: b is True)
        rec.call("syntax.format", S.format_gtype, g,
                 expect=lambda t: t.count("p q!a;") == n - 1 and t.count("p q!b;") == 1)
        rec.call("wellformed.bounded", W.bounded, g, expect=lambda b: b is True)

    def chain_run(rec, g):
        rec.call("syntax.parse", S.parse, chain, work=len(chain),
                 expect=lambda d: O.oracle_bisimilar(d.globals_["G"], g))
        rec.call("syntax.format", S.format_gtype, g,
                 expect=lambda t: t.count("p q!l;") == c and t.count("p q?l;") == c)
        rec.call("wellformed.read", W.read, g, never_read,
                 expect=lambda b: b is False)
        rec.call("wellformed.balanced", W.balanced_inductive, g, T.Queue(),
                 expect=accept)

    def key_chain_run(rec, g):
        rec.call("terms.key", g.key, work=2 * k + 1)
        rec.call("wellformed.bounded", W.bounded, g, expect=lambda b: b is True)

    def diamonds_run(rec, g1, g2):
        rec.call("wellformed.balanced", W.balanced_inductive, g1, T.Queue(),
                 expect=accept)
        rec.call("wellformed.weakly_balanced", W.weakly_balanced_inductive,
                 g2, T.Queue(), expect=accept)

    def pairs_run(rec, net):
        session = Ss.Session(net, T.Queue())
        rec.call("sessions.check_liveness", Ss.check_liveness, session,
                 PAIRS_HORIZON,
                 expect=E.liveness_check(lib, session,
                                         Ss.LivenessMode.INPUT_ENABLING, live=True))

    def prepare():
        g, gk = F.build_chain(T, c), F.build_chain(T, k)
        d1, d2 = F.build_diamonds(T, sizes.diamonds), F.build_diamonds(T, sizes.diamonds)
        net = F.build_pairs(T, sizes.pairs)
        return [(f"ring/{n}", ring_run),
                (f"chain/{c}", lambda rec: chain_run(rec, g)),
                (f"chain/{k}", lambda rec: key_chain_run(rec, gk)),
                (f"diamonds/{sizes.diamonds}", lambda rec: diamonds_run(rec, d1, d2)),
                (f"pairs/{sizes.pairs}", lambda rec: pairs_run(rec, net))]

    return prepare


def growing_queues(lib, root, seed, sizes=Sizes()):
    """Networks whose queues grow without bound: liveness at long
    horizons and long simulations."""
    S, Ss, O = lib.syntax, lib.sessions, lib.oracles
    Queue = lib.terms.Queue
    texts = {name: (root / "protocols" / f"{name}.mps").read_text()
             for name in GROWING_HORIZONS}

    def net(name):
        return S.parse(texts[name]).networks["N"]

    def liveness_run(name):
        session = Ss.Session(net(name), Queue())
        mode = Ss.LivenessMode.INPUT_ENABLING

        def run(rec):
            rec.call("sessions.check_liveness", Ss.check_liveness, session,
                     GROWING_HORIZONS[name], mode,
                     expect=E.liveness_check(lib, session, mode, live=True))
        return run

    def simulate_run(name, policy, steps, lockstep, queue_len=None):
        session = Ss.Session(net(name), Queue())

        def run(rec):
            rec.call("sessions.simulate", _simulate, Ss, session, policy,
                     steps, lockstep, work=_simulated_steps,
                     expect=E.simulation_check(O, session, lockstep, steps,
                                               queue_len))
        return run

    def prepare():
        rounds = sizes.growing_rounds
        inputs = [(f"{name}/liveness", liveness_run(name)) for name in GROWING_HORIZONS]
        # p and r each send once per round and q reads once from the
        # second round on, so the queue holds rounds + 1 messages
        inputs.append(("growing/simulate", simulate_run(
            "growing", Ss.MinLabelPolicy(), rounds, True, rounds + 1)))
        inputs.append(("hospital/simulate", simulate_run(
            "hospital", Ss.RandomPolicy(seed), sizes.hospital_steps, False)))
        return inputs

    return prepare


WORKLOADS = {"corpus": corpus, "families": families,
             "growing-queues": growing_queues}
