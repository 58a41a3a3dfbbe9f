"""Asynchronous session semantics.

A session is a network side by side with a queue.  Outputs append to
the queue and never block; inputs read the head of their channel and
block until it carries an expected label.  On top of single steps the
module offers a lockstep round, where every participant able to move
performs one communication, and a liveness check over all lockstep
schedules.  The check explores the reachable lockstep states once,
breadth-first, with ``horizon`` bounding the depth.  It names a state
by the bisimilarity blocks of its processes, from one partition
refinement of the start network's graphs, and by its queue.  A failed
obligation is found on the strongly connected components of the
explored graph and reported as a lasso: a shortest trace to a state,
then a cycle back to it.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from mpst.terms import Comm, IN, Network, OUT, Queue, _refine, reachable_nodes


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


NOT_ENABLED = _Sentinel("NOT_ENABLED")
NOT_LIVE = _Sentinel("NOT_LIVE")


class Classification(enum.Enum):
    LIVE = "live"
    TERMINATED = "terminated"
    DEADLOCKED = "deadlocked"


@dataclass(frozen=True)
class Session:
    net: Network
    queue: Queue


# ---------------------------------------------------------------------------
# single steps


def step_session(session: Session, comm: Comm):
    """Perform one communication, or NOT_ENABLED."""
    player = comm.play
    proc = session.net.get(player)
    if proc.kind != comm.kind or comm.label not in proc.branches:
        return NOT_ENABLED
    cont = proc.branches[comm.label]
    if comm.kind == OUT:
        if proc.partner != comm.receiver:
            return NOT_ENABLED
        return Session(session.net.with_comp(player, cont),
                       session.queue.push(player, comm.label, comm.receiver))
    if proc.partner != comm.sender:
        return NOT_ENABLED
    if session.queue.head(comm.sender, player) != comm.label:
        return NOT_ENABLED
    _, rest = session.queue.pop(comm.sender, player)
    return Session(session.net.with_comp(player, cont), rest)


def enabled(session: Session) -> set:
    """All communications the session can do right now."""
    return {comm for comms in _options_by_player(session).values()
            for comm in comms}


def classify(session: Session) -> Classification:
    if session.net.is_empty and session.queue.is_empty:
        return Classification.TERMINATED
    if enabled(session):
        return Classification.LIVE
    return Classification.DEADLOCKED


def deadlock_info(session: Session) -> dict:
    """What each blocked participant waits for and what sits unread."""
    options = _options_by_player(session)
    blocked = {}
    for name, proc in session.net.items():
        if proc.kind == IN and name not in options:
            blocked[name] = {
                "from": proc.partner,
                "expects": sorted(proc.branches),
                "head": session.queue.head(proc.partner, name),
            }
    unread = [str(m) for m in session.queue.messages()]
    return {"blocked": blocked, "unread": unread}


# ---------------------------------------------------------------------------
# lockstep rounds


class ChoicePolicy:
    """Resolves which of several enabled communications to take."""

    def choose(self, options: list, player: Optional[str] = None) -> Comm:
        raise NotImplementedError


class MinLabelPolicy(ChoicePolicy):
    """Deterministic default: outputs first, then least label."""

    def choose(self, options, player=None):
        return min(options, key=lambda c: c.sort_key)


class RandomPolicy(ChoicePolicy):
    def __init__(self, seed: Optional[int] = None):
        self.rng = random.Random(seed)

    def choose(self, options, player=None):
        return self.rng.choice(sorted(options, key=lambda c: c.sort_key))


class ScriptMismatch(Exception):
    pass


class ScriptPolicy(ChoicePolicy):
    """Replays a fixed list of communications, in choice order."""

    def __init__(self, script: Iterable[Comm]):
        self.script = list(script)
        self.at = 0

    def choose(self, options, player=None):
        if self.at >= len(self.script):
            raise ScriptMismatch(f"script ended, still offered "
                                 f"{[str(o) for o in options]}")
        want = self.script[self.at]
        if want not in options:
            raise ScriptMismatch(
                f"script expects {want}, but the session offers "
                f"{[str(o) for o in options]}")
        self.at += 1
        return want


def _options_by_player(session: Session) -> dict:
    """The communications of each participant able to move, in
    ``sort_key`` order: its outputs by label, or the one input that
    the head of its channel allows."""
    by_player = {}
    for name, proc in session.net.items():
        comms = []
        if proc.kind == OUT:
            comms = [Comm(OUT, name, proc.partner, lab)
                     for lab in sorted(proc.branches)]
        elif proc.kind == IN:
            head = session.queue.head(proc.partner, name)
            if head is not None and head in proc.branches:
                comms = [Comm(IN, proc.partner, name, head)]
        if comms:
            by_player[name] = comms
    return by_player


def lockstep(session: Session, policy: ChoicePolicy = None):
    """One round where every participant able to move moves once.

    Returns ``(delta, session)`` or NOT_LIVE when nobody can move.  The
    result does not depend on the application order: each chosen
    communication touches its own component, appends preserve other
    channels' heads, and each channel is read by one participant only.
    """
    policy = policy or MinLabelPolicy()
    options = _options_by_player(session)
    if not options:
        return NOT_LIVE
    chosen = []
    for player in sorted(options):
        chosen.append(policy.choose(options[player], player))
    current = session
    for comm in chosen:
        current = step_session(current, comm)
        assert current is not NOT_ENABLED, f"{comm} lost enabledness"
    return frozenset(chosen), current


@dataclass(frozen=True)
class TraceStep:
    step: int
    delta: frozenset
    session: Session


def simulate(session: Session, policy: ChoicePolicy = None,
             max_steps: int = 20, lockstep_rounds: bool = False):
    """Iterate until quiescence or ``max_steps``.

    By default one communication happens per step, chosen by the
    policy among everything enabled.  With ``lockstep_rounds`` each
    step is a whole round instead.
    """
    policy = policy or MinLabelPolicy()
    for index in range(max_steps):
        if lockstep_rounds:
            result = lockstep(session, policy)
            if result is NOT_LIVE:
                return
            delta, session = result
        else:
            options = sorted(enabled(session), key=lambda c: c.sort_key)
            if not options:
                return
            comm = policy.choose(options)
            session = step_session(session, comm)
            assert session is not NOT_ENABLED
            delta = frozenset({comm})
        yield TraceStep(index + 1, delta, session)


# ---------------------------------------------------------------------------
# liveness over all schedules


class LivenessMode(enum.Enum):
    # every participant stuck on an input is eventually served
    INPUT_ENABLING = "input-enabling"
    # every message in the queue is eventually read
    QUEUE_CONSUMING = "queue-consuming"


@dataclass(frozen=True)
class Verified:
    pass


@dataclass(frozen=True)
class CounterexampleTrace:
    trace: tuple


@dataclass(frozen=True)
class HorizonExceeded:
    horizon: int


def _owed(mode, session: Session) -> set:
    """The obligations a session owes: the participants waiting on an
    input, or the channels holding a message.  A session where nobody
    can move has completed exactly when it owes nothing, since every
    participant left there waits on an input (no choice is empty)."""
    if mode is LivenessMode.INPUT_ENABLING:
        return {name for name, proc in session.net.items() if proc.kind == IN}
    return set(session.queue.channels())


def _served(mode, delta) -> set:
    """The obligations a round serves: its readers, or their channels."""
    if mode is LivenessMode.INPUT_ENABLING:
        return {c.play for c in delta if c.kind == IN}
    return {(c.sender, c.receiver) for c in delta if c.kind == IN}


def _components(nodes, succ) -> dict:
    """Tarjan's strongly connected components of the graph on ``nodes``
    with successor lists ``succ(v)``, as a map from node to component;
    the depth-first search keeps its own stack."""
    order, low, comp = {}, {}, {}
    path = []
    for root in nodes:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        path.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if w not in order:
                    order[w] = low[w] = len(order)
                    path.append(w)
                    work.append((w, iter(succ(w))))
                    break
                if w not in comp:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    while True:
                        w = path.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp


def _on_cycle(comp, succ) -> list:
    """The nodes of ``comp`` that lie on a cycle, in ascending order."""
    size = {}
    for c in comp.values():
        size[c] = size.get(c, 0) + 1
    return sorted(v for v, c in comp.items() if size[c] > 1 or v in succ(v))


def _lasso(mode, sessions, edges, parent):
    """A trace that reaches a state owing an obligation and then goes
    round a cycle back to it on rounds that never serve it, or None.

    Such a cycle exists exactly when the state lies on a cycle of the
    subgraph of rounds that do not serve the obligation.  Among all
    obligations the state found first by the exploration is taken, and
    the shortest such cycle through it.
    """
    def succ(v):
        return [j for j, _, _ in edges[v] if j < len(edges)]

    comp = _components(range(len(edges)), succ)
    cyclic = _on_cycle(comp, succ)
    owes = {v: _owed(mode, sessions[v]) for v in cyclic}
    best = None
    for ob in sorted({ob for v in cyclic for ob in owes[v]}):
        def unserved(v, ob=ob):
            return [j for j, _, served in edges[v]
                    if ob not in served and comp.get(j) == comp[v]]

        sub = _components(cyclic, unserved)
        for v in _on_cycle(sub, unserved):
            if ob in owes[v]:
                if best is None or v < best[0]:
                    best = (v, ob, sub)
                break
    if best is None:
        return None
    start, ob, sub = best
    # breadth-first search for the shortest way back to start
    back = {}
    frontier = [start]
    while start not in back:
        nxt = []
        for v in frontier:
            for j, delta, served in edges[v]:
                if ob in served or sub.get(j) != sub[start] or j in back:
                    continue
                back[j] = (v, delta)
                nxt.append(j)
        frontier = nxt
    last, delta = back[start]
    return (_steps(sessions, parent, start, 0)
            + _steps(sessions, back, last, start)
            + ((delta, sessions[start]),))


def _steps(sessions, links, v, stop) -> tuple:
    """The trace from state ``stop`` to state ``v`` along ``links``, which
    map a state to its predecessor and the round between them."""
    steps = []
    while v != stop:
        u, delta = links[v]
        steps.append((delta, sessions[v]))
        v = u
    return tuple(reversed(steps))


def check_liveness(session: Session, horizon: int = 50,
                   mode: LivenessMode = LivenessMode.INPUT_ENABLING):
    """Explore the lockstep rounds from ``session`` breadth-first, up to
    ``horizon`` rounds deep, and check the mode's obligations.

    Every reachable state is visited once.  A state's processes are
    nodes of the start network's graphs, so one partition refinement of
    those graphs names each process by its bisimilarity block, and a
    state is identified by its blocks and its queue.  A state where
    nobody can move and something is still owed yields its shortest
    trace at once.  The strongly connected components of the explored
    graph are checked after the first layer that closes a cycle, then
    once the expanded states have doubled since the last check, and
    after the last layer.  A failed obligation yields a lasso: a
    shortest trace to a state that owes it, followed by a cycle back to
    that state on which it is never served, so the trace ends in a
    state it passed before.  Otherwise the result is Verified, weakened
    to HorizonExceeded if some state at depth ``horizon`` could still
    move.
    """
    nodes = {}
    for _, proc in session.net.items():
        for node in reachable_nodes(proc):
            nodes[id(node)] = node
    block = _refine(list(nodes.values()))

    def ident(s):
        return (tuple([(name, block[id(proc)]) for name, proc in s.net.items()]),
                s.queue)

    sessions = [session]
    index = {ident(session): 0}
    options = [_options_by_player(session)]
    parent = [None]  # (predecessor, delta) on a shortest trace
    edges = []  # per expanded state: (successor, delta, obligations served)
    if not options[0] and _owed(mode, session):
        return CounterexampleTrace(())
    first = 0
    checked = 0  # states expanded at the last cycle check
    unchecked = False  # an edge closed a cycle since then
    for depth in range(horizon):
        layer_end = len(sessions)
        if first == layer_end:
            break
        for i in range(first, layer_end):
            current, opts = sessions[i], options[i]
            out = []
            edges.append(out)
            if not opts:
                continue  # stuck and owing nothing: completed
            for combo in itertools.product(*(opts[p] for p in sorted(opts))):
                delta = frozenset(combo)
                nxt = current
                for comm in combo:
                    nxt = step_session(nxt, comm)
                key = ident(nxt)
                j = index.get(key)
                if j is None:
                    j = index[key] = len(sessions)
                    sessions.append(nxt)
                    options.append(_options_by_player(nxt))
                    parent.append((i, delta))
                    if not options[j] and _owed(mode, nxt):
                        return CounterexampleTrace(_steps(sessions, parent, j, 0))
                elif j < layer_end:
                    # a cycle can only close on an edge that does not
                    # lead one layer deeper
                    unchecked = True
                out.append((j, delta, _served(mode, combo)))
        first = layer_end
        # check again once the expanded graph has doubled, and after the
        # last layer: the checks cost linear time in total, and a lasso
        # is found within twice the states it needs
        last = depth == horizon - 1 or first == len(sessions)
        if unchecked and (last or len(edges) >= 2 * checked):
            bad = _lasso(mode, sessions, edges, parent)
            if bad is not None:
                return CounterexampleTrace(bad)
            checked, unchecked = len(edges), False
    if any(options[first:]):
        return HorizonExceeded(horizon)
    return Verified()
