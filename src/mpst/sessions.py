"""Asynchronous session semantics.

A session is a network side by side with a queue.  Outputs append to
the queue and never block; inputs read the head of their channel and
block until it carries an expected label.  One round function,
``_apply``, performs a sequence of communications with one new session
at the end; single steps, lockstep rounds (every participant able to
move performs one communication), simulation and the liveness check
over all lockstep schedules all go through it, and through one
enabledness rule, ``_options_by_player``.  The check explores the
reachable lockstep states once, breadth-first, with ``horizon``
bounding the depth.  It names a state by the bisimilarity blocks of its
processes, from one partition refinement of the start network's graphs,
and by its queue, and keeps of a state only that name and its links.
A failed obligation is found on the strongly connected components of
the explored graph and reported as a lasso: a shortest trace to a
state, then a cycle back to it.
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


def _apply(session: Session, comms):
    """Perform ``comms`` in order, or NOT_ENABLED when one of them is not
    enabled at its turn.  This is the one transition rule: the process
    map is copied once and :meth:`Queue.after` does the queue's part, so
    a round costs O(moves) beyond the copies.  A round happens whole or
    not at all, so the processes may be checked before the queue."""
    procs = dict(session.net.items())
    for kind, sender, receiver, label in comms:
        player = sender if kind == OUT else receiver
        proc = procs.get(player)
        # a process node names the partner, not its own participant
        if (proc is None or proc.kind != kind or label not in proc.branches
                or proc.sender not in (None, sender)
                or proc.receiver not in (None, receiver)):
            return NOT_ENABLED
        procs[player] = proc.branches[label]
    queue = session.queue.after(comms)
    if queue is None:
        return NOT_ENABLED
    return Session(Network(procs), queue)


def step_session(session: Session, comm: Comm):
    """Perform one communication, or NOT_ENABLED."""
    return _apply(session, (comm,))


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
                "from": proc.sender,
                "expects": sorted(proc.branches),
                "head": session.queue.head(proc.sender, name),
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
            comms = [Comm(OUT, name, proc.receiver, lab)
                     for lab in sorted(proc.branches)]
        elif proc.kind == IN:
            head = session.queue.head(proc.sender, name)
            if head is not None and head in proc.branches:
                comms = [Comm(IN, proc.sender, name, head)]
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
    chosen = [policy.choose(options[player], player) for player in sorted(options)]
    current = _apply(session, chosen)
    assert current is not NOT_ENABLED, f"{chosen} lost enabledness"
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
            options = sorted((c for comms in _options_by_player(session).values()
                              for c in comms), key=lambda c: c.sort_key)
            if not options:
                return
            comm = policy.choose(options)
            session = _apply(session, (comm,))
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


def _owed(mode, state, waits) -> set:
    """The obligations a state owes: the participants waiting on an
    input, or the channels holding a message.  ``state`` is a state key
    of :func:`check_liveness` and ``waits`` holds the blocks of its input
    nodes.  A state where nobody can move has completed exactly when it
    owes nothing, since every participant left there waits on an input
    (no choice is empty)."""
    procs, queue = state
    if mode is LivenessMode.INPUT_ENABLING:
        return {name for name, b in procs if b in waits}
    return {chan for chan, _ in queue}


def _served(mode, delta) -> tuple:
    """The obligations a round serves: its readers, or their channels.
    Each participant moves once and each channel has one reader, so
    they are distinct."""
    if mode is LivenessMode.INPUT_ENABLING:
        return tuple([c.play for c in delta if c.kind == IN])
    return tuple([(c.sender, c.receiver) for c in delta if c.kind == IN])


def _rounds(options) -> Iterable:
    """The lockstep rounds of a state's options, one communication per
    participant able to move, in a fixed order."""
    return itertools.product(*(options[p] for p in sorted(options)))


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


def _lasso(edges, owes):
    """A state owing an obligation and a cycle back to it on rounds that
    never serve it, as ``(state, rounds of the cycle)``, or None.

    Such a cycle exists exactly when the state lies on a cycle of the
    subgraph of rounds that do not serve the obligation.  Among all
    obligations the state found first by the exploration is taken, and
    the shortest such cycle through it.
    """
    def succ(v):
        return [j for j, _, _ in edges[v] if j < len(edges)]

    comp = _components(range(len(edges)), succ)
    cyclic = _on_cycle(comp, succ)
    owed = {v: owes(v) for v in cyclic}
    best = None
    for ob in sorted({ob for v in cyclic for ob in owed[v]}):
        def unserved(v, ob=ob):
            return [j for j, _, served in edges[v]
                    if ob not in served and comp.get(j) == comp[v]]

        sub = _components(cyclic, unserved)
        for v in _on_cycle(sub, unserved):
            if ob in owed[v]:
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
            for j, k, served in edges[v]:
                if ob in served or sub.get(j) != sub[start] or j in back:
                    continue
                back[j] = (v, k)
                nxt.append(j)
        frontier = nxt
    last, k = back[start]
    return start, _path(back, last, start) + [k]


def _path(links, v, stop) -> list:
    """The rounds from state ``stop`` to state ``v`` along ``links``,
    which map a state to its predecessor and the round between them."""
    rounds = []
    while v != stop:
        v, k = links[v]
        rounds.append(k)
    rounds.reverse()
    return rounds


def _replay(session: Session, path) -> tuple:
    """The trace from ``session`` along ``path``, which names each round
    by its position in :func:`_rounds`, as ``(delta, session)`` pairs."""
    trace = []
    for k in path:
        combo = next(itertools.islice(_rounds(_options_by_player(session)), k, None))
        session = _apply(session, combo)
        trace.append((frozenset(combo), session))
    return tuple(trace)


def check_liveness(session: Session, horizon: int = 50,
                   mode: LivenessMode = LivenessMode.INPUT_ENABLING):
    """Explore the lockstep rounds from ``session`` breadth-first, up to
    ``horizon`` rounds deep, and check the mode's obligations.

    Every reachable state is visited once.  A state's processes are
    nodes of the start network's graphs, so one partition refinement of
    those graphs names each process by its bisimilarity block, and a
    state is identified by its blocks and its queue's key.  A state is
    kept as that key, its parent link and, once expanded, its edges; to
    expand it, a session is rebuilt from the key with one node standing
    for each block.  A state where nobody can move and something is
    still owed yields its shortest trace.  Such a state is looked for
    when it is expanded, and in the next layer before each cycle check
    and at the end, so the first one generated is reported before
    anything found later.  The strongly connected components of the
    explored graph are checked after the first layer that closes a
    cycle, then once the expanded states have doubled since the last
    check, and after the last layer.  A failed obligation yields a
    lasso: a shortest trace to a state that owes it, followed by a
    cycle back to that state on which it is never served, so the trace
    ends in a state it passed before.  A returned trace is replayed
    from ``session``.  Otherwise the result is Verified, weakened to
    HorizonExceeded if some state at depth ``horizon`` could still
    move.
    """
    nodes = {}
    for _, proc in session.net.items():
        for node in reachable_nodes(proc):
            nodes[id(node)] = node
    block = _refine(list(nodes.values()))
    rep = {block[i]: node for i, node in nodes.items()}
    waits = {b for b, node in rep.items() if node.kind == IN}

    def ident(s):
        return (tuple([(name, block[id(proc)]) for name, proc in s.net.items()]),
                s.queue.key())

    def rebuild(v):
        procs, queue = keys[v]
        return Session(Network({name: rep[b] for name, b in procs}),
                       Queue(dict(queue)))

    def owes(v):
        return _owed(mode, keys[v], waits)

    keys = [ident(session)]
    index = {keys[0]: 0}
    # a round is named by its position in _rounds of its state
    parent = [None]  # (predecessor, round) on a shortest trace
    edges = []  # per expanded state: (successor, round, obligations served)
    def scan(states):
        """The trace to the first of ``states`` where nobody can move and
        something is owed, or else whether one of them can move.  The
        options of a state are built once, and only for states that owe
        something or come before the first one that can move."""
        moves = False
        for v in states:
            owing = owes(v)
            if owing or not moves:
                if _options_by_player(rebuild(v)):
                    moves = True
                elif owing:
                    return CounterexampleTrace(
                        _replay(session, _path(parent, v, 0)))
        return moves

    first = 0
    checked = 0  # states expanded at the last cycle check
    unchecked = False  # an edge closed a cycle since then
    for depth in range(horizon):
        layer_end = len(keys)
        if first == layer_end:
            break
        for i in range(first, layer_end):
            current = rebuild(i)
            opts = _options_by_player(current)
            if not opts and owes(i):
                return CounterexampleTrace(_replay(session, _path(parent, i, 0)))
            out = []
            # a state with no options is stuck and owes nothing: completed
            for k, combo in enumerate(_rounds(opts)):
                key = ident(_apply(current, combo))
                j = index.setdefault(key, len(keys))
                if j == len(keys):
                    keys.append(key)
                    parent.append((i, k))
                elif j < layer_end:
                    # a cycle can only close on an edge that does not
                    # lead one layer deeper
                    unchecked = True
                out.append((j, k, _served(mode, combo)))
            edges.append(tuple(out))
        first = layer_end
        # check again once the expanded graph has doubled, and after the
        # last layer: the checks cost linear time in total, and a lasso
        # is found within twice the states it needs
        last = depth == horizon - 1 or first == len(keys)
        if unchecked and (last or len(edges) >= 2 * checked):
            found = scan(range(first, len(keys)))
            if isinstance(found, CounterexampleTrace):
                return found
            bad = _lasso(edges, owes)
            if bad is not None:
                start, cycle = bad
                return CounterexampleTrace(
                    _replay(session, _path(parent, start, 0) + cycle))
            checked, unchecked = len(edges), False
    found = scan(range(first, len(keys)))
    if isinstance(found, CounterexampleTrace):
        return found
    return HorizonExceeded(horizon) if found else Verified()
