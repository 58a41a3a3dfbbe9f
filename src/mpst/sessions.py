"""Asynchronous session semantics.

A session is a network side by side with a queue.  Outputs append to
the queue and never block; inputs read the head of their channel and
block until it carries an expected label.  One rule,
``_options_by_player``, decides what is enabled, reading each channel's
head through a function.  Single steps, lockstep rounds (every
participant able to move performs one communication) and simulation
perform what it offers through one round function, ``_perform``, in
place on a working process map (name order, no ended participant) and
lane map, handing out snapshots that later rounds never change.  The
liveness check performs its rounds on flat tuple states instead.
The rule reads a participant's moves at a node from a move table keyed
by ``(participant, node)`` and filled on the pair's first visit: every
network that a round derives from a session's shares that network's
table, and the check keeps its own for the quotients it explores.
The check explores the reachable lockstep states once, breadth-first,
with ``horizon`` bounding the depth; a state is one flat tuple of the
quotients of its processes under bisimilarity, in name order, and of
a label tuple per lane that the session can hold, in a fixed sorted
order.  A lane that its receiver can no longer read, because the
receiver is absent or its node reaches no input from the sender, is
kept up to its emptiness only: dropped under input-enabling, one marker
under queue-consuming.  A readable lane keeps one label per class that
its receiver cannot tell apart, by the one label-class rule of
``terms._alike`` that the well-formedness judgments use: labels that
every input from the sender offers with bisimilar continuations or not
at all.  A state where
nobody can move and something is owed is reported when it is generated,
and a failed obligation as a lasso found on the strongly connected
components of the states that starve it: a shortest trace to a state,
then a cycle back to it, replayed until the concrete session recurs.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from mpst.terms import (Comm, END, IN, Network, OUT, Queue, _children,
                        _label_classes, _lane_pop, _lane_push, quotient,
                        reachable_nodes)


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


NOT_ENABLED = _Sentinel("NOT_ENABLED")
NOT_LIVE = _Sentinel("NOT_LIVE")
_SORT_KEY = operator.attrgetter("sort_key")
# the content of an unread lane under queue-consuming: not a label
_UNREAD = ("*",)


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


def _perform(procs: dict, lanes: dict, comms) -> None:
    """Perform ``comms``, options of a working state for distinct players,
    in order and in place.  A copy of a map taken before stays valid: a
    push only appends to a list buffer or replaces its lane's entry, and
    a pop replaces or deletes it (:func:`_lane_push`, :func:`_lane_pop`)."""
    for kind, sender, receiver, label in comms:
        if kind == OUT:
            _lane_push(lanes, (sender, receiver), label)
            player = sender
        else:
            _lane_pop(lanes, (sender, receiver))
            player = receiver
        if (proc := procs[player].branches[label]).kind == END:
            del procs[player]
        else:
            procs[player] = proc


def _working(session: Session) -> tuple:
    """The working state ``(procs, lanes, head, moves)`` of ``session``,
    where ``head(sender, receiver)`` is a lane's head label or None."""
    lanes = session.queue._lanes.copy()

    def head(sender, receiver):
        lane = lanes.get((sender, receiver))
        return lane[0][lane[1]] if lane else None

    return dict(session.net.items()), lanes, head, session.net._moves


def _snapshot(procs: dict, lanes: dict, moves: dict) -> Session:
    return Session(Network._of(procs.copy(), moves), Queue._of(lanes.copy()))


def step_session(session: Session, comm: Comm):
    """Perform one communication, or NOT_ENABLED unless it is offered."""
    if comm not in enabled(session):
        return NOT_ENABLED
    procs, lanes, _, moves = _working(session)
    _perform(procs, lanes, (comm,))
    return _snapshot(procs, lanes, moves)


def enabled(session: Session) -> set:
    """All communications the session can do right now."""
    options = _options_by_player(session.net.items(), session.queue.head,
                                 session.net._moves)
    return {comm for comms in options.values() for comm in comms}


def classify(session: Session) -> Classification:
    if session.net.is_empty and session.queue.is_empty:
        return Classification.TERMINATED
    if enabled(session):
        return Classification.LIVE
    return Classification.DEADLOCKED


def deadlock_info(session: Session) -> dict:
    """What each blocked participant waits for and what sits unread."""
    options = _options_by_player(session.net.items(), session.queue.head,
                                 session.net._moves)
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
    """Takes one of several enabled communications, ``options``, a tuple
    in ``sort_key`` order; a choice not among them raises ValueError."""

    def choose(self, options: tuple, player: Optional[str] = None) -> Comm:
        raise NotImplementedError


class MinLabelPolicy(ChoicePolicy):
    """Deterministic default: outputs first, then least label."""

    def choose(self, options, player=None):
        return options[0]


class RandomPolicy(ChoicePolicy):
    def __init__(self, seed: Optional[int] = None):
        self.rng = random.Random(seed)

    def choose(self, options, player=None):
        return self.rng.choice(options)


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


def _choose(policy: ChoicePolicy, options: tuple, *player) -> Comm:
    comm = policy.choose(options, *player)
    if comm not in options:  # a policy is user code
        raise ValueError(f"{comm} is not among {[str(o) for o in options]}")
    return comm


def _options_by_player(procs, head, table: dict) -> dict:
    """The communications of each participant able to move, given its
    ``(name, process)`` pairs ``procs`` and ``head(sender, receiver)``,
    the label at the head of a channel or None, in ``sort_key`` order:
    its outputs by label, or the one input that the head of its channel
    allows.  ``table`` maps a pair, from its first visit on, to that
    tuple of outputs, or to a map from each label to that input alone."""
    by_player = {}
    for name, proc in procs:
        moves = table.get(key := (name, proc))
        if moves is None and proc.kind == IN:
            moves = table[key] = {lab: (Comm(IN, proc.sender, name, lab),)
                                  for lab in proc.branches}
        elif moves is None:  # an output, or an end with no branches
            moves = table[key] = tuple([Comm(OUT, name, proc.receiver, lab)
                                        for lab in sorted(proc.branches)])
        if proc.kind == IN:
            moves = moves.get(head(proc.sender, name))
        if moves:
            by_player[name] = moves
    return by_player


def lockstep(session: Session, policy: ChoicePolicy = None):
    """One round where every participant able to move moves once.

    Returns ``(delta, session)`` or NOT_LIVE when nobody can move.  The
    result does not depend on the application order: each chosen
    communication touches its own component, appends preserve other
    channels' heads, and each channel is read by one participant only.
    """
    for step in simulate(session, policy, 1, True):
        return step.delta, step.session
    return NOT_LIVE


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
    step is a whole round instead.  Each :class:`TraceStep` holds its
    own immutable snapshot of the run's one working state.  A single
    step's options are merged and sorted once per run per configuration.
    """
    policy = policy or MinLabelPolicy()
    procs, lanes, head, moves = _working(session)
    merged = {}  # per tuple of the players' options: them in sort_key order
    for index in range(max_steps):
        by_player = _options_by_player(procs.items(), head, moves)
        if not by_player:
            return
        if lockstep_rounds:
            comms = [_choose(policy, o, p) for p, o in by_player.items()]
        else:
            key = tuple(by_player.values())
            if (options := merged.get(key)) is None:
                options = merged[key] = tuple(sorted(
                    itertools.chain(*key), key=_SORT_KEY))
            comms = (_choose(policy, options),)
        _perform(procs, lanes, comms)
        yield TraceStep(index + 1, frozenset(comms),
                        _snapshot(procs, lanes, moves))


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
    """No verdict within ``horizon`` rounds: a state at that depth could
    still move, or a starving cycle grows a lane nobody reads.  Such a
    cycle never returns to an equal state, so no lasso states it."""

    horizon: int


def _starved(mode, names, chans, state, options) -> tuple:
    """What a state of :func:`check_liveness`, ``state``, whose slots
    hold the processes of ``names`` and then the lanes of ``chans``, and
    whose options are ``options``, owes and none of its rounds serves:
    the participants waiting on an input that cannot move, or the
    channels holding a message that no option reads.  A participant able
    to read has only that input, so it reads in every round.  With no
    options this is what the state owes."""
    if mode is LivenessMode.INPUT_ENABLING:
        return tuple([name for name, proc in zip(names, state)
                      if proc.kind == IN and name not in options])
    read = {(comms[0].sender, name) for name, comms in options.items()
            if comms[0].kind == IN}
    return tuple([chan for chan, lane in zip(chans, state[len(names):])
                  if lane and chan not in read])


def _rounds(options) -> Iterable:
    """The lockstep rounds of a state's options, one communication per
    participant able to move, in a fixed order; none when nobody can
    move."""
    return itertools.product(*options.values()) if options else ()


class _Reads:
    """What the participants of a liveness check can still read: the
    read mask of each node, with a bit per sender (:meth:`bit`), of the
    senders whose input is that node or a node it reaches.  A node
    reaches only nodes whose mask is a subset of its own.  A participant
    is met on the first lookup of one of its masks, which fills the
    masks of every node that its start node reaches: :func:`_components`
    lists each component's members together, after every component that
    it reaches, so one pass over its result gives each component its
    members' senders and its successors' masks."""

    def __init__(self, starts: list):
        self.starts = starts
        self.bits = {}
        self.masks = {}
        self.met = [False] * len(starts)
        self.always = [0] * len(starts)  # per participant met: its least mask
        self.shrinks = [False] * len(starts)  # and whether its masks differ

    def bit(self, name) -> int:
        return self.bits.setdefault(name, 1 << len(self.bits))

    def mask(self, r: int, node) -> int:
        """The mask of ``node``, a node of participant ``r``."""
        if not self.met[r]:
            self._meet(r)
        return self.masks[node]

    def _meet(self, r: int) -> None:
        comp = _components([self.starts[r]], _children)
        of = {}  # per component, from its members seen so far
        for v, c in comp.items():
            mask = of.get(c, 0)
            if v.kind == IN:
                mask |= self.bit(v.sender)
            for w in v.branches.values():
                mask |= of.get(comp[w], 0)
            of[c] = mask
        self.masks.update((v, of[c]) for v, c in comp.items())
        self.met[r] = True
        self.always[r] = functools.reduce(operator.and_, of.values())
        self.shrinks[r] = len(set(of.values())) > 1


class _Labels:
    """The representative labels of a liveness check's lanes.  Labels
    on channel (s, r) share one when r's start quotient cannot tell them
    apart by the label-class rule of ``terms._alike``, each occurring
    or not: every input from s that it reaches offers neither label or
    both with the same continuation node, since the quotient makes
    bisimilar continuations one node.  So they share one exactly when
    their ``terms._label_classes`` are equal, a label that no input
    offers in the class of none.  The representative of a class is its
    first label asked for."""

    def __init__(self, start: dict):
        self.start = start  # participant -> its start quotient
        self.memo = {}  # for terms._label_classes
        self.classes = {}  # per channel and label class: a label

    def rep(self, sender, receiver, label):
        """The representative of ``label`` on channel (sender, receiver)."""
        proc = self.start.get(receiver)
        then = () if proc is None else _label_classes(
            proc, (sender, None), self.memo).get(label, ())
        return self.classes.setdefault((sender, receiver, then), label)


def _components(nodes, succ) -> dict:
    """Tarjan's strongly connected components of the graph on ``nodes``
    with successor lists ``succ(v)``, as a map from node to component,
    which lists each component's members together and after every
    component that it reaches; the depth-first search keeps its own
    stack."""
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


def _on_cycle(comp, succ):
    """The least node of ``comp`` that lies on a cycle, or None."""
    size = {}
    for c in comp.values():
        size[c] = size.get(c, 0) + 1
    return min((v for v, c in comp.items() if size[c] > 1 or v in succ(v)),
               default=None)


def _starving(edges, starved, growing):
    """Per obligation, in order, the strongly connected components of the
    states that starve it, over their edges, growing ones only if
    ``growing``, as ``(components, successors)``.  A growing edge holds
    its round as ``~k``."""
    for ob in sorted({ob for obs in starved for ob in obs}):
        members = {v for v, obs in enumerate(starved) if ob in obs}

        def succ(v, members=members):
            return [j for j, k in edges[v]
                    if j in members and (growing or k >= 0)]

        yield _components(members, succ), succ


def _lasso(edges, starved):
    """A state that starves an obligation and a cycle back to it that
    never serves it and grows no lane, as ``(state, rounds of the
    cycle)``, or None.

    Whether a round serves an obligation depends only on the state it
    leaves (:func:`_starved`), and an obligation never served stays
    owed: a blocked reader does not move, and a channel that nobody
    reads keeps its messages.  So a cycle that never serves an
    obligation owed at one of its states passes only states that starve
    it, and lies in a strongly connected component of those states.
    Among all obligations the state found first by the exploration is
    taken, ties to the first obligation, and the shortest cycle through
    it in its component.
    """
    best = None
    for comp, succ in _starving(edges, starved, False):
        v = _on_cycle(comp, succ)
        if v is not None and (best is None or v < best[0]):
            best = (v, comp)
    if best is None:
        return None
    start, comp = best
    # breadth-first search for the shortest way back to start inside its
    # component, all of whose states starve the obligation
    back = {}
    frontier = [start]
    while start not in back:
        nxt = []
        for v in frontier:
            for j, k in edges[v]:
                if k < 0 or comp.get(j) != comp[start] or j in back:
                    continue
                back[j] = (v, k)
                nxt.append(j)
        frontier = nxt
    last, k = back[start]
    return start, _path(back, last, start) + [k]


def _grows(edges, starved) -> bool:
    """Whether a cycle through states that starve one obligation takes a
    growing edge; the components are searched only if some edge grows."""
    return any(k < 0 for out in edges for _, k in out) and any(
        k < 0 and comp.get(j) == comp[v]
        for comp, _ in _starving(edges, starved, True)
        for v in comp for j, k in edges[v])


def _path(links, v, stop) -> list:
    """The rounds from state ``stop`` to state ``v`` along ``links``,
    which map a state to its predecessor and the round between them."""
    rounds = []
    while v != stop:
        v, k = links[v]
        rounds.append(k)
    rounds.reverse()
    return rounds


def _replay(session: Session, path, cycle=()) -> tuple:
    """The trace from ``session`` along ``path``, which names each round
    by its position in :func:`_rounds`, as ``(delta, session)`` pairs,
    then along ``cycle``, turn after turn, until a turn starts with the
    queue that an earlier turn started with."""
    trace = []
    turns = set()  # the queues that turns of the cycle started with
    rounds = path
    procs, lanes, head, moves = _working(session)
    while True:
        for k in rounds:
            options = _options_by_player(procs.items(), head, moves)
            combo = next(itertools.islice(_rounds(options), k, None))
            _perform(procs, lanes, combo)
            session = _snapshot(procs, lanes, moves)
            trace.append((frozenset(combo), session))
        if not cycle or session.queue in turns:
            return tuple(trace)
        turns.add(session.queue)
        rounds = cycle


def check_liveness(session: Session, horizon: int = 50,
                   mode: LivenessMode = LivenessMode.INPUT_ENABLING):
    """Explore the lockstep rounds from ``session`` breadth-first, up to
    ``horizon`` rounds deep, and check the mode's obligations.

    Every reachable state is visited once.  Each start process is
    replaced by its quotient, :func:`quotient`, so bisimilar processes
    reached later are one node.  A state is one flat tuple, which is its
    own key: the process nodes in name order, ended ones included, then
    one label tuple per lane, in sorted order, for each channel of the
    start queue and each pair of a participant and the receiver of an
    output that it can reach, so equal states are equal tuples.  A round
    writes its movers' nodes and lanes into a list copy of its state: it
    builds no process map, queue or sorted key.  A state is kept as that
    key, its parent link and, once expanded, its edges and what it
    starves; its options are kept only until its layer is expanded, so
    the options of each state are built once.  A state owes the
    participants waiting on an input, or the channels holding a message,
    and starves those that none of its rounds serves (:func:`_starved`).
    Where nobody can move it has completed exactly when it owes nothing,
    since every participant left there waits on an input (no choice is
    empty, as :class:`Network` enforces); otherwise it yields its
    shortest trace.
    Each state is tested for this when it is generated, so the first one
    generated is reported before anything found later.  The states that
    starve each obligation are searched for a cycle after the first
    layer that closes a cycle, then once the expanded states have doubled
    since the last check, and after the last layer.  A failed obligation
    yields a lasso: a shortest trace to a state that starves it, followed
    by a cycle back to that state on which it is never served, so the
    trace ends in a state it passed before.  A returned trace is replayed
    from ``session``, the cycle as many turns as its labels need (see
    below).  Otherwise the result is Verified, weakened to
    HorizonExceeded if some state at depth ``horizon`` could still move.

    States are kept up to unread lanes.  A lane (s, r) is unread at a
    state when r is absent or r's node reaches no input from s; an
    ended r reaches none.  It stays unread, since the nodes that r
    reaches only shrink, so no option ever reads its head and only
    whether it is empty can count: input-enabling owes it nothing, so
    its content is dropped, and under queue-consuming it is one marker,
    which a push leaves as it is.  Concrete states that differ only on
    unread lanes have the same options, hence the same rounds at the
    same positions in :func:`_rounds`, starve the same obligations, and
    a round takes them to states that again differ only on unread
    lanes.  So this is a bisimulation: it keeps every deadlock and every
    run that starves an obligation forever, and the rounds of a path
    replay from ``session``.

    A push tests its lane against its receiver's node at that point of
    the round: the lane is readable if the receiver waits on that sender
    there, else by the node's read mask (:class:`_Reads`), whose first
    lookup meets the receiver.  When a participant met moves to a node
    whose mask shrank, the lanes into it that it can no longer read are
    collapsed.  A lane that becomes unread before its receiver is met
    keeps its messages until its next push collapses it, so no unread
    lane grows either way.  An edge whose push finds its lane unread is
    growing: its concrete lane gets longer.  A participant's mask is the
    same all along a cycle, so a cycle that pushes onto a lane that it
    cannot read has a growing edge, and an edge that shrinks a mask,
    marked or not, lies on no cycle.  A cycle with no growing edge
    therefore replays to a state equal up to labels (see below), and
    only such a cycle makes a lasso.  A starving cycle that grows a lane
    has none, and the concrete run around it never repeats a state: it
    makes the answer HorizonExceeded, never Verified.

    States are also kept up to labels that no reader can tell apart, as
    the paper's queue equivalence indexed by the type lets such messages
    trade places (``wellformed.indistinguishable``): a lane holds one
    representative per class of :class:`_Labels`, found once per
    communication on its first visit, and so does the start queue.
    Concrete states that differ only within classes have the same
    options, since an input offered on one head is offered on the other
    and leads to the same node, hence the same rounds at the same
    positions in :func:`_rounds`; they starve the same obligations,
    since :func:`_starved` sees only who can move and which lanes are
    empty; and a round takes them to states that again differ only
    within classes: again a bisimulation.  But a cycle may return to a
    concrete state whose labels differ, so a lasso replays its cycle
    turn after turn until a turn starts with the queue that an earlier
    turn started with.  Every turn starts at the same process nodes,
    pushes the same labels, since it takes the same positions from the
    same nodes, and pops as many as it pushes on every lane.  So once
    the turns have pushed n messages onto a lane of n, that lane starts
    every turn with the same labels, and a lasso ends within (longest
    lane + 1) turns.
    """
    names = [name for name, _ in session.net.items()]
    place = {name: i for i, name in enumerate(names)}
    start = [quotient(proc) for _, proc in session.net.items()]
    chans = set(session.queue.channels())
    for name, proc in zip(names, start):
        chans.update((name, node.receiver) for node in reachable_nodes(proc)
                     if node.kind == OUT)
    chans = sorted(chans)
    slot = {chan: i for i, chan in enumerate(chans, len(names))}
    labels = _Labels(dict(zip(names, start)))
    # each communication's mover, lane and receiver positions, the last
    # None for an absent receiver, its sender's bit and the
    # representative of its label
    where = {}
    table = {}  # the quotients' moves, kept out of session.net's table
    reads = _Reads(start)
    masks, always, shrinks = reads.masks, reads.always, reads.shrinks
    unread = () if mode is LivenessMode.INPUT_ENABLING else _UNREAD
    initial = list(start)
    for sender, receiver in chans:
        lane = tuple([labels.rep(sender, receiver, label)
                      for label in session.queue.labels(sender, receiver)])
        r = place.get(receiver)
        initial.append(lane if not lane or r is not None and (
            start[r].sender == sender
            or reads.mask(r, start[r]) & reads.bit(sender)) else unread)
    initial = tuple(initial)
    index = {initial: 0}
    # a round is named by its position in _rounds of its state, and a
    # growing edge holds the complement ~k of its round
    parent = [None]  # (predecessor, round) on a shortest trace
    edges = []  # per expanded state: (successor, round) pairs
    starved = []  # per expanded state: the obligations it starves
    truncated = False  # a state at depth horizon can move

    def options(state, deep):
        """The options of a new state, or None when nobody can move there
        while something is owed.  A state at depth ``horizon`` (``deep``)
        is not expanded: its options are built only if it owes something,
        or until one such state can move."""
        nonlocal truncated
        if deep and truncated and not _starved(mode, names, chans, state, {}):
            return {}

        def head(sender, receiver):
            i = slot.get((sender, receiver))
            return state[i][0] if i is not None and state[i] else None

        opts = _options_by_player(zip(names, state), head, table)
        if not opts and _starved(mode, names, chans, state, opts):
            return None
        truncated = truncated or deep and bool(opts)
        return opts

    opts = options(initial, horizon <= 0)
    if opts is None:
        return CounterexampleTrace(())
    layer = [(initial, opts)]  # the states of a layer
    first = 0
    checked = 0  # states expanded at the last cycle check
    unchecked = False  # an edge closed a cycle since then
    for depth in range(horizon):
        layer_end = len(parent)
        if first == layer_end:
            break
        deep = depth == horizon - 1
        nxt = []
        layer.reverse()  # popped as expanded, freeing each state's options
        for i in range(first, layer_end):
            current, opts = layer.pop()
            starved.append(_starved(mode, names, chans, current, opts))
            out = []
            # a completed state has no options, and so no round
            for k, combo in enumerate(_rounds(opts)):
                state = list(current)
                g = k  # the edge's round, ~k if it grows
                for comm in combo:
                    at = where.get(comm)
                    if at is None:
                        at = where[comm] = (
                            place[comm.play], slot[comm.sender, comm.receiver],
                            place.get(comm.receiver), reads.bit(comm.sender),
                            labels.rep(comm.sender, comm.receiver, comm.label))
                    mover, lane, receiver, bit, label = at
                    node = state[mover]
                    state[mover] = node.branches[comm.label]
                    if comm.kind == IN:
                        state[lane] = state[lane][1:]
                    elif receiver is not None and (
                            always[receiver] & bit
                            or state[receiver].sender == comm.sender
                            or reads.mask(receiver, state[receiver]) & bit):
                        state[lane] = (*state[lane], label)
                    else:
                        state[lane] = unread
                        g = ~k
                    if shrinks[mover] and masks[node] != masks[state[mover]]:
                        lost = masks[node] & ~masks[state[mover]]
                        for sender, gone in reads.bits.items():
                            other = slot.get((sender, comm.play))
                            if gone & lost and other is not None \
                                    and state[other]:
                                state[other] = unread
                state = tuple(state)
                j = index.setdefault(state, len(parent))
                if j == len(parent):
                    parent.append((i, k))
                    found = options(state, deep)
                    if found is None:
                        return CounterexampleTrace(
                            _replay(session, _path(parent, j, 0)))
                    if not deep:
                        nxt.append((state, found))
                elif j < layer_end and g == k:
                    # a cycle can only close on an edge that does not
                    # lead one layer deeper, and _lasso takes no growing
                    # one
                    unchecked = True
                out.append((j, g))
            edges.append(tuple(out))
        first, layer = layer_end, nxt
        # check again once the expanded graph has doubled, and after the
        # last layer: the checks cost linear time in total, and a lasso
        # is found within twice the states it needs
        last = deep or first == len(parent)
        if unchecked and (last or len(edges) >= 2 * checked):
            bad = _lasso(edges, starved)
            if bad is not None:
                v, cycle = bad
                return CounterexampleTrace(
                    _replay(session, _path(parent, v, 0), cycle))
            checked, unchecked = len(edges), False
    if truncated or _grows(edges, starved):
        return HorizonExceeded(horizon)
    return Verified()
