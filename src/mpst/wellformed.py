"""Analyses of global types and type configurations.

The centre piece is the inductive balancing check: a sound,
necessarily incomplete test that every message ever queued is also
read and that queue growth between recurrences of a type stays
harmless.  Supporting judgments: depth and boundedness of types,
weight of a message, readability and deep readability of queues, the
type-indexed queue equivalence, and the agreement between a type and
the queue growth it produces.

Balancing is undecidable (queue machines embed into it), so the main
entry points answer Accept, with a reusable derivation, or Unknown.
One check shares its agree calls' work, and reuses a subderivation
wherever the part of the path that it read is the same.
"""

from __future__ import annotations

from typing import Optional

from mpst.terms import (
    END,
    IN,
    OUT,
    GNode,
    Msg,
    Queue,
    bisimilar,
    players,
    reachable_nodes,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# the longest-wait engine behind depth, weight, read and dread


def _longest(start, succ, target, memo):
    """Longest number of steps from ``start`` to a state where
    ``target`` holds; INF when some path from ``start`` reaches a dead
    end (a state without successors) or a cycle first.

    Iterative depth-first search.  Values do not depend on the path
    taken, so calls with the same ``succ`` and ``target`` may share
    ``memo``.
    """
    # a frame is [state, successors left, longest successor value],
    # the bottom one has ``start`` as its only successor; once a
    # successor gives INF the others cannot matter
    stack = [[None, iter((start,)), 0]]
    while True:
        frame = stack[-1]
        state = next(frame[1], None) if frame[2] != INF else None
        if state is None:
            if len(stack) == 1:
                return frame[2]
            stack.pop()
            val = memo[frame[0]] = 1 + frame[2]
        elif state in memo:
            val = memo[state]
        elif target(state):
            val = memo[state] = 0
        else:
            kids = succ(state)
            # INF while on the current path: coming back closes a cycle
            memo[state] = INF
            stack.append([state, iter(kids), 0 if kids else INF])
            continue
        stack[-1][2] = max(stack[-1][2], val)


def _children(node):
    return node.branches.values()


# ---------------------------------------------------------------------------
# depth and boundedness


def depth(g: GNode, p: str):
    """How long p can be kept waiting in g; 0 when p plays no part."""
    if p not in players(g):
        return 0
    return 1 + _longest(g, _children, lambda n: n.player == p, {})


def bounded_witness(g: GNode) -> Optional[dict]:
    """None when bounded, else a subterm and participant with
    infinite depth: the first such subterm in :func:`reachable_nodes`
    order, and its least such participant."""
    nodes = reachable_nodes(g)
    preds = {n: [] for n in nodes}
    for n in nodes:
        for c in n.branches.values():
            preds[c].append(n)
    reaching = {}  # participant -> (subterms it plays a part in, memo)
    for p in sorted(players(g)):
        seen = {n for n in nodes if n.player == p}
        frontier = seen
        while frontier:
            frontier = {m for n in frontier for m in preds[n]} - seen
            seen |= frontier
        reaching[p] = (seen, {})
    for sub in nodes:
        for p, (seen, memo) in reaching.items():
            if sub in seen and _longest(
                    sub, _children, lambda n: n.player == p, memo) == INF:
                return {"participant": p, "subterm": sub}
    return None


def bounded(g: GNode) -> bool:
    """Every participant of every subterm waits boundedly long."""
    return bounded_witness(g) is None


# ---------------------------------------------------------------------------
# weight of a message


def weight(msg: Msg, g: GNode):
    """Longest wait until ``msg`` can be read; INF if some path never
    reads it."""
    return _longest(g, _children, lambda n: (
        n.kind == IN and (n.sender, n.receiver) == msg.channel
        and msg.label in n.branches), {})


# ---------------------------------------------------------------------------
# readability


def _read_succ(state):
    node, q = state
    chan = (node.sender, node.receiver)
    if node.kind == IN and q.head(*chan) in node.branches:
        q = q.pop(*chan)[1]
    return [(c, q) for c in node.branches.values()]


def _readable(node, queue, memo):
    return queue.is_empty or _longest(
        (node, queue), _read_succ, lambda s: s[1].is_empty, memo) != INF


def read(g: GNode, queue: Queue) -> bool:
    """Can every message of the queue be read on every path of g?

    An input choice whose channel head matches one of its labels
    consumes the head in all branches; other nodes pass the queue on
    unchanged.  Every path of (node, queue) states must reach the empty
    queue: a leftover at End, or a recurring state, means no.
    """
    return _readable(g, queue, {})


def dread(g: GNode, queue: Queue) -> bool:
    """Deep readability: the queue stays readable wherever g goes.

    The empty queue always is.  Any other queue is deeply readable
    exactly when no End is reachable from g and every cycle reachable
    from g passes through a node n with ``read(n, queue)``; that is,
    when no reachable node has an INF longest wait for such an n.
    """
    if queue.is_empty:
        return True
    read_memo, memo = {}, {}
    return all(_longest(n, _children,
                        lambda m: _readable(m, queue, read_memo), memo) != INF
               for n in reachable_nodes(g))


# ---------------------------------------------------------------------------
# type-indexed queue equivalence


class ChannelMismatch(ValueError):
    pass


def indistinguishable(m1: Msg, m2: Msg, g: GNode) -> bool:
    """Whether g reacts the same way to reading m1 or m2.

    Both labels must occur in g, and every input choice on their
    channel must either offer neither or offer both with bisimilar
    continuations.
    """
    if m1.channel != m2.channel:
        raise ChannelMismatch(f"{m1} and {m2} travel on different channels")
    nodes = reachable_nodes(g)
    occurring = {lab for n in nodes for lab in n.branches}
    if m1.label not in occurring or m2.label not in occurring:
        return False
    for node in nodes:
        if node.kind != IN or (node.sender, node.receiver) != m1.channel:
            continue
        offered = {m1.label, m2.label} & set(node.branches)
        if not offered:
            continue
        if offered != {m1.label, m2.label}:
            return False
        if not bisimilar(node.branches[m1.label], node.branches[m2.label]):
            return False
    return True


def queue_equiv_g(q1: Queue, q2: Queue, g: GNode) -> bool:
    """Queue equivalence extended with replacement of messages that g
    cannot tell apart; per channel, positionwise."""
    if q1.channels() != q2.channels():
        return False
    for chan in q1.channels():
        lanes = zip(q1.labels(*chan), q2.labels(*chan))
        if len(q1.labels(*chan)) != len(q2.labels(*chan)):
            return False
        for a, b in lanes:
            if a == b:
                continue
            if not indistinguishable(Msg(chan[0], a, chan[1]),
                                     Msg(chan[0], b, chan[1]), g):
                return False
    return True


# ---------------------------------------------------------------------------
# agreement


def agree(g: GNode, queue: Queue, mod_g: bool = False) -> bool:
    """Messages in the queue can be exchanged with the outputs of g.

    At an output, the label appended behind the queue must be able to
    move to the front, up to the equivalence indexed by the branch
    continuation; the front message moves out of the way exactly when
    the continuation cannot distinguish the two.  A path stops where its
    (node, queue) state recurs, with ``mod_g`` up to that same
    equivalence.  Without ``mod_g``, a finished state holds on every
    path, so agreement means that no reachable state breaks it; the
    calls of one balancing check share only states finished by calls
    that held, as one that failed may have finished a state reaching an
    ancestor that was still open and failed.  ``mod_g`` finishes none.
    """
    return _agree(g, queue, mod_g, set())


def _agree(g, queue, mod_g, table) -> bool:
    """:func:`agree` that skips, and when it holds extends, ``table``."""
    # path: node -> its queues on the current path, oldest first, as
    # the keys of a dict; (node, None): exit.  A queue occurs at most
    # once per node on the path, so the exit pops the last one entered
    path, done, swaps = {}, set(), set()
    stack = [(g, queue)]
    while stack:
        node, q = stack.pop()
        if q is None:
            q = path[node].popitem()[0]
            if not mod_g:
                done.add((node, q))
            continue
        if node.kind == END or (node, q) in done or (node, q) in table:
            continue
        hyps = path.setdefault(node, {})
        if q in hyps or mod_g and any(queue_equiv_g(hq, q, node)
                                      for hq in hyps):
            continue
        hyps[q] = None
        stack.append((node, None))
        chan = (node.sender, node.receiver)
        head = q.head(*chan) if node.kind == OUT else None
        for lab, child in node.branches.items():
            if head is None:
                stack.append((child, q))
                continue
            # the first failed swap ends the call, so only swaps that
            # held are remembered
            swap = (chan, head, lab, child)
            if head != lab and swap not in swaps:
                if not indistinguishable(Msg(chan[0], head, chan[1]),
                                         Msg(chan[0], lab, chan[1]), child):
                    return False
                swaps.add(swap)
            stack.append((child, q.pop(*chan)[1].push(chan[0], lab, chan[1])))
    table |= done
    return True


# ---------------------------------------------------------------------------
# the ok judgment and inductive balancing


def split_suffix(prefix: Queue, whole: Queue) -> Optional[Queue]:
    """The suffix with ``whole = prefix . suffix``, channel by
    channel, or None when ``prefix`` is not a prefix of ``whole``."""
    lanes = {}
    for chan in prefix.channels():
        want = prefix.labels(*chan)
        have = whole.labels(*chan)
        if have[:len(want)] != want:
            return None
        lanes[chan] = have[len(want):]
    for chan in whole.channels():
        if chan not in lanes:
            lanes[chan] = whole.labels(*chan)
    return Queue(lanes)


def ok(g: GNode, hyp_queue: Queue, queue: Queue, weak: bool = False,
       mod_g: bool = False) -> Optional[Queue]:
    """Whether closing a loop from ``hyp_queue`` to ``queue`` is safe.

    The queue may only have grown by a suffix that agrees with g and,
    unless ``weak``, that is deeply readable while the old part stays
    readable.  Returns the suffix when all conditions hold.
    """
    readable = weak or read(g, hyp_queue)
    return (_grown(g, hyp_queue, queue, weak, mod_g, set()) if readable
            else None)


def _grown(g, hyp_queue, queue, weak, mod_g, table) -> Optional[Queue]:
    """:func:`ok` less its ``read``, for hypotheses read when pushed."""
    suffix = split_suffix(hyp_queue, queue)
    if suffix is None or not _agree(g, suffix, mod_g, table):
        return None
    return suffix if weak or dread(g, suffix) else None


class Accept:
    """A successful balancing check with its derivation tree, which may
    share subderivations between branches and must not be mutated."""

    def __init__(self, derivation: dict):
        self.derivation = derivation

    def __repr__(self):
        return f"Accept({self.derivation['rule']})"


class Unknown:
    """The inductive check could not confirm balancing."""

    def __repr__(self):
        return "Unknown()"


def _inductive(g, queue, weak, max_revisits, mod_g):
    # the derivation of a stacked (node, queue) state goes into
    # parent[slot]; path and exit markers work as in agree.  The queues
    # on the path are the hypotheses a loop may close against, and any
    # failed premise fails the whole check.  The walk reads the path only
    # as path[node] on entering a node, so a subderivation is reused where
    # the path gives its views, path[node] at its first entry of each
    # node.  Only frames at nodes entered before are kept, so only there
    # and while one is open are (node, view) entries logged; an exit
    # marker has the frame's derivation and start in the log, or None
    root, path, read_memo, table = {}, {}, {}, set()
    memo, log, open_frames = {}, [], 0
    stack = [(g, queue, root, "derivation")]
    while stack:
        node, q, parent, slot = stack.pop()
        if q is None:
            q = path[node].pop()
            if slot is not None:
                views = dict(reversed(log[slot:]))
                log[slot:] = views.items()
                memo[node, q] = views, parent
                open_frames -= 1
            continue
        if node.kind == END:
            if not q.is_empty:
                return Unknown()
            parent[slot] = {"rule": "ib-End", "type": node, "queue": q}
            continue
        start = len(log) if node in path else None
        hyps = path.setdefault(node, [])
        if start is not None:
            views, d = memo.get((node, q), (None, None))
            if views and all(path[m] == v for m, v in reversed(views.items())):
                parent[slot] = d
                log.extend(views.items())
                continue
        if open_frames or start is not None:
            log.append((node, hyps.copy()))
        for hq in hyps:
            suffix = _grown(node, hq, q, weak, mod_g, table)
            if suffix is not None:
                parent[slot] = {"rule": "ib-Cycle", "type": node, "queue": q,
                                "hypothesis_queue": hq, "suffix": suffix}
                break
        else:
            chan = (node.sender, node.receiver)
            head = q.head(*chan)
            if (len(hyps) > max_revisits
                    or not (weak or _readable(node, q, read_memo))
                    or node.kind == IN and head not in node.branches):
                return Unknown()
            hyps.append(q)
            d = parent[slot] = {"rule": "ib-Out" if node.kind == OUT
                                else "ib-In", "type": node, "queue": q}
            stack.append((node, None, d, start))
            open_frames += start is not None
            if node.kind == OUT:
                # pushed reversed so that the branches fill in label order
                d["branches"] = {}
                stack.extend((child, q.push(chan[0], lab, chan[1]),
                              d["branches"], lab)
                             for lab, child in reversed(node.branches.items()))
            else:
                d["label"] = head
                stack.append((node.branches[head], q.pop(*chan)[1], d,
                              "branch"))
    return Accept(root["derivation"])


def balanced_inductive(g: GNode, queue: Queue, max_revisits: int = 1,
                       mod_g: bool = False):
    """Sound check that the configuration is balanced.

    Loops close against an earlier visit of the same type when the
    queue grew by an agreeable, deeply readable suffix; a node may be
    unfolded past its first visit ``max_revisits`` times before the
    check gives up with Unknown.
    """
    return _inductive(g, queue, weak=False, max_revisits=max_revisits,
                      mod_g=mod_g)


def weakly_balanced_inductive(g: GNode, queue: Queue, max_revisits: int = 1,
                              mod_g: bool = False):
    """Like :func:`balanced_inductive` without the readability
    premises: messages may stay unread, growth must still agree."""
    return _inductive(g, queue, weak=True, max_revisits=max_revisits,
                      mod_g=mod_g)
