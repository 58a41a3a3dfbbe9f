"""Analyses of global types and type configurations.

The centre piece is the inductive balancing check: a sound,
necessarily incomplete test that every message ever queued is also
read and that queue growth between recurrences of a type stays
harmless.  Supporting judgments: depth and boundedness of types,
weight of a message, readability and deep readability of queues, the
type-indexed queue equivalence, and the agreement between a type and
the queue growth it produces.  Readability, and agreement without
``mod_g``, are decided lane by lane.  One label-class rule, ``terms._alike``, says when a type
cannot tell two labels apart; it serves ``indistinguishable``, the
queue equivalence and agreement's swap test, as it serves the label
classes of the liveness check.

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
    _alike,
    _children,
    _peel,
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


# ---------------------------------------------------------------------------
# depth and boundedness


def depth(g: GNode, p: str):
    """How long p can be kept waiting in g; 0 when p plays no part.

    Every path from g meets a node of p or runs into End or a cycle, so
    a finite wait shows that p plays a part."""
    wait = _longest(g, _children, lambda n: n.player == p, {})
    return 0 if wait == INF and p not in players(g) else 1 + wait


def bounded_witness(g: GNode) -> Optional[dict]:
    """None when bounded, else a subterm and participant with
    infinite depth: the first such subterm in :func:`reachable_nodes`
    order, and its least such participant.

    A subterm that reaches p's nodes has finite depth for p exactly when
    every maximal path from it meets one: when the peel from them finds it.
    """
    nodes = reachable_nodes(g)
    preds = {n: [] for n in nodes}
    own = {}  # participant -> the nodes where it moves
    for n in nodes:
        if n.kind != END:
            own.setdefault(n.player, []).append(n)
        for c in n.branches.values():
            preds[c].append(n)
    unbounded = []  # (participant, the subterms where its depth is INF)
    for p in sorted(own):
        seen = set(own[p])
        stack = list(seen)
        while stack:
            for m in preds[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        seen.difference_update(_peel(own[p], preds))
        unbounded.append((p, seen))
    for sub in nodes:
        for p, seen in unbounded:
            if sub in seen:
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


def _readers(start, chan, label, table):
    """The nodes where the paths from ``start`` go on once they read
    ``label`` from ``chan``: the children of the first input on ``chan``
    offering ``label`` on each path, as a frozenset; None when a path
    reaches End or a cycle before such an input.

    ``table`` maps nodes to these values for one (chan, label); the
    walk fills it in for every node it passes, as :func:`_longest`
    does, and a node on the current path holds None, so that coming
    back to it closes a cycle.
    """
    # a frame is [node, children left, values of the children so far],
    # the values None once a child gave None
    stack = [[None, iter((start,)), []]]
    while True:
        frame = stack[-1]
        node = next(frame[1], None) if frame[2] is not None else None
        if node is None:
            if len(stack) == 1:
                return table[start]
            stack.pop()
            val = frame[2]
            if val is not None:
                val = val[0] if len(val) == 1 else frozenset().union(*val)
            table[frame[0]] = val
        elif node in table:
            val = table[node]
        elif (node.kind == IN and label in node.branches
              and (node.sender, node.receiver) == chan):
            val = table[node] = frozenset(node.branches.values())
        else:
            table[node] = None
            stack.append([node, iter(node.branches.values()),
                          [] if node.branches else None])
            continue
        vals = stack[-1][2]
        if val is None:
            stack[-1][2] = None
        elif vals is not None:
            vals.append(val)


def _readable(node, queue, memo) -> bool:
    """:func:`read` of ``queue`` at ``node``, lane by lane.

    A lane runs label by label through the set of nodes where its
    paths may read the next label; ``memo`` maps each (channel, label)
    to its :func:`_readers` table, so the calls of one balancing check
    share them.
    """
    for chan, labels in queue.key():
        nodes = (node,)
        for label in labels:
            table = memo.get((chan, label))
            if table is None:
                table = memo[chan, label] = {}
            found = []
            for n in nodes:
                kids = table[n] if n in table else _readers(n, chan, label,
                                                            table)
                if kids is None:
                    return False
                found.append(kids)
            nodes = found[0] if len(found) == 1 else frozenset().union(*found)
    return True


def read(g: GNode, queue: Queue) -> bool:
    """Can every message of the queue be read on every path of g?

    An input choice whose channel head matches one of its labels
    consumes the head in all branches; other nodes pass the queue on
    unchanged.  Every path of (node, queue) states must reach the empty
    queue: a leftover at End, or a recurring state, means no.

    The queue is readable exactly when each of its lanes is, alone.
    Every node passes the queue on to all its children, so the paths
    are the same whatever the queue holds; an input touches only the
    lane of its own channel; and nothing is pushed, so a lane once
    empty stays empty.  A path thus empties the queue exactly when it
    empties every lane.
    """
    return _readable(g, queue, {})


def dread(g: GNode, queue: Queue) -> bool:
    """Deep readability: the queue stays readable wherever g goes.

    The empty queue always is.  Any other queue is deeply readable
    exactly when no End is reachable from g and every cycle reachable
    from g passes through a node n with ``read(n, queue)``; that is,
    when no reachable node has an INF longest wait for such an n.
    ``read`` is decided lane by lane, as there.
    """
    return _dread(g, queue, {})


def _dread(g, queue, read_memo) -> bool:
    """:func:`dread` sharing ``read_memo`` with other calls."""
    if queue.is_empty:
        return True
    memo = {}
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
    continuations: the label-class rule, ``terms._alike``.
    """
    if m1.channel != m2.channel:
        raise ChannelMismatch(f"{m1} and {m2} travel on different channels")
    return _alike(g, m1.channel, m1.label, m2.label, {})


def queue_equiv_g(q1: Queue, q2: Queue, g: GNode) -> bool:
    """Queue equivalence extended with replacement of messages that g
    cannot tell apart; per channel, positionwise."""
    return _equiv(q1, q2, g, {})


def _equiv(q1, q2, g, memo) -> bool:
    """:func:`queue_equiv_g` sharing ``memo`` with other calls."""
    k1, k2 = q1.key(), q2.key()
    return len(k1) == len(k2) and all(
        c1 == c2 and len(l1) == len(l2)
        and all(a == b or _alike(g, c1, a, b, memo) for a, b in zip(l1, l2))
        for (c1, l1), (c2, l2) in zip(k1, k2))


# ---------------------------------------------------------------------------
# agreement


def agree(g: GNode, queue: Queue, mod_g: bool = False) -> bool:
    """Messages in the queue can be exchanged with the outputs of g.

    At an output, the label appended behind the queue must be able to
    move to the front, up to the equivalence indexed by the branch
    continuation; the front message moves out of the way exactly when
    the continuation cannot distinguish the two.  A path stops where its
    (node, queue) state recurs, with ``mod_g`` up to that same
    equivalence.

    Without ``mod_g``, agreement means that no reachable state breaks
    it, and it is decided lane by lane, over (node, lane) states.  An
    output on channel c whose lane is non-empty rotates lane c: it
    drops the head and appends its label; an output onto an empty lane
    pushes nothing, and every other node passes the queue on unchanged.
    So the reachable (node, lane c) pairs do not depend on the other
    lanes, and the swap test at a state reads only its node and lane c:
    agreement holds exactly when it holds for each lane alone.  A lane
    walk that held finished every state it met, since all of their
    successors were met too; the calls of one balancing check share
    those, per (node, channel, lane).  ``mod_g`` prunes a path by the
    equivalence on the whole queue, which does not follow from the
    equivalence lane by lane, so it walks (node, queue) states.
    """
    return _agree(g, queue, mod_g, {})


def _agree(g, queue, mod_g, memo) -> bool:
    """:func:`agree` that skips the finished lane states in ``memo``,
    adds those of each lane that held, and keeps the label classes
    there (see :func:`_grown`)."""
    if mod_g:
        return _agree_mod_g(g, queue, memo)
    for chan, labels in queue.key():
        done = memo.setdefault(chan, set())
        seen = set()
        stack = [(g, labels)]
        while stack:
            state = stack.pop()
            if state in seen or state in done:
                continue
            seen.add(state)
            node, lane = state
            if node.kind == OUT and (node.sender, node.receiver) == chan:
                head, rest = lane[0], lane[1:]
                for lab, child in node.branches.items():
                    if head != lab and not _alike(child, chan, head, lab,
                                                  memo):
                        return False
                    stack.append((child, (*rest, lab)))
            else:
                for child in node.branches.values():
                    stack.append((child, lane))
        done |= seen
    return True


def _agree_mod_g(g, queue, memo) -> bool:
    """:func:`agree` with ``mod_g``: a depth-first walk of (node, queue)
    states, with the queues of the current path per node, against which
    a state recurs; (node, None) is an exit, which pops the last one."""
    path = {}
    stack = [(g, queue)]
    while stack:
        node, q = stack.pop()
        if q is None:
            path[node].pop()
            continue
        hyps = path.setdefault(node, [])
        if node.kind == END or any(_equiv(hq, q, node, memo) for hq in hyps):
            continue
        hyps.append(q)
        stack.append((node, None))
        chan = (node.sender, node.receiver)
        head = q.head(*chan) if node.kind == OUT else None
        for lab, child in node.branches.items():
            if head is None:
                stack.append((child, q))
            elif head != lab and not _alike(child, chan, head, lab, memo):
                return False
            else:
                stack.append((child, q.pop(*chan)[1].push(chan[0], lab,
                                                          chan[1])))
    return True


# ---------------------------------------------------------------------------
# the ok judgment and inductive balancing


def _split_suffix(prefix: Queue, whole: Queue) -> Optional[Queue]:
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
    memo = {}
    readable = weak or _readable(g, hyp_queue, memo)
    return (_grown(g, hyp_queue, queue, weak, mod_g, memo)
            if readable else None)


def _grown(g, hyp_queue, queue, weak, mod_g, memo) -> Optional[Queue]:
    """:func:`ok` less its ``read``, for hypotheses read when pushed.

    ``memo`` holds what the premises of one check share, each kind
    under keys of its own shape: a :func:`_readers` table per (channel,
    label), the label classes per (node, channel) and the set of
    finished agreement states (node, lane) per channel."""
    suffix = _split_suffix(hyp_queue, queue)
    if suffix is None or not _agree(g, suffix, mod_g, memo):
        return None
    return suffix if weak or _dread(g, suffix, memo) else None


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
    root, path, shared = {}, {}, {}
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
            suffix = _grown(node, hq, q, weak, mod_g, shared)
            if suffix is not None:
                parent[slot] = {"rule": "ib-Cycle", "type": node, "queue": q,
                                "hypothesis_queue": hq, "suffix": suffix}
                break
        else:
            chan = (node.sender, node.receiver)
            head = q.head(*chan)
            if (len(hyps) > max_revisits
                    or not (weak or _readable(node, q, shared))
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
