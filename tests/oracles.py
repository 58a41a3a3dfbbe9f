"""Independent reference implementations used to cross-check the package.

Everything here is a slow, direct transcription of a definition:
bounded tree unfoldings for bisimilarity, path enumeration for depth
and weight, recursive path walks for readability and deep
readability, breadth-first closure for the type-indexed queue
equivalence, recursive walks with path hypotheses for agreement and
inductive balancing, a straight-line queue machine interpreter, and
uncached steppers for sessions and type configurations.  Expected values frozen
into the tests were computed with these functions.
"""

from __future__ import annotations

from mpst.terms import Comm, GNode, Msg, Network, Queue
from mpst.wellformed import (
    Accept,
    Unknown,
    indistinguishable,
    ok,
    queue_equiv_g,
    read,
)

INF = float("inf")


def _reach(root):
    todo, seen = [root], {}
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen[id(n)] = n
        todo.extend(n.branches.values())
    return list(seen.values())


# ---------------------------------------------------------------------------
# bisimilarity by bounded unfolding


def unfold(node, depth):
    """The tree unfolding of a graph node, cut off at ``depth``."""
    if depth == 0:
        return "..."
    return (node._local_sig(),
            tuple((lab, unfold(node.branches[lab], depth - 1))
                  for lab in sorted(node.branches)))


def oracle_bisimilar(a, b) -> bool:
    """Product-graph closure: the visited pair set is a bisimulation
    unless some pair disagrees locally."""
    seen = set()
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if x._local_sig() != y._local_sig():
            return False
        for lab in x.branches:
            todo.append((x.branches[lab], y.branches[lab]))
    return True


# ---------------------------------------------------------------------------
# players, depth and weight by path enumeration


def oracle_players(g) -> set:
    return {n.player for n in _reach(g) if n.kind != "end"}


def _depth_from(node, p, onpath):
    if node.kind != "end" and node.player == p:
        return 0
    if node.kind == "end":
        return INF
    if id(node) in onpath:
        # a cycle that avoids p supports arbitrarily long paths
        return INF
    onpath = onpath | {id(node)}
    return 1 + max(_depth_from(c, p, onpath) for c in node.branches.values())


def oracle_depth(g, p):
    """Length of the longest wait before p moves, 0 if p plays no part."""
    if p not in oracle_players(g):
        return 0
    return 1 + _depth_from(g, p, frozenset())


def _weight_from(node, msg, onpath):
    if node.kind == "end":
        return INF
    if (node.kind == "in" and (node.sender, node.receiver) == msg.channel
            and msg.label in node.branches):
        return 0
    if id(node) in onpath:
        return INF
    onpath = onpath | {id(node)}
    return 1 + max(_weight_from(c, msg, onpath) for c in node.branches.values())


def oracle_weight(msg, g):
    """Length of the longest wait before ``msg`` can be read in ``g``."""
    return _weight_from(g, msg, frozenset())


# ---------------------------------------------------------------------------
# readability and deep readability by walking paths


def oracle_read(g, queue) -> bool:
    """Every path of g reads the whole queue.  An input choice whose
    channel head matches one of its labels consumes the head in all
    branches; a path fails at End with a leftover, or when it comes
    back to a node with the same queue."""
    memo = {}

    def go(node, q):
        if q.is_empty:
            return True
        if node.kind == "end":
            return False
        key = (id(node), q.key())
        if key in memo:
            return memo[key]
        memo[key] = False
        if (node.kind == "in"
                and q.head(node.sender, node.receiver) in node.branches):
            _, q = q.pop(node.sender, node.receiver)
        memo[key] = all(go(c, q) for c in node.branches.values())
        return memo[key]

    return go(g, queue)


def oracle_dread(g, queue) -> bool:
    """The queue, carried unchanged along every path of g, is empty at
    End and readable wherever the path first comes back to a node it
    visited; paths are told apart by the set of nodes they visited."""
    memo = {}

    def go(node, visited):
        if node.kind == "end":
            return queue.is_empty
        key = (id(node), visited)
        if key in memo:
            return memo[key]
        memo[key] = False
        if id(node) in visited and oracle_read(node, queue):
            res = True
        else:
            grown = visited | {id(node)}
            res = all(go(c, grown) for c in node.branches.values())
        memo[key] = res
        return res

    return go(g, frozenset())


# ---------------------------------------------------------------------------
# type-indexed queue equivalence by breadth-first closure


def oracle_indistinguishable(m1: Msg, m2: Msg, g) -> bool:
    if m1.channel != m2.channel:
        return False
    occurring = {lab for n in _reach(g) for lab in n.branches}
    if m1.label not in occurring or m2.label not in occurring:
        return False
    for n in _reach(g):
        if n.kind != "in" or (n.sender, n.receiver) != m1.channel:
            continue
        hit = {m1.label, m2.label} & set(n.branches)
        if not hit:
            continue
        if (m1.label in n.branches and m2.label in n.branches
                and oracle_bisimilar(n.branches[m1.label],
                                     n.branches[m2.label])):
            continue
        return False
    return True


def oracle_queue_equiv(seq1, seq2, g, limit=500000) -> bool:
    """Closure of swaps on distinct channels and indistinguishable
    replacements, on raw message sequences."""
    occurring = sorted({lab for n in _reach(g) for lab in n.branches})
    start, goal = tuple(seq1), tuple(seq2)
    seen = {start}
    frontier = [start]
    while frontier:
        if goal in seen:
            return True
        if len(seen) > limit:
            raise RuntimeError("closure too large")
        nxt = []
        for seq in frontier:
            for i in range(len(seq) - 1):
                if seq[i].channel != seq[i + 1].channel:
                    swapped = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
            for i, m in enumerate(seq):
                for lab in occurring:
                    if lab == m.label:
                        continue
                    other = Msg(m.sender, lab, m.receiver)
                    if oracle_indistinguishable(m, other, g):
                        repl = seq[:i] + (other,) + seq[i + 1:]
                        if repl not in seen:
                            seen.add(repl)
                            nxt.append(repl)
        frontier = nxt
    return goal in seen


# ---------------------------------------------------------------------------
# agreement and inductive balancing by recursive path walks


def oracle_agree(g, queue, mod_g=False) -> bool:
    """Every path of (node, queue) states agrees, where a path stops at
    End or where its state recurs (with ``mod_g``, up to the queue
    equivalence indexed by the node); hypotheses are the path so far."""

    def matches(node, q, hyps):
        for hnode, hq in hyps:
            if hnode is not node:
                continue
            if hq == q or (mod_g and queue_equiv_g(hq, q, node)):
                return True
        return False

    def go(node, q, hyps):
        if node.kind == "end":
            return True
        if matches(node, q, hyps):
            return True
        grown = hyps + ((node, q),)
        if node.kind == "in":
            return all(go(c, q, grown) for c in node.branches.values())
        chan = (node.sender, node.receiver)
        for lab, child in node.branches.items():
            head = q.head(*chan)
            if head is None:
                qi = q
            else:
                if head != lab and not indistinguishable(
                        Msg(chan[0], head, chan[1]),
                        Msg(chan[0], lab, chan[1]), child):
                    return False
                _, rest = q.pop(*chan)
                qi = rest.push(chan[0], lab, chan[1])
            if not go(child, qi, grown):
                return False
        return True

    return go(g, queue, ())


def oracle_inductive(g, queue, weak, max_revisits, mod_g):
    """Inductive balancing as a recursive derivation search: a loop
    closes against the oldest earlier visit of its node that ``ok``
    allows, and a missing subderivation fails the whole check."""

    def go(node, q, hyps):
        if node.kind == "end":
            if q.is_empty:
                return {"rule": "ib-End", "type": node, "queue": q}
            return None
        for hnode, hq in hyps:
            if hnode is not node:
                continue
            suffix = ok(node, hq, q, weak, mod_g)
            if suffix is not None:
                return {"rule": "ib-Cycle", "type": node, "queue": q,
                        "hypothesis_queue": hq, "suffix": suffix}
        expansions = sum(1 for hnode, _ in hyps if hnode is node)
        if expansions > max_revisits:
            return None
        grown = hyps + ((node, q),)
        if not weak and not read(node, q):
            return None
        if node.kind == "out":
            chan = (node.sender, node.receiver)
            branches = {}
            for lab, child in node.branches.items():
                sub = go(child, q.push(chan[0], lab, chan[1]), grown)
                if sub is None:
                    return None
                branches[lab] = sub
            return {"rule": "ib-Out", "type": node, "queue": q,
                    "branches": branches}
        chan = (node.sender, node.receiver)
        head = q.head(*chan)
        if head is None or head not in node.branches:
            return None
        _, rest = q.pop(*chan)
        sub = go(node.branches[head], rest, grown)
        if sub is None:
            return None
        return {"rule": "ib-In", "type": node, "queue": q,
                "label": head, "branch": sub}

    derivation = go(g, queue, ())
    if derivation is None:
        return Unknown()
    return Accept(derivation)


# ---------------------------------------------------------------------------
# queue machines


def oracle_qm_run(delta, start, bottom, word, max_steps):
    """Run a queue machine from ``<start, word bottom>``.

    ``delta`` maps (state, symbol) to (state, written string).  Returns
    ("accepted", steps) or ("running", max_steps).
    """
    state, tape = start, tuple(word) + (bottom,)
    for step in range(max_steps):
        if not tape:
            return ("accepted", step)
        head, rest = tape[0], tape[1:]
        state, written = delta[(state, head)]
        tape = rest + tuple(written)
    if not tape:
        return ("accepted", max_steps)
    return ("running", max_steps)


# ---------------------------------------------------------------------------
# sessions


def oracle_session_successors(net: Network, queue: Queue):
    """All single communications a session can do, direct from the rules."""
    out = []
    for name, proc in net.items():
        if proc.kind == "out":
            for lab in sorted(proc.branches):
                out.append((Comm("out", name, proc.partner, lab),
                            net.with_comp(name, proc.branches[lab]),
                            queue.push(name, lab, proc.partner)))
        elif proc.kind == "in":
            head = queue.head(proc.partner, name)
            if head is not None and head in proc.branches:
                _, rest = queue.pop(proc.partner, name)
                out.append((Comm("in", proc.partner, name, head),
                            net.with_comp(name, proc.branches[head]),
                            rest))
    return out


# ---------------------------------------------------------------------------
# type configurations


def oracle_config_step(g: GNode, queue: Queue, comm: Comm, fuel=200):
    """Uncached transcription of the configuration transition rules.

    Returns the stepped (type, queue) or None when the rule premises
    fail.  Recursion is cut by ``fuel``; running out raises, so callers
    can skip instances where the direct reading diverges.
    """
    if fuel <= 0:
        raise RecursionError("config step fuel exhausted")
    if g.kind == "end":
        return None
    p, q = comm.sender, comm.receiver
    if g.player == comm.play:
        if (g.kind == "out") != (comm.kind == "out"):
            return None
        if (g.sender, g.receiver) != (p, q) or comm.label not in g.branches:
            return None
        if comm.kind == "out":
            return g.branches[comm.label], queue.push(p, comm.label, q)
        if queue.head(p, q) != comm.label:
            return None
        _, rest = queue.pop(p, q)
        return g.branches[comm.label], rest
    gp, gq = g.sender, g.receiver
    if g.kind == "out":
        stepped, rests = {}, []
        for lab in sorted(g.branches):
            res = oracle_config_step(g.branches[lab],
                                     queue.push(gp, lab, gq), comm, fuel - 1)
            if res is None:
                return None
            child, qres = res
            if not qres.labels(gp, gq):
                return None
            last, qrest = qres.pop_last(gp, gq)
            if last != lab:
                return None
            stepped[lab] = child
            rests.append(qrest)
        if any(r != rests[0] for r in rests):
            return None
        return GNode("out", gp, gq, stepped), rests[0]
    head = queue.head(gp, gq)
    if head is None or head not in g.branches:
        return None
    _, beheaded = queue.pop(gp, gq)
    stepped, rests = {}, []
    for lab in sorted(g.branches):
        res = oracle_config_step(g.branches[lab], beheaded, comm, fuel - 1)
        if res is None:
            return None
        child, qres = res
        stepped[lab] = child
        rests.append(qres)
    if any(r != rests[0] for r in rests):
        return None
    return GNode("in", gp, gq, stepped), rests[0].push_front(gp, head, gq)
