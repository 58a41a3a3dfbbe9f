"""Known answers, and the checks that compare the package's results to them.

Answers come from three places, never from running ``mpst`` on the
same input: the hand-written table for ``protocols/*.mps`` below
(taken from each file's header comment and from ``tests/zoo.py``), the
independent reference implementations in ``tests/oracles.py``, and
facts derived by hand for the scaling families.

A check returns True when the result agrees with the known answer,
False when it contradicts it, and None when there is no known answer
for that result (an Unknown balancing verdict, say).
"""

from __future__ import annotations

INF = float("inf")

# (file, subject, call) -> expected answer.  Subjects are
# "global/queue" for globals ("-" for the empty queue), the network
# name for networks, and "machine" for queue machines, whose answer
# says which words they accept.
PROTOCOL_TABLE = {
    ("mp", "N", "sessions.check_liveness"): "counterexample",
    ("mp", "G/-", "wellformed.balanced"): "not accept",
    ("depth", "G/-", "wellformed.bounded"): False,
    ("depth", "Inner/-", "wellformed.bounded"): False,
    ("depth", "Inner/-", "wellformed.depth r"): INF,
    ("unread", "G/M", "wellformed.weight p->r:l2"): INF,
    ("unread", "G/M", "wellformed.balanced"): "not accept",
    ("stuck", "G/Stray", "wellformed.balanced"): "not accept",
    ("machines", "Copy", "accepts"): "none",
    ("machines", "Eraser", "accepts"): "all",
    ("machines", "Parity", "accepts"): "even",
}


def machine_accepts(kind: str, word: str) -> bool:
    return kind == "all" or (kind == "even" and len(word) % 2 == 0)


def table_check(lib, expected):
    """A check for one entry of the protocol table."""
    accept = lib.wellformed.Accept
    if expected == "not accept":
        return lambda r: not isinstance(r, accept)
    if expected == "counterexample":
        return lambda r: isinstance(r, lib.sessions.CounterexampleTrace)
    return lambda r: r == expected


# ---------------------------------------------------------------------------
# graph facts by direct traversal


def reach(root) -> list:
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.branches.values())
    return list(seen.values())


def class_count(oracles, root) -> int:
    """Number of bisimilarity classes among the nodes of ``root``."""
    reps = []
    for node in reach(root):
        if not any(oracles.oracle_bisimilar(node, rep) for rep in reps):
            reps.append(node)
    return len(reps)


def oracle_bounded(oracles, root) -> bool:
    """Every participant of every subterm waits boundedly long."""
    return all(oracles.oracle_depth(sub, p) != INF
               for sub in reach(root) for p in oracles.oracle_players(sub))


# ---------------------------------------------------------------------------
# sessions by the oracle stepper


def same_state(oracles, a, b) -> bool:
    """Two (network, queue) pairs agree up to bisimilarity."""
    (net_a, q_a), (net_b, q_b) = a, b
    return (q_a.key() == q_b.key()
            and net_a.players() == net_b.players()
            and all(oracles.oracle_bisimilar(net_a.get(p), net_b.get(p))
                    for p in net_a.players()))


def apply_step(oracles, state, delta, lockstep):
    """The state after the communications of ``delta``, each taken by
    the oracle stepper in turn; None when one of them is not enabled,
    or, for a lockstep round, when it is not one move per participant
    able to move."""
    net, queue = state
    if lockstep:
        movers = {c.play for c, _, _ in oracles.oracle_session_successors(net, queue)}
        if len(delta) != len(movers) or {c.play for c in delta} != movers:
            return None
    for comm in sorted(delta, key=str):
        for cand, nxt_net, nxt_queue in oracles.oracle_session_successors(net, queue):
            if cand == comm:
                net, queue = nxt_net, nxt_queue
                break
        else:
            return None
    return net, queue


def simulation_check(oracles, session, lockstep, max_steps, queue_len=None):
    """A simulation summary ``(deltas, last)`` replays from ``session``,
    stops short of ``max_steps`` only where nothing is enabled, and
    ends with ``queue_len`` messages queued when that is known."""

    def check(summary):
        deltas, last = summary
        state = (session.net, session.queue)
        for delta in deltas:
            state = apply_step(oracles, state, delta, lockstep)
            if state is None:
                return False
        if len(deltas) > max_steps or (
                len(deltas) < max_steps and oracles.oracle_session_successors(*state)):
            return False
        if queue_len is not None and len(last.queue) != queue_len:
            return False
        return same_state(oracles, state, (last.net, last.queue))

    return check


def _violates(mode, states, deltas) -> bool:
    inputs = [c for d in deltas for c in d if c.kind == "in"]
    if mode == "input-enabling":
        waiting = {name for net, _ in states
                   for name, proc in net.items() if proc.kind == "in"}
        return not waiting <= {c.play for c in inputs}
    busy = {chan for _, q in states for chan in q.channels()}
    return not busy <= {(c.sender, c.receiver) for c in inputs}


def counterexample_ok(oracles, session, trace, mode) -> bool:
    """The trace replays round by round and either ends stuck short of
    completion or closes a lasso whose cycle breaks the obligation."""
    states = [(session.net, session.queue)]
    for delta, after in trace:
        state = apply_step(oracles, states[-1], delta, lockstep=True)
        if state is None or not same_state(oracles, state, (after.net, after.queue)):
            return False
        states.append(state)
    last = states[-1]
    if not oracles.oracle_session_successors(*last):
        done = last[0].is_empty if mode == "input-enabling" else last[1].is_empty
        return not done
    for at, earlier in enumerate(states[:-1]):
        if same_state(oracles, earlier, last):
            return _violates(mode, states[at:-1], [d for d, _ in trace[at:]])
    return False


def liveness_check(lib, session, mode, live=False, expected=None):
    """Every counterexample must be genuine; ``live`` networks must not
    get one, and an ``expected`` table answer must hold."""
    trace_type = lib.sessions.CounterexampleTrace
    table = table_check(lib, expected) if expected else None

    def check(result):
        if isinstance(result, trace_type):
            if live:
                return False
            genuine = counterexample_ok(lib.oracles, session, result.trace,
                                        mode.value)
            return genuine and (table is None or table(result))
        if table is not None:
            return table(result)
        if live and isinstance(result, lib.sessions.Verified):
            return True
        return None

    return check
