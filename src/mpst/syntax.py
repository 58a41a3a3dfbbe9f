"""Surface syntax: parsing and printing of definition files.

A file is a sequence of definitions:

    proc P = s!nd; P1
    proc P1 = s?{ok; P, ko; s!pr; P}
    global G = p s!nd; G1
    network N { p |> P, s |> S }
    queue Q = [p->s:nd, p->s:pr]
    machine M { states q0; input a; queue_alphabet a $;
                bottom $; start q0; delta (q0, a) -> (q0, "a");
                delta (q0, $) -> (q0, "$"); }

Definitions may reference each other by name in any order; cycles
through such references tie the back edges of the term graphs.  A
cycle that never passes through a communication, like ``proc A = B``
with ``proc B = A``, is rejected.

Printing produces the same surface form back: nodes that are shared,
sit on a cycle, or are the root get a name, everything else is printed
inline.  Parsing the output yields bisimilar graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from mpst.machines import QueueMachine
from mpst.terms import (
    END,
    IN,
    OUT,
    GNode,
    Msg,
    Network,
    Queue,
    gend,
    reachable_nodes,
)

KEYWORDS = {"proc", "global", "network", "queue", "machine", "end"}


# ---------------------------------------------------------------------------
# errors


class SourceError(Exception):
    """A problem at a known position in the source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ParseError(SourceError):
    pass


class UnboundName(SourceError):
    pass


class DuplicateLabelInChoice(SourceError):
    pass


class EmptyChoice(SourceError):
    pass


class SelfCommunication(SourceError):
    pass


# ---------------------------------------------------------------------------
# lexer


class Token(NamedTuple):
    type: str
    value: str
    line: int
    col: int


_PUNCT2 = ("->", "|>")
_PUNCT1 = "={}(),;!?[]:"


def _lex(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("string", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch in "_$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text[i:i + 2] in _PUNCT2:
            tokens.append(Token("punct", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"stray character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser producing a small ast
#
# term ast nodes:
#   ("end",)
#   ("ref", name, line, col)
#   ("comm", kind, sender, receiver, ((label, ast), ...), line, col)
# sender and receiver fill the slots of the node; a proc term leaves the
# slot of its own participant None, as pout and pin do


@dataclass
class Document:
    """All definitions of one source file, resolved to graphs."""

    procs: dict = field(default_factory=dict)
    globals_: dict = field(default_factory=dict)
    networks: dict = field(default_factory=dict)
    queues: dict = field(default_factory=dict)
    machines: dict = field(default_factory=dict)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.type == "eof":
            raise ParseError("unexpected end of file", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value or tok.type not in ("punct", "ident"):
            raise ParseError(f"expected {value!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return tok

    def name(self, what="name") -> Token:
        tok = self.next()
        if tok.type != "ident" or tok.value in KEYWORDS:
            raise ParseError(f"expected a {what}, found {tok.value!r}",
                             tok.line, tok.col)
        return tok

    # ---- items

    def document(self):
        items = []
        while self.peek().type != "eof":
            tok = self.peek()
            if tok.value == "proc":
                items.append(self.procdef())
            elif tok.value == "global":
                items.append(self.globaldef())
            elif tok.value == "network":
                items.append(self.netdef())
            elif tok.value == "queue":
                items.append(self.queuedef())
            elif tok.value == "machine":
                items.append(self.machinedef())
            else:
                raise ParseError(f"expected a definition, found {tok.value!r}",
                                 tok.line, tok.col)
        return items

    def procdef(self):
        self.expect("proc")
        name = self.name()
        self.expect("=")
        return ("proc", name, self.term("process"))

    def globaldef(self):
        self.expect("global")
        name = self.name()
        self.expect("=")
        return ("global", name, self.term("global type"))

    def netdef(self):
        self.expect("network")
        name = self.name()
        self.expect("{")
        comps = [self.component()]
        while self.peek().value == ",":
            self.next()
            comps.append(self.component())
        self.expect("}")
        return ("network", name, comps)

    def component(self):
        part = self.name("participant")
        self.expect("|>")
        return (part, self.term("process"))

    def queuedef(self):
        self.expect("queue")
        name = self.name()
        self.expect("=")
        self.expect("[")
        msgs = []
        if self.peek().value != "]":
            msgs.append(self.message())
            while self.peek().value == ",":
                self.next()
                msgs.append(self.message())
        self.expect("]")
        return ("queue", name, msgs)

    def message(self):
        sender = self.name("participant")
        self.expect("->")
        receiver = self.name("participant")
        self.expect(":")
        label = self.name("label")
        if sender.value == receiver.value:
            raise SelfCommunication(
                f"message from {sender.value!r} to itself",
                sender.line, sender.col)
        return Msg(sender.value, label.value, receiver.value)

    # ---- terms

    def term(self, what):
        """A term of a process, or of a global type when ``what`` is
        "global type".  A process prefix ``q!`` or ``p?`` names the
        partner only, a global one ``p q!`` or ``p q?`` both
        participants."""
        tok = self.next()
        if tok.type != "ident" or tok.value in KEYWORDS - {"end"}:
            raise ParseError(f"expected a {what}, found {tok.value!r}",
                             tok.line, tok.col)
        if tok.value == "end":
            return ("end",)
        names = [tok.value]
        after = self.peek()
        if what != "global type":
            if after.value not in ("!", "?"):
                return ("ref", tok.value, tok.line, tok.col)
        elif after.type == "ident" and after.value not in KEYWORDS:
            names.append(self.next().value)
        else:
            return ("ref", tok.value, tok.line, tok.col)
        mark = self.next()
        if mark.value not in ("!", "?"):
            raise ParseError(
                f"expected '!' or '?', found {mark.value!r}",
                mark.line, mark.col)
        kind = OUT if mark.value == "!" else IN
        if len(names) == 1:
            # a process leaves out its own participant, the one that moves
            names.insert(0 if kind == OUT else 1, None)
        elif names[0] == names[1]:
            raise SelfCommunication(
                f"participant {tok.value!r} talking to itself",
                tok.line, tok.col)
        return ("comm", kind, *names, self.choice(what), tok.line, tok.col)

    def choice(self, what):
        if self.peek().value != "{":
            return (self.branch(what),)
        brace = self.next()
        if self.peek().value == "}":
            raise EmptyChoice("a choice needs at least one branch",
                              brace.line, brace.col)
        branches = [self.branch(what)]
        while self.peek().value == ",":
            self.next()
            branches.append(self.branch(what))
        self.expect("}")
        seen = set()
        for lab, _ in branches:
            if lab in seen:
                raise DuplicateLabelInChoice(
                    f"label {lab!r} appears twice in one choice",
                    brace.line, brace.col)
            seen.add(lab)
        return tuple(branches)

    def branch(self, what):
        label = self.name("label")
        self.expect(";")
        return (label.value, self.term(what))

    # ---- machines

    def machinedef(self):
        head = self.expect("machine")
        name = self.name()
        self.expect("{")
        states = input_ = gamma = None
        bottom = start = None
        delta = {}
        while self.peek().value != "}":
            word = self.name("section")
            if word.value == "states":
                states = self.symbols_until_semi()
            elif word.value == "input":
                input_ = self.symbols_until_semi(allow_empty=True)
            elif word.value == "queue_alphabet":
                gamma = self.symbols_until_semi()
            elif word.value == "bottom":
                bottom = self.next().value
                self.expect(";")
            elif word.value == "start":
                start = self.next().value
                self.expect(";")
            elif word.value == "delta":
                self.expect("(")
                state = self.next().value
                self.expect(",")
                sym = self.next().value
                self.expect(")")
                self.expect("->")
                self.expect("(")
                target = self.next().value
                self.expect(",")
                out = self.next()
                if out.type != "string":
                    raise ParseError("expected a quoted word",
                                     out.line, out.col)
                self.expect(")")
                self.expect(";")
                if (state, sym) in delta:
                    raise ParseError(
                        f"duplicate delta row ({state}, {sym})",
                        word.line, word.col)
                delta[(state, sym)] = (target, tuple(out.value.split()))
            else:
                raise ParseError(f"unknown machine section {word.value!r}",
                                 word.line, word.col)
        self.expect("}")
        for part, value in (("states", states), ("queue_alphabet", gamma),
                            ("bottom", bottom), ("start", start)):
            if value is None:
                raise ParseError(f"machine without {part}",
                                 head.line, head.col)
        try:
            machine = QueueMachine(states, input_ or (), gamma, bottom,
                                   start, delta)
        except ValueError as err:
            raise ParseError(str(err), head.line, head.col) from None
        return ("machine", name, machine)

    def symbols_until_semi(self, allow_empty=False):
        syms = []
        while self.peek().value != ";":
            tok = self.next()
            if tok.type != "ident":
                raise ParseError(f"expected a symbol, found {tok.value!r}",
                                 tok.line, tok.col)
            syms.append(tok.value)
        self.expect(";")
        if not syms and not allow_empty:
            raise ParseError("empty symbol list", self.peek().line,
                             self.peek().col)
        return tuple(syms)


# ---------------------------------------------------------------------------
# name resolution


class _Resolver:
    """Turns term asts into graphs, wiring named references.

    Names resolve in two phases: first every definition is pinned to a
    node, following alias chains like ``proc A = B`` but not entering
    any choice, so an unguarded cycle is a chain of pure aliases;
    then the branch maps are filled, at which point every name is
    already pinned and back references just wire edges.
    """

    def __init__(self, defs: dict):
        self.defs = defs
        self.built = {}
        self.visiting = []

    def resolve_all(self):
        for name in self.defs:
            self.node_for(name, 0, 0)
        for name, ast in self.defs.items():
            if ast[0] == "comm":
                self.fill(self.built[name], ast)

    def node_for(self, name, line, col):
        if name in self.built:
            return self.built[name]
        if name not in self.defs:
            raise UnboundName(f"undefined name {name!r}", line, col)
        if name in self.visiting:
            chain = " = ".join(self.visiting + [name])
            raise ParseError(f"unguarded cycle {chain}", line, col)
        ast = self.defs[name]
        if ast[0] == "comm":
            self.built[name] = GNode(*ast[1:4])
        elif ast[0] == "end":
            self.built[name] = gend()
        else:
            self.visiting.append(name)
            self.built[name] = self.node_for(ast[1], ast[2], ast[3])
            self.visiting.pop()
        return self.built[name]

    def fill(self, shell, ast):
        for label, sub in ast[4]:
            shell.branches[label] = self.build(sub)

    def build(self, ast):
        if ast[0] == "end":
            return gend()
        if ast[0] == "ref":
            return self.node_for(ast[1], ast[2], ast[3])
        shell = GNode(*ast[1:4])
        self.fill(shell, ast)
        return shell


def parse(text: str) -> Document:
    """Parse a definition file into resolved graphs."""
    items = _Parser(text).document()
    doc = Document()
    proc_defs = {}
    gty_defs = {}
    placed = {}
    for item in items:
        tag, name = item[0], item[1]
        if name.value in placed.get(tag, set()):
            raise ParseError(f"duplicate {tag} definition {name.value!r}",
                             name.line, name.col)
        placed.setdefault(tag, set()).add(name.value)
        if tag == "proc":
            proc_defs[name.value] = item[2]
        elif tag == "global":
            gty_defs[name.value] = item[2]
    procs = _Resolver(proc_defs)
    gtys = _Resolver(gty_defs)
    procs.resolve_all()
    gtys.resolve_all()
    doc.procs.update(procs.built)
    doc.globals_.update(gtys.built)
    for item in items:
        tag, name = item[0], item[1]
        if tag == "network":
            comps = {}
            for part, ast in item[2]:
                if part.value in comps:
                    raise ParseError(
                        f"participant {part.value!r} listed twice",
                        part.line, part.col)
                node = procs.build(ast)
                for sub in reachable_nodes(node):
                    if part.value in (sub.sender, sub.receiver):
                        raise SelfCommunication(
                            f"{part.value!r} communicates with itself",
                            part.line, part.col)
                comps[part.value] = node
            doc.networks[name.value] = Network(comps)
        elif tag == "queue":
            doc.queues[name.value] = Queue.from_msgs(item[2])
        elif tag == "machine":
            doc.machines[name.value] = item[2]
    return doc


# ---------------------------------------------------------------------------
# printing


def _needs_name(root):
    """Nodes that get a definition of their own: the root, shared
    nodes, and targets of back edges; returned in discovery order."""
    indeg = {}
    for node in reachable_nodes(root):
        for child in node.branches.values():
            indeg[id(child)] = indeg.get(id(child), 0) + 1
    marked = {id(root)}
    order = [id(root)]
    state = {id(root): "open"}
    stack = [[root, [root.branches[l] for l in sorted(root.branches)], 0]]
    while stack:
        node, kids, i = stack[-1]
        if i == len(kids):
            state[id(node)] = "done"
            stack.pop()
            continue
        stack[-1][2] += 1
        child = kids[i]
        status = state.get(id(child))
        if status == "open":
            # back edge; its target starts a cycle
            if id(child) not in marked:
                marked.add(id(child))
                order.append(id(child))
        elif status is None:
            if (child.kind != END and indeg.get(id(child), 0) >= 2
                    and id(child) not in marked):
                # ends print inline even when shared
                marked.add(id(child))
                order.append(id(child))
            state[id(child)] = "open"
            stack.append([child,
                          [child.branches[l] for l in sorted(child.branches)],
                          0])
    return marked, order


def _aux_names(root, base):
    marked, order = _needs_name(root)
    names = {}
    for i, nid in enumerate(order):
        names[nid] = base if i == 0 else f"{base}_{i}"
    return names


def _fmt_term(node, names, at_def):
    if node.kind == END:
        return "end"
    if not at_def and id(node) in names:
        return names[id(node)]
    parts = []
    for lab in sorted(node.branches):
        sub = _fmt_term(node.branches[lab], names, False)
        parts.append(f"{lab}; {sub}")
    # the participants the node names: both in a global type, the
    # partner alone in a process
    who = " ".join(filter(None, (node.sender, node.receiver)))
    head = f"{who}{'!' if node.kind == OUT else '?'}"
    if len(parts) == 1:
        return f"{head}{parts[0]}"
    return f"{head}{{{', '.join(parts)}}}"


def _fmt_defs(root, base, keyword) -> str:
    names = _aux_names(root, base)
    by_id = {id(n): n for n in reachable_nodes(root)}
    lines = []
    for nid, name in names.items():
        body = _fmt_term(by_id[nid], names, True)
        lines.append(f"{keyword} {name} = {body}")
    return "\n".join(lines)


def format_gtype(g: GNode, name: str = "G") -> str:
    return _fmt_defs(g, name, "global")


def format_proc(p: GNode, name: str = "P") -> str:
    return _fmt_defs(p, name, "proc")


def format_network(net: Network, name: str = "N") -> str:
    """Definitions for every component followed by the network line."""
    lines = []
    comps = []
    for part, proc in net.items():
        pname = f"{name}_{part}"
        lines.append(format_proc(proc, pname))
        comps.append(f"{part} |> {pname}")
    if not comps:
        # grammar wants a component, and ended ones are dropped anyway
        comps.append("p |> end")
    lines.append(f"network {name} {{ {', '.join(comps)} }}")
    return "\n".join(lines)


def format_queue(queue: Queue, name: str = "Q") -> str:
    inner = ", ".join(str(m) for m in queue.messages())
    return f"queue {name} = [{inner}]"


def format_machine(machine: QueueMachine, name: str = "M") -> str:
    lines = [f"machine {name} {{"]
    lines.append("  states " + " ".join(machine.states) + ";")
    lines.append("  input " + " ".join(machine.input_alphabet) + ";")
    lines.append("  queue_alphabet " + " ".join(machine.queue_alphabet) + ";")
    lines.append(f"  bottom {machine.bottom};")
    lines.append(f"  start {machine.start};")
    for state in machine.states:
        for sym in machine.queue_alphabet:
            target, written = machine.delta[(state, sym)]
            word = " ".join(written)
            lines.append(f'  delta ({state}, {sym}) -> ({target}, "{word}");')
    lines.append("}")
    return "\n".join(lines)
