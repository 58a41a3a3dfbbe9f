"""Parametric inputs that each isolate one known scaling defect.

Texts are plain strings; graph builders take the ``mpst.terms`` module
they should build with, so the benchmark can re-import the package
between set-ups without mixing classes from two imports.

- ``ring(n)``: a cycle of n ``p q!`` outputs, all labelled ``a`` but
  the last, which is labelled ``b``; every node is its own
  bisimilarity class, so partition refinement needs n rounds.
- ``chain(n)``: n ``p q!l`` / ``p q?l`` pairs ending in ``end``; deep
  enough that recursive walks run out of stack.
- ``diamonds(n)``: n diamonds, each an output ``p q!{x, y}`` whose
  branches read their own label, ``p q?x`` and ``p q?y``, and meet at
  the next diamond; the last loops back to the root.  The number of
  paths doubles with each diamond.
- ``pairs(k)``: k independent sender/receiver pairs, each looping on a
  choice of ``x`` or ``y``.
"""

from __future__ import annotations


def ring_text(n: int, name: str = "G", unroll: int = 1) -> str:
    """``ring(n)`` with one definition per node; ``unroll`` > 1 spells
    the same cycle out that many times, a bisimilar second spelling."""
    size = n * unroll
    names = [name] + [f"{name}_{i}" for i in range(1, size)]
    lines = []
    for i in range(size):
        label = "b" if i % n == n - 1 else "a"
        lines.append(f"global {names[i]} = p q!{label}; {names[(i + 1) % size]}")
    return "\n".join(lines) + "\n"


def build_ring(terms, n: int):
    nodes = [terms.gout("p", "q") for _ in range(n)]
    for i, node in enumerate(nodes):
        node.branches["b" if i == n - 1 else "a"] = nodes[(i + 1) % n]
    return nodes[0]


def chain_text(n: int) -> str:
    """``chain(n)`` as one definition, nested as deep as the chain."""
    return "global G = " + "p q!l; p q?l; " * n + "end\n"


def build_chain(terms, n: int):
    node = terms.gend()
    for _ in range(n):
        node = terms.gout("p", "q", {"l": terms.gin("p", "q", {"l": node})})
    return node


def build_diamonds(terms, n: int):
    outs = [terms.gout("p", "q") for _ in range(n)]
    for i, out in enumerate(outs):
        nxt = outs[(i + 1) % n]
        for label in ("x", "y"):
            out.branches[label] = terms.gin("p", "q", {label: nxt})
    return outs[0]


def pair_names(k: int):
    return [(f"p{i}", f"q{i}") for i in range(1, k + 1)]


def build_pairs(terms, k: int):
    """The network of ``pairs(k)``."""
    procs = {}
    for sender, receiver in pair_names(k):
        out = terms.pout(receiver)
        out.branches["x"] = out
        out.branches["y"] = out
        inp = terms.pin(sender)
        inp.branches["x"] = inp
        inp.branches["y"] = inp
        procs[sender] = out
        procs[receiver] = inp
    return terms.Network(procs)
