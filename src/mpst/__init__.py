"""Multiparty session types with asynchronous, queue-based communication.

The package is organised around regular term graphs: global types,
process types and networks are cyclic graphs compared up to
bisimilarity.  On top of the graphs live a surface syntax
(:mod:`mpst.syntax`), the session transition system with a liveness
check (:mod:`mpst.sessions`), queue machines and their encoding
(:mod:`mpst.machines`) and the well-formedness analyses
(:mod:`mpst.wellformed`).
"""

from mpst.terms import (
    END,
    IN,
    OUT,
    Comm,
    GNode,
    Msg,
    Network,
    Queue,
    bisimilar,
    comms,
    gend,
    gin,
    gout,
    minimize,
    pin,
    players,
    pout,
    reachable_nodes,
    subterms,
)

__all__ = [
    "END",
    "IN",
    "OUT",
    "Comm",
    "GNode",
    "Msg",
    "Network",
    "Queue",
    "bisimilar",
    "comms",
    "gend",
    "gin",
    "gout",
    "minimize",
    "pin",
    "players",
    "pout",
    "reachable_nodes",
    "subterms",
]

__version__ = "0.1.0"
