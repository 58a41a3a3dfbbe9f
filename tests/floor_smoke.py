"""A smoke run of ``mpst`` that needs no pytest, for the oldest Python
that ``pyproject.toml`` declares, where pytest may be missing.

    PYTHONPATH=src python3.10 tests/floor_smoke.py

parses every ``protocols/*.mps``; simulates each network for 50 steps
and checks its liveness at horizon 8 in both modes; checks each global
with ``balanced_inductive``; and checks the public contract of the
simulation's result types on ``hospital.mps``.  It prints one line per
file and one for the contract, and exits 1 if the contract fails.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from mpst.sessions import (LivenessMode, Session, TraceStep, check_liveness,
                           lockstep, simulate)
from mpst.syntax import parse
from mpst.terms import Queue
from mpst.wellformed import balanced_inductive

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"


def main() -> int:
    print(sys.version.split()[0])
    for path in sorted(PROTOCOLS.glob("*.mps")):
        doc = parse(path.read_text())
        out = []
        for name, net in doc.networks.items():
            steps = len(list(simulate(Session(net, Queue()), max_steps=50)))
            verdicts = [type(check_liveness(Session(net, Queue()), 8, mode))
                        .__name__ for mode in LivenessMode]
            out.append(f"{name}: {steps} steps, {'/'.join(verdicts)}")
        for name, g in doc.globals_.items():
            verdict = balanced_inductive(g, Queue())
            out.append(f"{name}: {type(verdict).__name__}")
        print(path.name, "; ".join(out))
    net = parse((PROTOCOLS / "hospital.mps").read_text()).networks["N"]
    step = list(simulate(Session(net, Queue()), max_steps=12))[-1]
    twin = TraceStep(step.step, step.delta,
                     Session(step.session.net, step.session.queue))
    try:
        step.step = 0
        frozen = False
    except dataclasses.FrozenInstanceError:
        frozen = True
    checks = {
        "equal": twin == step and hash(twin) == hash(step),
        "repr": repr(twin) == repr(step),
        "replace": dataclasses.replace(step, step=13).step == 13,
        "frozen": frozen,
        "lockstep": lockstep(step.session) == lockstep(twin.session),
    }
    print("contract:", ", ".join(f"{k} {v}" for k, v in checks.items()))
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
