"""Whole-program flow facts derived from the verified stream.

These analyses feed the executors, not the verifier: nothing here can
accept or reject a binary, so the module lives with the VM rather than
in the consumer TCB.  Today that is the flag-liveness fixpoint the
translator consults at chain edges.
"""

from __future__ import annotations

from typing import List

from ..isa.instructions import FLAG_NEUTRAL_OPS, FLAG_SETTER_OPS, Op


def flag_liveness(code) -> frozenset:
    """Offsets whose incoming flag state is provably dead.

    Backward greatest-fixpoint dataflow over the decoded stream: the
    flags are *dead on entry* to an instruction when every execution
    path from it overwrites them (``CMP``/``TEST``) before anything can
    observe them.  Conditional jumps read the flags; any op outside
    :data:`~repro.isa.instructions.FLAG_NEUTRAL_OPS` may fault or
    escape the enclave, and a fault frame snapshots the flags — both
    count as observations.  Direct ``JMP`` transfers the question to
    its target; flag-neutral ops defer to their fall-through.

    The translator consults the result when deciding whether a
    chain predecessor may skip materializing lazily-tracked flags at a
    chain edge: an edge into a dead-on-entry leader can never leak a
    stale or missing flag state.  The set is computed once per binary
    on the verified stream (a :class:`repro.core.rdd.DisassembledCode`),
    so the translator's block-local analysis gets a whole-program veto
    for free.
    """
    stream = code.stream
    n = len(stream)

    # Node kinds: dead[i] is constant True (setters), constant False
    # (observers and fault-capable ops), or inherited from the single
    # successor (flag-neutral fall-through, direct JMP target).
    # preds[j] holds the nodes inheriting from j, so a node flips at
    # most once and the backward propagation is linear in edges.
    dead = [False] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        op = stream[i][1].op
        if op in FLAG_SETTER_OPS:
            dead[i] = True
        elif op in FLAG_NEUTRAL_OPS or op == Op.JMP:
            # Inherit from the single successor; a target outside the
            # decoded stream (the frontier) stays live.  Everything
            # else — COND_JUMPS and fault-capable ops — is a constant-
            # False observer.
            j = code.index_of.get(code.targets[i] if op == Op.JMP
                                  else code.end_of(i))
            if j is not None:
                dead[i] = True            # optimistic; fixpoint lowers
                preds[j].append(i)

    worklist = [i for i in range(n) if not dead[i]]
    while worklist:
        j = worklist.pop()
        for i in preds[j]:
            if dead[i]:
                dead[i] = False
                worklist.append(i)
    return frozenset(stream[i][0] for i in range(n) if dead[i])
