"""Independent reference counter for the benchmark's generated circuits.

It never imports ``ddnnf``: it counts directly on the generator's own
circuit form, before any smoothing.  That form is d4-like: every node is an
And ("a"), an Or ("o") or the constant True ("t"), and every edge carries a
child plus a tuple of signed literals conjoined with it.  The circuit must be
decomposable and deterministic; it need not be smooth.  A variable an Or
child lacks but its Or node has is free in that child, so the child's count
is multiplied by 2 for each such variable the query leaves unassigned.  The
root is multiplied in the same way for declared variables it never mentions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Circuit:
    """A generated circuit; node indices are topological (children first)."""

    num_variables: int
    kinds: list[str]
    edges: list[list[tuple[int, tuple[int, ...]]]]
    root: int


def _bit(v: int) -> int:
    return 1 << (v - 1)


class Reference:
    """Answers counting queries on a :class:`Circuit` by a forward pass.

    Only nodes whose variables meet the query's variables are evaluated;
    every other node keeps its unconditioned count, which is computed once.
    ``masks[i]`` is node i's variable set as a bitmask and ``base[i]`` its
    unconditioned count; the generator's model sampler reads both.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n = len(circuit.kinds)
        masks = [0] * n
        # per edge: (child, positive-literal mask, negative-literal mask,
        # variables of the Or node that the edge lacks; 0 under And nodes)
        self.edges: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        for i in range(n):
            edge_masks = []
            for child, lits in circuit.edges[i]:
                pos = neg = 0
                for lit in lits:
                    if lit > 0:
                        pos |= _bit(lit)
                    else:
                        neg |= _bit(-lit)
                edge_masks.append((child, pos, neg, masks[child] | pos | neg))
            mask = 0
            for *_, m in edge_masks:
                mask |= m
            masks[i] = mask
            is_or = circuit.kinds[i] == "o"
            self.edges[i] = [
                (child, pos, neg, (mask & ~m) if is_or else 0)
                for child, pos, neg, m in edge_masks
            ]
        self.masks = masks
        self._all = (1 << circuit.num_variables) - 1
        self.base: list[int] = []
        for i in range(n):
            self.base.append(self._value(i, self.base.__getitem__, 0, 0, 0))

    def _value(self, i, lookup, pos_assigned, neg_assigned, assigned) -> int:
        """Count of node ``i``; ``lookup`` gives the children's counts."""
        kind = self.circuit.kinds[i]
        if kind == "t":
            return 1
        value = 0 if kind == "o" else 1
        for child, pos, neg, missing in self.edges[i]:
            if pos & neg_assigned or neg & pos_assigned:
                term = 0
            else:
                term = lookup(child)
            if kind == "o":
                value += term << (missing & ~assigned).bit_count()
            else:
                value *= term
                if not value:
                    break
        return value

    def count(self, literals=()) -> int:
        """Models that contain every literal in ``literals`` (signed ints)."""
        pos = neg = 0
        for lit in literals:
            if lit > 0:
                pos |= _bit(lit)
            else:
                neg |= _bit(-lit)
        if pos & neg:
            return 0
        assigned = pos | neg
        root = self.circuit.root
        masks = self.masks
        base = self.base
        values: dict[int, int] = {}

        def lookup(c: int) -> int:
            v = values.get(c)
            return base[c] if v is None else v

        for i in range(root + 1):
            if masks[i] & assigned:
                values[i] = self._value(i, lookup, pos, neg, assigned)
        free = self._all & ~masks[root] & ~assigned
        return lookup(root) << free.bit_count()
