"""Reference answers computed from combinatorics, never from the engine.

Each workload's expected result is a closed form or a construction:

* ring of N two-fork-atomic philosophers: a reachable state is a set of
  eating philosophers with no two neighbours, so there are Lucas L_N
  states, and the states at depth k are the k-sets without neighbours;
* tree growth: the states at depth d are the rooted unlabelled trees with
  d + 1 nodes (OEIS A000081), because only the root is named;
* counter run: after n steps ``c = n`` and ``F(i) = i`` for every i < n;
* certificates: the verdict is fixed by how the certificate was built
  (see ``workloads.certificate_batch``).
"""

from __future__ import annotations

from math import comb


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ring_states_by_depth(n: int) -> dict[int, int]:
    """Independent k-sets of the n-cycle, for every k that has one."""
    out = {0: 1}
    for k in range(1, n // 2 + 1):
        out[k] = n * comb(n - k, k) // (n - k)
    return out


def rooted_trees(count: int) -> list[int]:
    """The first ``count`` terms of A000081, starting at one node."""
    a = [0, 1]  # a[n] = rooted trees with n nodes
    for n in range(1, count):
        total = 0
        for k in range(1, n + 1):
            s = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            total += s * a[n - k + 1]
        a.append(total // n)
    return a[1 : count + 1]


def tree_states_by_depth(depth: int) -> dict[int, int]:
    return dict(enumerate(rooted_trees(depth + 1)))


def counter_final_facts(n: int) -> dict[str, str]:
    """Facts of the state after n steps of ``c := c + 1, F(c) := c``."""
    facts = {"c": str(n)}
    for i in range(n):
        facts[f"F({i})"] = str(i)
    return facts


def counter_step_updates(i: int) -> dict[str, str]:
    """Updates fired by step i (1-based), as ``location -> value``."""
    return {"c": f"i:{i}", f"F(i:{i - 1})": f"i:{i - 1}"}
