"""Workload inputs generated in code from a seed.

The seed only shuffles the line order of state and certificate texts and
draws which philosophers a certificate uses and the order of the batch;
no answer depends on it.  Nothing here imports the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference

# Default sizes, chosen so that one operation takes 0.1-0.6 s on a 2-core
# x86 machine with Python 3.11 and a run holds tens of operations.
SIZES = {
    "ring_enumerate": 10,  # philosophers in the ring
    "tree_enumerate": 5,  # enumeration depth
    "counter_run": 2000,  # steps per run
    "cert_check": 8,  # philosophers in the ring the certificates move
}

# Total moves of the certificates in one batch; the engine refuses more
# than 14, so the last two sit just past that cap.
CERT_TOTALS = (4, 6, 8, 10, 12, 14)
CERT_PAST_CAP = ((8, 7, "valid"), (8, 8, "adjacent"))

PHILOSOPHERS = """\
# Dining philosophers, two-fork-atomic: a philosopher picks up both
# forks in one move, so neighbours never eat together.
vocabulary:
  dynamic Mode/1, Fork/1
  static relation P/1
constants think, eat, up, down
pragma integers mod {n}
alias Me = Self
module Phil:
  if Mode(Me) = think and Fork(Me) = Fork(Me + 1) = down then
    Fork(Me) := up, Fork(Me + 1) := up, Mode(Me) := eat
  elseif Mode(Me) = eat then
    Fork(Me) := down, Fork(Me + 1) := down, Mode(Me) := think
  endif
"""

NO_NEIGHBOURS_EAT = "(forall x in P) not (Mode(x) = eat and Mode(x + 1) = eat)"

TREE = """\
# Grow a tree: pick any node and give it a fresh child.
vocabulary:
  relation Node/1
  dynamic Parent/1
program:
  choose p in Node
    import v
      Node(v) := true
      Parent(v) := p
    endimport
  endchoose
"""

COUNTER = """\
# One table grows by one fact per step.
vocabulary:
  dynamic c/0, F/1
pragma integers
program:
  c := c + 1, F(c) := c
"""


@dataclass
class Certificate:
    text: str
    moves: int
    segments: int  # initial segments of the move order
    valid: bool
    condition: str | None  # the failing run condition, by construction
    past_cap: bool


@dataclass
class Inputs:
    workload: str
    size: int
    program: str
    state: str
    assertion: str | None = None
    depth: int = 0
    steps: int = 0
    certificates: list[Certificate] | None = None


def ring_state(n: int, rng: random.Random) -> str:
    lines = []
    for i in range(n):
        lines += [f"Mod({i}) = Phil", f"Mode({i}) = think", f"Fork({i}) = down", f"P({i}) = true"]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _chain(prefix: str, length: int, agent: int) -> list[str]:
    lines = [f"move {prefix}{i} by {agent}" for i in range(1, length + 1)]
    lines += [f"order {prefix}{i} < {prefix}{i + 1}" for i in range(1, length)]
    return lines


def certificate(n: int, first: int, second: int, kind: str, rng: random.Random) -> Certificate:
    """Two move chains over a ring of n philosophers.

    ``valid``: the chains belong to non-neighbours and commute.
    ``adjacent``: neighbours share a fork, so the first moves of the
    chains disagree when fired in either order (condition 4).
    ``same_agent``: both chains belong to one philosopher, whose moves
    are then not linearly ordered (condition 2).
    """
    a = rng.randrange(n)
    offset = {"valid": 2 + rng.randrange(n - 3), "adjacent": 1, "same_agent": 0}[kind]
    b = (a + offset) % n
    lines = _chain("a", first, a) + _chain("b", second, b)
    rng.shuffle(lines)
    sigma = ring_state(n, rng).splitlines()
    lines += ["sigma:"] + [f"  {fact}" for fact in sigma] + ["endsigma"]
    moves = first + second
    return Certificate(
        text="\n".join(lines) + "\n",
        moves=moves,
        segments=(first + 1) * (second + 1),
        valid=kind == "valid",
        condition={"valid": None, "adjacent": "4", "same_agent": "2"}[kind],
        past_cap=moves > 14,
    )


def certificate_batch(n: int, rng: random.Random, totals=CERT_TOTALS, past_cap=CERT_PAST_CAP):
    """A fixed mix of shapes; the seed draws agents, line order and batch order."""
    shapes = [(t // 2, t - t // 2, kind) for t in totals for kind in ("valid", "adjacent", "same_agent")]
    shapes += list(past_cap)
    batch = [certificate(n, first, second, kind, rng) for first, second, kind in shapes]
    rng.shuffle(batch)
    return batch


def generate(workload: str, seed: int, size: int | None = None, **small) -> Inputs:
    """Inputs of one workload; ``small`` overrides the batch shapes in tests."""
    rng = random.Random(seed)
    n = SIZES[workload] if size is None else size
    if workload == "ring_enumerate":
        return Inputs(
            workload, n, PHILOSOPHERS.format(n=n), ring_state(n, rng),
            assertion=NO_NEIGHBOURS_EAT, depth=n // 2 + 1,
        )
    if workload == "tree_enumerate":
        return Inputs(workload, n, TREE, "Node(root) = true\n", depth=n)
    if workload == "counter_run":
        return Inputs(workload, n, COUNTER, "c = 0\n", steps=n)
    if workload == "cert_check":
        return Inputs(
            workload, n, PHILOSOPHERS.format(n=n), ring_state(n, rng),
            certificates=certificate_batch(n, rng, **small),
        )
    raise ValueError(f"unknown workload: {workload}")


def expected(inputs: Inputs):
    """Reachable states by depth for the enumerate workloads; None otherwise."""
    if inputs.workload == "ring_enumerate":
        return reference.ring_states_by_depth(inputs.size)
    if inputs.workload == "tree_enumerate":
        return reference.tree_states_by_depth(inputs.depth)
    return None
