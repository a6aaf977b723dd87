"""Two-layer network construction: periodic square lattice + random regular graph.

Both layers are regular, so adjacency is stored as a rectangular (n, t) array
of neighbor ids. Rows may contain duplicates: on a side-2 lattice the periodic
wrap maps up and down, and left and right, onto the same cell, and the duplicate
entries are kept so every node always has exactly 4 lattice neighbor slots (the
density denominator stays fixed). From side 3 up the four slots are distinct.

Every realization on one side steps on the same lattice, so `build_lattice` is
cached and hands out one read-only neighbor array per side; only the RRG is
built per realization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GraphGenerationError

RRG_RESTART_BUDGET = 1000

# Neighbor ids are int32, so a layer holds at most this many nodes (a lattice
# side of at most 46340).
MAX_NODES = 2**31 - 1


@dataclass(frozen=True, eq=False)
class MultiplexGraph:
    """Two layers over one shared node set. Contagion A reads layer_a, B reads layer_b.

    A layer is an (n, t) int32 neighbor array in Fortran order (the engine reads
    one column at a time): row i lists node i's t neighbor slots in a stable
    order, and t = shape[1] is the denominator of neighborhood densities. In
    single-layer mode both fields reference the same array.
    """

    layer_a: np.ndarray
    layer_b: np.ndarray

    def __post_init__(self):
        if self.layer_a.shape[0] != self.layer_b.shape[0]:
            raise ConfigurationError("layers must share one node set")

    @property
    def n(self) -> int:
        return self.layer_a.shape[0]


@functools.lru_cache(maxsize=64)
def build_lattice(side: int) -> np.ndarray:
    """Periodic square lattice on side^2 nodes; node (r, c) has index r*side + c.

    Neighbors are ordered up, down, left, right with toroidal wrap. Built once
    per side; every caller shares the one read-only array.
    """
    if side < 2:
        raise ConfigurationError(f"lattice side must be >= 2, got {side}")
    n = side * side
    if n > MAX_NODES:
        raise ConfigurationError(f"lattice side {side} gives {n} nodes, more than {MAX_NODES}")
    idx = np.arange(n)
    r, c = idx // side, idx % side
    up = ((r - 1) % side) * side + c
    down = ((r + 1) % side) * side + c
    left = r * side + (c - 1) % side
    right = r * side + (c + 1) % side
    # Fortran order: the engine reads one neighbor column at a time.
    nbrs = np.asfortranarray(np.stack([up, down, left, right], axis=1).astype(np.int32))
    nbrs.flags.writeable = False  # shared by every caller through the cache
    return nbrs


def build_rrg(n: int, degree: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a simple d-regular graph by stub pairing with full restart.

    Every restart re-shuffles all n*degree stubs and rejects the whole pairing
    on any self-loop or duplicate edge, so accepted graphs are uniform over
    simple d-regular pairings. At degree 4 roughly 1 in 42 attempts succeeds.
    """
    if n > MAX_NODES:
        raise ConfigurationError(f"n must be <= {MAX_NODES}, got {n}")
    if degree < 1 or degree >= n:
        raise ConfigurationError(f"need 1 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise ConfigurationError(f"n*degree must be even, got n={n}, degree={degree}")
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    for _ in range(RRG_RESTART_BUDGET):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if np.any(u == v):
            continue
        key = np.minimum(u, v) * n + np.maximum(u, v)
        key.sort()
        if np.any(key[1:] == key[:-1]):
            continue
        # Stable sort by source gives each node a deterministic neighbor order;
        # the narrowest type that holds every id sorts fastest, in the same order.
        src = np.concatenate([u, v]).astype(np.min_scalar_type(n - 1))
        dst = np.concatenate([v, u])
        order = np.argsort(src, kind="stable")
        return np.asfortranarray(dst[order].reshape(n, degree).astype(np.int32))
    raise GraphGenerationError(
        f"stub pairing failed {RRG_RESTART_BUDGET} times (n={n}, degree={degree})"
    )


def edgelist(nbrs: np.ndarray, label: str, kind: str) -> str:
    """One layer's neighbor array as `u v` lines, u <= v, one per neighbor slot
    of u, after a `# layer=<label> kind=<kind> n=<n>` header line. A simple
    layer lists each undirected edge once; a side-2 lattice's duplicate slots
    list each of its edges twice."""
    lines = (f"{i} {j}\n" for i, row in enumerate(nbrs) for j in row if i <= j)
    return f"# layer={label} kind={kind} n={nbrs.shape[0]}\n" + "".join(lines)
