"""Seeded Monte Carlo of one joint measurement of the commuting set.

The commuting observables are the which-slit projector E (x) 1 and the
block observable 1 (x) sum_i i * A_i; a single run samples i.i.d. joint
outcomes (slit bit e, block index i) from the exact Born table
p(e, i) = ||(E^e (x) A_i) psi||^2.

Reproducibility contract: the random stream is numpy's counter-based
Philox generator keyed by the 64-bit seed; samples are drawn by inverse
CDF (searchsorted, right side) over the exact table flattened in C order
with the slit bit as the leading axis.  Sharded runs consume the same
stream split at sample indices that are multiples of 4 (one Philox
counter tick yields four doubles), so the merged tally is bit-identical
for any shard count.  Each shard draws its uniforms in fixed-size chunks
that continue one stream, so memory stays bounded as samples grow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StateShapeError, ZeroDivisorError
from .linalg import as_cvector
from .space import ProductSpace, block_weights, detector_flags

# Uniforms drawn per call while sampling: bounds memory for any sample count.
_CHUNK = 1 << 16


@dataclass
class ExperimentSpec:
    psi: np.ndarray
    space: ProductSpace
    samples: int
    seed: int

    def __post_init__(self):
        self.psi = as_cvector(self.psi)
        if self.psi.shape[0] != self.space.dim:
            raise DimensionError(
                f"state length {self.psi.shape[0]} does not match space dim {self.space.dim}")
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-12:
            raise StateShapeError("state must be normalized to unit norm")
        self.samples = int(self.samples)
        if self.samples <= 0:
            raise DimensionError("samples must be positive")
        self.seed = int(self.seed)


def exact_joint(psi, sp: ProductSpace):
    """Born probabilities p[e, i] of slit bit e and H_II block i.

    Row e=1 is the slit-1 half of H_I (the support of the which-slit
    projector), row e=0 the complement; the table sums to 1 for a unit
    state.
    """
    psi = as_cvector(psi)
    if psi.shape[0] != sp.dim:
        raise DimensionError(f"state length {psi.shape[0]} does not match space dim {sp.dim}")
    per_block = block_weights(psi, sp)
    table = np.empty((2, len(sp.partition)))
    table[0] = per_block[sp.rank_e:].sum(axis=0)
    table[1] = per_block[: sp.rank_e].sum(axis=0)
    return table


@dataclass
class OutcomeTally:
    space: ProductSpace
    samples: int
    seed: int
    counts: np.ndarray     # int, shape (2, n_blocks)
    exact: np.ndarray      # Born table, same shape
    empirical: np.ndarray  # counts / samples
    stderr: np.ndarray     # binomial standard error per cell

    def p_detector(self, name):
        """Empirical probability that detector ``name`` fires (outcome 1)."""
        flags = np.array(detector_flags(self.space, name), dtype=bool)
        return float(self.counts[:, flags].sum() / self.samples)

    def p_slit_given_detector(self, name):
        """Empirical p(e = 1 | detector fired)."""
        flags = np.array(detector_flags(self.space, name), dtype=bool)
        fired = self.counts[:, flags].sum()
        if fired == 0:
            raise ZeroDivisorError(f"detector {name} never fired")
        return float(self.counts[1, flags].sum() / fired)

    def to_dict(self):
        return {
            "samples": self.samples,
            "seed": self.seed,
            "counts": self.counts.tolist(),
            "exact": self.exact.tolist(),
            "empirical": self.empirical.tolist(),
            "stderr": self.stderr.tolist(),
        }


def _cumulative(table):
    probs = table.reshape(-1)
    probs = probs / probs.sum()
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return cum


def run(spec: ExperimentSpec, shards=1) -> OutcomeTally:
    """Sample the joint outcomes; deterministic given (psi, samples, seed).

    ``shards`` only affects how the stream is consumed, never the merged
    tally; cells with exact probability 0 can never be drawn.
    """
    table = exact_joint(spec.psi, spec.space)
    cum = _cumulative(table)
    ncells = cum.shape[0]
    shards = max(1, int(shards))
    # per_shard is a multiple of 4 so every shard starts on a Philox tick
    per_shard = 4 * ((spec.samples + 4 * shards - 1) // (4 * shards))
    counts = np.zeros(ncells, dtype=np.int64)
    for s in range(shards):
        start = s * per_shard
        todo = min(per_shard, spec.samples - start)
        if todo <= 0:
            break
        bg = np.random.Philox(spec.seed)
        bg.advance(start // 4)
        gen = np.random.Generator(bg)
        # each call continues the stream, so chunking never changes the draws
        for done in range(0, todo, _CHUNK):
            u = gen.random(min(_CHUNK, todo - done))
            counts += np.bincount(np.searchsorted(cum, u, side="right"), minlength=ncells)
    counts = counts.reshape(table.shape)
    empirical = counts / spec.samples
    stderr = np.sqrt(table * (1 - table) / spec.samples)
    return OutcomeTally(space=spec.space, samples=spec.samples, seed=spec.seed,
                        counts=counts, exact=table, empirical=empirical, stderr=stderr)
