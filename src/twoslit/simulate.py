"""Seeded Monte Carlo of one joint measurement of the commuting set.

The commuting observables are the which-slit projector E (x) 1 and the
block observable 1 (x) sum_i i * A_i; a single run samples i.i.d. joint
outcomes (slit bit e, block index i) from the exact Born table
p(e, i) = ||(E^e (x) A_i) psi||^2.

Only the counts are kept, and the counts of ``samples`` i.i.d. draws are
one Multinomial(samples, table) draw, made with O(cells) work whatever
the sample count by sequential conditional binomials (Davis, Comput.
Stat. Data Anal. 16, 205, 1993).

Reproducibility contract: the random stream is numpy's PCG64DXSM
generator seeded with the non-negative integer seed.  The cells are
visited in C order with the slit bit as the leading axis, and every cell
of probability 0 is skipped, so it is never drawn.  With ``left`` the
samples not yet placed and ``tail_j`` the sum of the positive cells from
j to the last, each positive cell but the last takes
``gen.binomial(left, min(1, p_j / tail_j))``, and the last positive cell
takes what is left.  ``shards`` is validated but never matters: the
tally and the work are the same for any shard count.  numpy may change
the ``Generator.binomial`` stream between releases (NEP 19), so tallies
for a given seed are pinned to one numpy release (the tests pin 2.4).
"""

from dataclasses import dataclass

import numpy as np

from .errors import StateShapeError, ZeroDivisorError
from .space import ProductSpace, as_int, as_state, block_weights, detector_flags

# The largest trial count Generator.binomial accepts (a C int64).
_MAX_SAMPLES = 2**63 - 1


@dataclass
class ExperimentSpec:
    psi: np.ndarray
    space: ProductSpace
    samples: int
    seed: int

    def __post_init__(self):
        self.psi = as_state(self.psi, self.space)
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-12:
            raise StateShapeError("state must be normalized to unit norm")
        self.samples = as_int(self.samples, "samples", lo=1, hi=_MAX_SAMPLES)
        self.seed = as_int(self.seed, "seed", lo=0)


def exact_joint(psi, sp: ProductSpace):
    """Born probabilities p[e, i] of slit bit e and H_II block i.

    Row e=1 is the slit-1 half of H_I (the support of the which-slit
    projector), row e=0 the complement; the table sums to 1 for a unit
    state.
    """
    per_block = block_weights(as_state(psi, sp), sp)
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


def _multinomial(probs, samples, gen):
    """Counts of ``samples`` i.i.d. draws from the cells of ``probs``, by
    conditional binomials over the positive cells in order."""
    counts = np.zeros(probs.shape[0], dtype=np.int64)
    cells = np.flatnonzero(probs > 0)
    p = probs[cells]
    # tail[j] sums the positive cells from j to the last, not 1 minus a running sum that drifts
    tail = np.cumsum(p[::-1])[::-1]
    left = samples
    for j, pj, tj in zip(cells[:-1], p[:-1], tail[:-1]):
        c = gen.binomial(left, min(1.0, pj / tj))
        counts[j] = c
        left -= c
    counts[cells[-1]] = left
    return counts


def run(spec: ExperimentSpec, shards=1) -> OutcomeTally:
    """Sample the joint outcomes; deterministic given (psi, samples, seed).

    ``shards`` must be an integer of at least 1 and changes neither the
    tally nor the work; cells with exact probability 0 are never drawn.
    """
    as_int(shards, "shards", lo=1)
    table = exact_joint(spec.psi, spec.space)
    gen = np.random.Generator(np.random.PCG64DXSM(spec.seed))
    counts = _multinomial(table.reshape(-1), spec.samples, gen).reshape(table.shape)
    empirical = counts / spec.samples
    stderr = np.sqrt(table * (1 - table) / spec.samples)
    return OutcomeTally(space=spec.space, samples=spec.samples, seed=spec.seed,
                        counts=counts, exact=table, empirical=empirical, stderr=stderr)
