"""Correctness checks on the outputs of the benchmark's workloads.

The checks are plain numpy and never call into twoslit.  The slit
projector, the detector block patterns and the Born table are written out
here from the construction itself (E_I is the identity on the first half
of H_I; in 4-block mode T = A1 + A2 and Y = A1 + A3; in 8-block mode
T = A1 + A2 + A3 + A5, Y = A1 + A2 + A4 + A6 and W = A1 + A3 + A4 + A7),
so a fault in the library's own definitions fails a check instead of
agreeing with itself.

Every check returns a list of problems; an empty list means it passed.
"""

import json
from itertools import combinations

import numpy as np

# Equality residuals: operator entries and state amplitudes are of order 1.
EQ_TOL = 1e-10
# A norm that must be nonzero (incompatibility, non-triviality) exceeds this.
NONZERO_TOL = 1e-6
# Solver survivors: filter_projectors admits a purified point that lies
# within 1e-8 of the affine solution set (in Hermitian-basis coordinates),
# and the system's linear map has norm at most sqrt(2) for a unit state.
SURVIVOR_TOL = 1e-7
# The stored fixture cores must be recovered to this accuracy.
RECOVERY_TOL = 1e-8

# (property, detector) pairs: the detector must track the property on psi.
PAIRS = (("E", "T"), ("G", "Y"), ("L", "W"))
CORE_RANK = {"E": None, "G": 3, "L": 5}
DETECTOR_BLOCKS = {
    4: {"T": (1, 2), "Y": (1, 3)},
    8: {"T": (1, 2, 3, 5), "Y": (1, 2, 4, 6), "W": (1, 3, 4, 7)},
}


def block_mask(partition, detector):
    """Diagonal of the H_II detector projector, 1 on its blocks."""
    blocks = DETECTOR_BLOCKS[len(partition)][detector]
    return np.concatenate([np.full(size, float(i + 1 in blocks))
                           for i, size in enumerate(partition)])


def slit_core(dim_i):
    """E_I: identity on the first half of H_I, zero on the second."""
    return np.diag(np.repeat([1.0, 0.0], dim_i // 2)).astype(complex)


def _max_abs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def check_factored(dim_i, partition, psi, cores):
    """Defining conditions evaluated on the factors.

    ``cores`` maps property names (E, G and possibly L) to their H_I
    matrices.  With rows = psi.reshape(dim_i, dim_ii), (P x 1) psi is
    P_I @ rows and (1 x D) psi is rows * mask, so tracking D psi = P psi
    costs O(dim) instead of a dense product.
    """
    problems = []
    dim_ii = sum(partition)
    if psi.shape != (dim_i * dim_ii,):
        return [f"psi has shape {psi.shape}, expected ({dim_i * dim_ii},)"]
    if abs(np.linalg.norm(psi) - 1.0) > EQ_TOL:
        problems.append(f"|psi| = {np.linalg.norm(psi):.15g}, expected 1")
    rows = psi.reshape(dim_i, dim_ii)
    for prop, det in PAIRS:
        if prop not in cores:
            continue
        core = cores[prop]
        if core.shape != (dim_i, dim_i):
            problems.append(f"{prop}_I has shape {core.shape}")
            continue
        herm = _max_abs(core - core.conj().T)
        idem = _max_abs(core @ core - core)
        if max(herm, idem) > EQ_TOL:
            problems.append(f"{prop}_I is not a projector (herm {herm:.2e}, idem {idem:.2e})")
        rank = CORE_RANK[prop]
        if rank is not None and abs(np.trace(core) - rank) > EQ_TOL:
            problems.append(f"tr {prop}_I = {complex(np.trace(core)):.15g}, expected {rank}")
        prop_psi = core @ rows
        track = float(np.linalg.norm(prop_psi - rows * block_mask(partition, det)))
        if track > EQ_TOL:
            problems.append(f"{det} psi != {prop} psi (residual {track:.2e})")
        trivial = min(float(np.linalg.norm(prop_psi)), float(np.linalg.norm(rows - prop_psi)))
        if trivial <= NONZERO_TOL:
            problems.append(f"{prop} psi is 0 or psi (distance {trivial:.2e})")
    for a, b in combinations([p for p, _ in PAIRS if p in cores], 2):
        comm = float(np.linalg.norm(cores[a] @ cores[b] - cores[b] @ cores[a]))
        if comm <= NONZERO_TOL:
            problems.append(f"[{a}_I, {b}_I] = 0: {a} and {b} are compatible")
    return problems


def check_structure(dim_i, partition, cores, dense):
    """Each dense operator equals the lift of its factor.

    Properties are P_I (x) 1 and detectors 1 (x) diag(mask); with these
    forms, [T, E] = [Y, G] = [W, L] = 0 and the pairwise commutation of
    the detectors hold by construction.
    """
    detectors = [det for prop, det in PAIRS if prop in cores]
    expected_names = set(cores) | set(detectors)
    if set(dense) != expected_names:
        return [f"operators {sorted(dense)}, expected {sorted(expected_names)}"]
    eye_i, eye_ii = np.eye(dim_i), np.eye(sum(partition))
    problems = []
    for name, op in dense.items():
        if name in cores:
            want = np.kron(cores[name], eye_ii)
        else:
            want = np.kron(eye_i, np.diag(block_mask(partition, name)))
        if op.shape != want.shape:
            problems.append(f"{name} has shape {op.shape}, expected {want.shape}")
            continue
        diff = _max_abs(op - want)
        if diff > EQ_TOL:
            problems.append(f"{name} is not its factor lifted (max diff {diff:.2e})")
    return problems


def check_dense(psi, dense):
    """The defining conditions on the dense operators, as written."""
    problems = []
    dim = psi.shape[0]
    if abs(np.linalg.norm(psi) - 1.0) > EQ_TOL:
        problems.append(f"|psi| = {np.linalg.norm(psi):.15g}, expected 1")
    for name, op in dense.items():
        if op.shape != (dim, dim):
            return problems + [f"{name} has shape {op.shape}, state has length {dim}"]
        herm = _max_abs(op - op.conj().T)
        idem = _max_abs(op @ op - op)
        if max(herm, idem) > EQ_TOL:
            problems.append(f"{name} is not a projector (herm {herm:.2e}, idem {idem:.2e})")

    def comm(a, b):
        return float(np.linalg.norm(dense[a] @ dense[b] - dense[b] @ dense[a]))

    pairs = [(p, d) for p, d in PAIRS if p in dense]
    for prop, det in pairs:
        c = comm(det, prop)
        if c > EQ_TOL:
            problems.append(f"[{det}, {prop}] = {c:.2e}, expected 0")
        track = float(np.linalg.norm(dense[det] @ psi - dense[prop] @ psi))
        if track > EQ_TOL:
            problems.append(f"{det} psi != {prop} psi (residual {track:.2e})")
    for (_, d1), (_, d2) in combinations(pairs, 2):
        c = comm(d1, d2)
        if c > EQ_TOL:
            problems.append(f"[{d1}, {d2}] = {c:.2e}, expected 0")
    for (p1, _), (p2, _) in combinations(pairs, 2):
        if comm(p1, p2) <= NONZERO_TOL:
            problems.append(f"[{p1}, {p2}] = 0: {p1} and {p2} are compatible")
    return problems


def _matrix(d):
    flat = np.array(d["data"], dtype=float).reshape(-1, 2)
    return flat.view(complex).reshape(int(d["rows"]), int(d["cols"]))


def read_bundle_file(path):
    """Arrays of a bundle file written by `twoslit generate3/4 --out`.

    Decoded with the standard json module and numpy alone, following the
    documented wire format: matrices {"rows", "cols", "data": [[re, im]...]}
    and vectors {"dim", "data"}.  Returns (arrays, embedded report).
    """
    with open(path) as fh:
        payload = json.load(fh)
    bundle = payload["bundle"]
    arrays = {name: _matrix(d) for name, d in bundle["operators"].items()}
    arrays.update({name: _matrix(d) for name, d in bundle["core"].items()})
    psi = np.array(bundle["psi"]["data"], dtype=float).reshape(-1, 2)
    arrays["psi"] = psi.view(complex).reshape(int(bundle["psi"]["dim"]))
    return arrays, payload["report"]


def check_roundtrip(exit_codes, decoded, expected, reports):
    """The CLI path kept every generated array bit for bit and passed."""
    problems = []
    if any(code != 0 for code in exit_codes):
        problems.append(f"exit codes {list(exit_codes)}, expected all 0")
    if set(decoded) != set(expected):
        problems.append(f"bundle file holds {sorted(decoded)}, expected {sorted(expected)}")
    for name, want in expected.items():
        got = decoded.get(name)
        if got is None:
            continue
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            problems.append(f"{name} differs from the generated array after the round trip")
    for label, report in reports.items():
        if report.get("passed") is not True or report.get("failing"):
            problems.append(f"{label} report did not pass: {report.get('failing')}")
    return problems


def check_survivors(dim_i, partition, psi, detector, survivors, reference=None):
    """Every survivor is a Hermitian idempotent M with (M x 1) psi = D psi.

    With ``reference`` (an independently stored core), one survivor must
    also equal it to RECOVERY_TOL.
    """
    if not survivors:
        return [f"no projector found for detector {detector}"]
    rows = psi.reshape(dim_i, sum(partition))
    target = rows * block_mask(partition, detector)
    problems = []
    for i, m in enumerate(survivors):
        m = np.asarray(m)
        if m.shape != (dim_i, dim_i):
            problems.append(f"survivor {i} has shape {m.shape}")
            continue
        herm = _max_abs(m - m.conj().T)
        idem = _max_abs(m @ m - m)
        track = float(np.linalg.norm(m @ rows - target))
        if max(herm, idem, track) > SURVIVOR_TOL:
            problems.append(f"survivor {i} for {detector}: herm {herm:.2e}, idem {idem:.2e}, "
                            f"(M x 1) psi - {detector} psi {track:.2e}")
    if reference is not None:
        dist = min((_max_abs(np.asarray(m) - reference) for m in survivors
                    if np.shape(m) == reference.shape), default=np.inf)
        if dist > RECOVERY_TOL:
            problems.append(f"stored core for {detector} not recovered (distance {dist:.2e})")
    return problems


def born_table(dim_i, partition, psi):
    """p[e, i] = ||(E^e x A_i) psi||^2; row 1 is the slit-1 half of H_I."""
    weights = np.abs(psi.reshape(dim_i, sum(partition))) ** 2
    edges = np.cumsum((0,) + tuple(partition))
    per_block = np.stack([weights[:, a:b].sum(axis=1) for a, b in zip(edges[:-1], edges[1:])],
                         axis=1)
    half = dim_i // 2
    return np.stack([per_block[half:].sum(axis=0), per_block[:half].sum(axis=0)])


def check_tallies(dim_i, partition, psi, samples, tallies):
    """Sampled counts: right total, none in a zero-probability cell, close
    to the Born table, and identical for every shard count."""
    table = born_table(dim_i, partition, psi)
    problems = []
    first = None
    for shards, counts in tallies.items():
        counts = np.asarray(counts)
        if counts.shape != table.shape:
            problems.append(f"{shards} shards: counts shape {counts.shape}, expected {table.shape}")
            continue
        if int(counts.sum()) != samples:
            problems.append(f"{shards} shards: counts sum to {int(counts.sum())}, not {samples}")
        if np.any(counts[table == 0] != 0):
            problems.append(f"{shards} shards: counts in a zero-probability cell")
        expected = samples * table
        slack = 8 * np.sqrt(expected * (1 - table)) + 8
        if np.any(np.abs(counts - expected) > slack):
            problems.append(f"{shards} shards: counts {counts.tolist()} far from the Born table")
        if first is None:
            first = (shards, counts)
        elif not np.array_equal(first[1], counts):
            problems.append(f"counts differ between {first[0]} and {shards} shards")
    return problems
