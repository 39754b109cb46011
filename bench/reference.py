"""Recompute certify_reference.json: QMC values of the certify graphs by eigsh.

    python3 bench/reference.py

The Hamiltonian sum_e w_e (I - XX - YY - ZZ)/4 is built here as a scipy
sparse matrix, independently of qmcstream: on a basis state whose endpoint
bits differ, an edge of weight w adds w/2 on the diagonal and -w/2 towards
the state with the two bits swapped; on equal bits it adds nothing. scipy is
used only here, as a cross-check, and the benchmark runs without it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import inputs

OUT = Path(__file__).resolve().parent / "certify_reference.json"


def hamiltonian(g: inputs.Graph) -> sp.csr_matrix:
    qubits = sorted({x for u, v, _ in g.edges for x in (u, v)})
    bit = {u: i for i, u in enumerate(qubits)}
    dim = 1 << len(qubits)
    idx = np.arange(dim)
    rows, cols, vals = [], [], []
    for u, v, w in g.edges:
        a, b = bit[u], bit[v]
        differ = idx[((idx >> a) ^ (idx >> b)) & 1 == 1]
        rows += [differ, differ]
        cols += [differ, differ ^ ((1 << a) | (1 << b))]
        vals += [np.full(len(differ), float(w) / 2), np.full(len(differ), -float(w) / 2)]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


def top_eigenvalue(h: sp.csr_matrix) -> float:
    v0 = np.random.default_rng(0).normal(size=h.shape[0])
    return float(eigsh(h, k=1, which="LA", v0=v0, tol=1e-12)[0][0])


def main() -> None:
    graphs = {
        g.name: {"digest": g.digest(), "qmc": top_eigenvalue(hamiltonian(g))}
        for g in inputs.certify_graphs()
        if "qmc" in g.ops
    }
    OUT.write_text(json.dumps({"command": "python3 bench/reference.py", "graphs": graphs}, indent=1) + "\n")
    print(f"wrote {len(graphs)} references to {OUT.name}")


if __name__ == "__main__":
    main()
