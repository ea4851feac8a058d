"""Independent dense-matrix oracles for the test suite.

Everything here is built with plain numpy kron products and explicit loops,
deliberately sharing no code with the package's sparse builders, so matrix
comparisons between the two are meaningful cross-checks.
"""

import numpy as np
import scipy.sparse as sp


def ladder(d):
    a = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        a[k - 1, k] = np.sqrt(k)
    return a


def dense_embed(op, site, n_sites, d):
    out = np.array([[1.0 + 0j]])
    for s in reversed(range(n_sites)):  # site 0 least significant
        out = np.kron(out, op if s == site else np.eye(d))
    return out


def dense_h_spin(n_sites, edges, fields):
    d = 2
    a = ladder(d)
    sp_, sm_ = a.conj().T, a
    sz_ = np.diag([-0.5, 0.5]).astype(complex)
    dim = d**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for j, k, coupling in edges:
        h -= coupling * (
            0.5 * dense_embed(sp_, j, n_sites, d) @ dense_embed(sm_, k, n_sites, d)
            + 0.5 * dense_embed(sm_, j, n_sites, d) @ dense_embed(sp_, k, n_sites, d)
            + dense_embed(sz_, j, n_sites, d) @ dense_embed(sz_, k, n_sites, d)
        )
    for j, field in enumerate(fields):
        h += field * dense_embed(sz_, j, n_sites, d)
    return h


def dense_h_spin_xyz(n_sites, edges, fields):
    """Same model assembled from x/y/z component products instead of ladders."""
    a = ladder(2)
    sx = 0.5 * (a + a.conj().T)
    sy = -0.5j * (a.conj().T - a)  # = (S+ - S-) / 2i with S+ = a^dag
    sz = np.diag([-0.5, 0.5]).astype(complex)
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for j, k, coupling in edges:
        for op in (sx, sy, sz):
            h -= coupling * dense_embed(op, j, n_sites, 2) @ dense_embed(op, k, n_sites, 2)
    for j, field in enumerate(fields):
        h += field * dense_embed(sz, j, n_sites, 2)
    return h


def dense_h_ebh(n_sites, d, edges, fields):
    a = ladder(d)
    ad = a.conj().T
    n = ad @ a
    dim = d**n_sites
    eye = np.eye(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for j, k, coupling in edges:
        aj, adj = dense_embed(a, j, n_sites, d), dense_embed(ad, j, n_sites, d)
        ak = dense_embed(a, k, n_sites, d)
        nj, nk = dense_embed(n, j, n_sites, d), dense_embed(n, k, n_sites, d)
        half = -(coupling / 2.0) * (adj @ ak - adj @ (nj + nk) @ ak)
        h += half + half.conj().T
        h -= coupling * (nj - 0.5 * eye) @ (nk - 0.5 * eye)
    for j, field in enumerate(fields):
        h += field * (dense_embed(n, j, n_sites, d) - 0.5 * eye)
    return h


def dense_h_dm(n_sites, d, edges, fields):
    a = ladder(d)
    ad = a.conj().T
    n = ad @ a
    sp_ = ad @ (np.eye(d) - n)
    sm_ = a
    sz_ = n - 0.5 * np.eye(d)
    dim = d**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for j, k, coupling in edges:
        h -= coupling * (
            0.5 * dense_embed(sp_, j, n_sites, d) @ dense_embed(sm_, k, n_sites, d)
            + 0.5 * dense_embed(sm_, j, n_sites, d) @ dense_embed(sp_, k, n_sites, d)
            + dense_embed(sz_, j, n_sites, d) @ dense_embed(sz_, k, n_sites, d)
        )
    for j, field in enumerate(fields):
        h += field * dense_embed(sz_, j, n_sites, d)
    return h


def dense_h_jja(n_sites, d, omega, delta_omega, t, delta, corr_t, corr_tp,
                delta_tilde, variant="simplified"):
    a = ladder(d)
    ad = a.conj().T
    n = ad @ a
    dim = d**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for s in range(n_sites):
        h += (omega[s] + delta_omega[s] - delta_tilde[s]) * dense_embed(n, s, n_sites, d)
        if variant == "full":
            h += (delta_omega[s] / 2.0) * dense_embed(ad @ ad @ a @ a, s, n_sites, d)
    for i in range(n_sites - 1):
        aj, adj = dense_embed(a, i, n_sites, d), dense_embed(ad, i, n_sites, d)
        ak, adk = dense_embed(a, i + 1, n_sites, d), dense_embed(ad, i + 1, n_sites, d)
        nj, nk = dense_embed(n, i, n_sites, d), dense_embed(n, i + 1, n_sites, d)
        h += t[i] * (adj @ ak + adk @ aj)
        h -= delta[i] * nj @ nk
        corr = corr_t[i] * (adj @ nj @ ak) + corr_tp[i] * (adj @ nk @ ak)
        h += corr + corr.conj().T
        if variant == "full":
            pair = -(delta[i] / 4.0) * (ak @ ak @ adj @ adj)
            h += pair + pair.conj().T
    return h


def dense_physical_mask(n_sites, d):
    idx = []
    for m in range(2**n_sites):
        bits = [(m >> j) & 1 for j in range(n_sites)]
        idx.append(sum(b * d**j for j, b in enumerate(bits)))
    return np.array(idx, dtype=np.int64)


def running_sum_assemble(n_sites, d, states, terms, drop, hermitian_tol):
    """The operator of a term list ``(coeff, ((site, local), ...))``, summed as
    a running sparse sum: one support at a time, in the order the supports
    first appear, each support's dense block being the sum of its terms'
    Kronecker products.  Columns are the sorted full-space ``states`` (None:
    all d**n_sites); rows outside them are left out, and the largest of their
    |values| above ``drop`` is returned as ``dropped``.  Returns (csr matrix,
    dropped, hermitian), with entries of |value| <= ``drop`` removed;
    hermitian when |M - M^H| is within ``hermitian_tol`` times the largest |entry|."""
    cols = np.arange(d**n_sites) if states is None else np.asarray(states)
    blocks = {}
    for coeff, factors in terms:
        per_site = {}
        for site, local in factors:
            local = np.asarray(local, dtype=complex)
            per_site[site] = per_site[site] @ local if site in per_site else local
        support = tuple(sorted(per_site))
        block = np.ones((1, 1), dtype=complex)
        for site in support:  # first site least significant
            block = np.kron(per_site[site], block)
        blocks[support] = coeff * block + blocks.get(support, 0.0)
    digits = cols[:, None] // d ** np.arange(n_sites) % d
    total = sp.csc_matrix((d**n_sites, len(cols)), dtype=complex)
    for support, block in blocks.items():
        offsets = np.array([sum(r // d**i % d * d**s for i, s in enumerate(support))
                            for r in range(len(block))], dtype=np.int64)
        c = sum((digits[:, s] * d**i for i, s in enumerate(support)), np.zeros(len(cols), dtype=np.int64))
        r, j = np.nonzero(block[:, c])
        targets = cols[j] - offsets[c[j]] + offsets[r]
        total = total + sp.csc_matrix((block[r, c[j]], (targets, j)), shape=total.shape)
    entries = total.tocoo()
    pos = np.minimum(np.searchsorted(cols, entries.row), len(cols) - 1)
    kept = cols[pos] == entries.row
    leaving = np.abs(entries.data[~kept])
    dropped = float(np.max(leaving[leaving > drop], initial=0.0))
    m = sp.csr_matrix((entries.data[kept], (pos[kept], entries.col[kept])), shape=(len(cols),) * 2)
    m.sum_duplicates()
    m.data[np.abs(m.data) <= drop] = 0.0
    m.eliminate_zeros()
    m.sort_indices()
    diff = m - m.conj().T
    scale = np.max(np.abs(m.data), initial=0.0)
    return m, dropped, bool(np.max(np.abs(diff.data), initial=0.0) <= hermitian_tol * scale)


def brute_force_expectation_series(h, psi0, op, times):
    """exp(-i 2 pi H t) by scipy.linalg.expm at every grid time, no reuse."""
    from scipy.linalg import expm

    vals = []
    for t in times:
        u = expm(-2j * np.pi * h * t)
        p = u @ psi0
        vals.append(float((p.conj() @ (op @ p)).real))
    return np.array(vals)
