"""Naive reference implementations shared by the extractor,
contrastive-loss, ranking-metric, gather and optimizer tests: scalar
loops in the library's own tap order, so the extractor oracles can be
compared bitwise, and the dense textbook forms of the row-sparse
gather gradient and of the Adam step."""

import numpy as np


def naive_time_conv(C, g):
    """C (J, L, K), kernel (m,) -> (J, L-m+1, K); taps left to right, ReLU."""
    n_j, n_l, n_k = C.shape
    m = len(g)
    out = np.zeros((n_j, n_l - m + 1, n_k))
    for j in range(n_j):
        for l in range(n_l - m + 1):
            for k in range(n_k):
                s = C[j, l, k] * g[0]
                for i in range(1, m):
                    s = s + C[j, l + i, k] * g[i]
                out[j, l, k] = np.maximum(s, 0.0)
    return out


def naive_field_conv(G, g):
    """G (J, Lw, K), kernel (n,) -> (J-n+1, Lw, K); taps top to bottom, ReLU."""
    n_j, n_l, n_k = G.shape
    n = len(g)
    out = np.zeros((n_j - n + 1, n_l, n_k))
    for j in range(n_j - n + 1):
        for l in range(n_l):
            for k in range(n_k):
                s = G[j, l, k] * g[0]
                for i in range(1, n):
                    s = s + G[j + i, l, k] * g[i]
                out[j, l, k] = np.maximum(s, 0.0)
    return out


def naive_cosine(a, b):
    """Cosine of two vectors with each norm floored at 1e-12."""
    na = max(np.sqrt(np.sum(a * a)), 1e-12)
    nb = max(np.sqrt(np.sum(b * b)), 1e-12)
    return float(np.sum(a * b) / (na * nb))


def naive_infonce(z1, z2, tau):
    """Explicit softmax cross-entropy over cosine logits, averaged over rows."""
    n = len(z1)
    total = 0.0
    for x in range(n):
        logits = np.array([naive_cosine(z1[x], z2[xp]) / tau for xp in range(n)])
        total += -np.log(np.exp(logits[x]) / np.exp(logits).sum())
    return total / n


def brute_force_auc(scores, labels):
    """All-pairs count: wins + half-ties over pos*neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def dense_scatter_add(n_rows, idx, g):
    """Gradient of table[idx] for upstream g, as a dense table: np.add.at
    of g's rows into zeros, in index order."""
    k = g.shape[-1]
    out = np.zeros((n_rows, k))
    np.add.at(out, np.asarray(idx).reshape(-1), g.reshape(-1, k))
    return out


def textbook_adam(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One dense bias-corrected Adam step at step count t; returns the
    new (p, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return p, m, v
