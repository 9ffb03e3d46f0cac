"""Independent brute-force reference implementations used only by the tests.

These deliberately avoid the library's code paths: explicit centering
matrices, double loops, one-sided Jacobi rotations, and constrained
alternating ascent instead of vectorized products and LAPACK-first
factorizations.
"""
import numpy as np


def centering_matrix(n: int) -> np.ndarray:
    return np.eye(n) - np.ones((n, n)) / n


def gram_by_dots(x: np.ndarray) -> np.ndarray:
    """O(n^2 p) entry-wise dot products."""
    n = x.shape[0]
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = float(np.dot(x[i], x[j]))
    return k


def cka_direct(x: np.ndarray, y: np.ndarray) -> float:
    """Feature-space CKA evaluated with explicit centering and explicit norms."""
    h = centering_matrix(x.shape[0])
    xc = h @ x
    yc = h @ y
    num = 0.0
    for a in range(x.shape[1]):
        for b in range(y.shape[1]):
            num += float(np.dot(yc[:, b], xc[:, a])) ** 2
    dx = np.sqrt(sum(float(np.dot(xc[:, a], xc[:, b])) ** 2
                     for a in range(x.shape[1]) for b in range(x.shape[1])))
    dy = np.sqrt(sum(float(np.dot(yc[:, a], yc[:, b])) ** 2
                     for a in range(y.shape[1]) for b in range(y.shape[1])))
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


def cka_trace_form(k: np.ndarray, l: np.ndarray) -> float:
    """Gram-space CKA via the trace formula with explicit H products."""
    h = centering_matrix(k.shape[0])
    num = np.trace(k @ h @ l @ h)
    dk = np.trace(k @ h @ k @ h)
    dl = np.trace(l @ h @ l @ h)
    return float(num / np.sqrt(dk * dl))


def class_components(x: np.ndarray, y: np.ndarray, labels) -> tuple:
    """Double-loop intra/inter sums over the centered Grams."""
    h = centering_matrix(x.shape[0])
    xc = h @ x
    yc = h @ y
    k = xc @ xc.T
    l = yc @ yc.T
    d = np.linalg.norm(xc.T @ xc) * np.linalg.norm(yc.T @ yc)
    intra = inter = 0.0
    n = x.shape[0]
    for i in range(n):
        for j in range(n):
            term = k[i, j] * l[i, j]
            if labels[i] == labels[j]:
                intra += term
            else:
                inter += term
    return intra / d, inter / d


def hsic_unbiased_loops(x: np.ndarray, y: np.ndarray) -> float:
    """Unbiased HSIC (Song et al. 2012) by a double loop over i != j.

    K_ij and L_ij are dot products of rows i and j, summed entry by entry
    into the estimator's three terms: sum(K~ * L~), 1^T K~ 1 1^T L~ 1, and
    1^T K~ L~ 1 from the row sums of the zero-diagonal Grams.
    """
    m = x.shape[0]
    kl = sk = sl = 0.0
    rows_k = [0.0] * m
    rows_l = [0.0] * m
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            k = float(np.dot(x[i], x[j]))
            l = float(np.dot(y[i], y[j]))
            kl += k * l
            sk += k
            sl += l
            rows_k[i] += k
            rows_l[i] += l
    kll = sum(a * b for a, b in zip(rows_k, rows_l))
    return (kl + sk * sl / ((m - 1) * (m - 2)) - 2.0 * kll / (m - 2)) / (m * (m - 3))


def jacobi_rotate_columns(m: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """One-sided Jacobi: rotate column pairs of m until A^T A is diagonal.

    The result is m V for an orthogonal V, so its columns are the columns of
    U S from an SVD of m, in no particular order, plus zero columns.
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(np.dot(a[:, p], a[:, q]))
                app = float(np.dot(a[:, p], a[:, p]))
                aqq = float(np.dot(a[:, q], a[:, q]))
                off = max(off, abs(apq))
                if abs(apq) < 1e-15 * max(1.0, np.sqrt(app * aqq)):
                    continue
                tau = (aqq - app) / (2.0 * apq)
                sign = 1.0 if tau >= 0 else -1.0
                t = sign / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
        if off < 1e-14:
            break
    return a


def jacobi_singular_values(m: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Singular values as the column norms after Jacobi rotation."""
    a = np.asarray(m, dtype=np.float64)
    a = jacobi_rotate_columns(a.T if a.shape[0] < a.shape[1] else a, sweeps)
    sv = np.sqrt((a * a).sum(axis=0))
    return np.sort(sv)[::-1]


def principal_projection(m: np.ndarray, fraction: float) -> np.ndarray:
    """Leading principal projection U_k S_k of m by Jacobi rotation.

    k is the smallest count whose squared singular values reach `fraction`
    of the total; the columns come out in decreasing norm, up to sign.
    """
    a = jacobi_rotate_columns(m)
    norms = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(norms)[::-1]
    cum = np.cumsum(norms[order] ** 2) / float((norms * norms).sum())
    k = int(np.searchsorted(cum, fraction - 1e-12)) + 1
    return a[:, order[:k]]


def nuclear_norm_jacobi(m: np.ndarray) -> float:
    return float(jacobi_singular_values(m).sum())


def _project_out(w: np.ndarray, constraints: list) -> np.ndarray:
    """Remove components of w along the given constraint vectors."""
    for c in constraints:
        denom = float(np.dot(c, c))
        if denom > 0:
            w = w - c * (float(np.dot(c, w)) / denom)
    return w


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def cca_ascent(x: np.ndarray, y: np.ndarray, iters: int = 2000,
               tol: float = 1e-15) -> np.ndarray:
    """Canonical correlations by constrained alternating ascent.

    For each component, alternately fit one side's weights by least squares
    to the other side's current projection, projecting out the previously
    accepted projections (the orthogonality constraints), until the
    correlation stops improving. No cross-product SVD is involved.
    """
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    k = min(x.shape[1], y.shape[1])
    rng = np.random.default_rng(12345)
    us = []  # accepted unit projections X w_j
    vs = []  # accepted unit projections Y v_j
    rhos = []
    for _ in range(k):
        t = _unit(_project_out(yc @ rng.normal(size=y.shape[1]), vs))
        u = np.zeros(x.shape[0])
        rho_prev = -1.0
        rho = 0.0
        for _ in range(iters):
            w, *_ = np.linalg.lstsq(xc, t, rcond=None)
            u = _unit(_project_out(xc @ w, us))
            vcoef, *_ = np.linalg.lstsq(yc, u, rcond=None)
            t = _unit(_project_out(yc @ vcoef, vs))
            rho = abs(float(np.dot(u, t)))
            if abs(rho - rho_prev) < tol:
                break
            rho_prev = rho
        us.append(u)
        vs.append(t)
        rhos.append(max(0.0, min(1.0, rho)))
    return np.array(rhos)


def block_mean_with_loops(values: np.ndarray, min_lag: int) -> float:
    total = 0.0
    count = 0
    size = values.shape[0]
    for i in range(size):
        for j in range(size):
            if abs(i - j) >= min_lag:
                total += values[i, j]
                count += 1
    return total / count


def render_per_image(spec, labels, rng) -> np.ndarray:
    """Synthetic images drawn one at a time, with the RNG draws in dataset order."""
    n = len(labels)
    size = spec.size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    lo, hi = size * 0.3, size * 0.7
    grid = [(lo, lo), (hi, hi), (lo, hi), (hi, lo), (size / 2, size / 2),
            (lo, size / 2), (hi, size / 2), (size / 2, lo)]
    centers = np.array([grid[c % len(grid)] for c in range(spec.classes)])
    angles = np.pi * np.arange(spec.classes) / spec.classes
    imgs = np.full((n, size, size), spec.background, dtype=np.float64)
    jit = rng.integers(-spec.jitter, spec.jitter + 1, size=(n, 2)) if spec.jitter else np.zeros((n, 2))
    phase = rng.uniform(0, 2 * np.pi, size=n)
    for i in range(n):
        c = labels[i]
        cy, cx = centers[c] + jit[i]
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spec.blob_sigma**2))
        th = angles[c]
        wave = np.sin(
            2 * np.pi * spec.texture_cycles * (xx * np.cos(th) + yy * np.sin(th)) / size
            + phase[i]
        )
        imgs[i] += spec.blob_amplitude * bump + spec.texture_amplitude * wave
    if spec.noise_std > 0:
        imgs += rng.normal(0.0, spec.noise_std, imgs.shape)
    imgs = np.clip(imgs, 0.0, 1.0)
    return np.repeat(imgs[:, None, :, :], spec.channels, axis=1)


def snow_masks_per_streak(n: int, h: int, w: int, seed: int, streaks: int = 12) -> np.ndarray:
    """Diagonal streak masks built one streak at a time, three draws per streak."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    masks = np.zeros((n, streaks, h, w))
    for i in range(n):
        for s in range(streaks):
            cy = rng.uniform(0, h - 1)
            cx = rng.uniform(0, w - 1)
            length = rng.uniform(4.0, 8.0)
            ty = (yy - cy + xx - cx) / 2.0
            along = np.abs(ty) <= length / 2.0
            d_perp = np.abs((yy - cy) - (xx - cx)) / np.sqrt(2.0)
            m = np.exp(-(d_perp**2) / (2 * 0.7**2)) * along
            m[m < 0.01] = 0.0
            masks[i, s] = m
    return masks
