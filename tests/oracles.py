"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (nested
loops, fixpoint iteration, exhaustive scans) and stays independent of
the package's vectorized code paths.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def conv3d_loops(x, w, bias=None, padding=0, dilation=1):
    """Direct nested-loop stride-1 3D cross-correlation."""
    B, Cin, D, H, W = x.shape
    Cout, _, k, _, _ = w.shape
    Do = D + 2 * padding - dilation * (k - 1)
    Ho = H + 2 * padding - dilation * (k - 1)
    Wo = W + 2 * padding - dilation * (k - 1)
    out = np.zeros((B, Cout, Do, Ho, Wo), dtype=np.float64)
    for b in range(B):
        for o in range(Cout):
            for od in range(Do):
                for oh in range(Ho):
                    for ow in range(Wo):
                        acc = 0.0
                        for c in range(Cin):
                            for i in range(k):
                                for j in range(k):
                                    for l in range(k):
                                        d = od + i * dilation - padding
                                        h = oh + j * dilation - padding
                                        ww = ow + l * dilation - padding
                                        if 0 <= d < D and 0 <= h < H and 0 <= ww < W:
                                            acc += float(x[b, c, d, h, ww]) * float(w[o, c, i, j, l])
                        out[b, o, od, oh, ow] = acc + (0.0 if bias is None else float(bias[o]))
    return out


def conv3d_input_grad_loops(g, w, in_shape, padding=0, dilation=1):
    """Input gradient of `conv3d_loops` for output gradient `g`: each output
    voxel's gradient is scattered back through every kernel offset."""
    D, H, W = in_shape[2:]
    k = w.shape[2]
    gx = np.zeros(in_shape)
    for od, oh, ow in np.ndindex(*g.shape[2:]):
        for i, j, l in np.ndindex(k, k, k):
            d, h, ww = od + i * dilation - padding, oh + j * dilation - padding, ow + l * dilation - padding
            if 0 <= d < D and 0 <= h < H and 0 <= ww < W:
                gx[:, :, d, h, ww] += g[:, :, od, oh, ow] @ w[:, :, i, j, l]
    return gx


def im2col_full(x, k, padding=0, dilation=1):
    """Whole (B, Cin*k^3, Do*Ho*Wo) patch matrix of a zero-padded volume.

    Returns (col, (Do, Ho, Wo)); rows are ordered (c, i, j, l).
    """
    B, Cin = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
    out_sp = tuple(n + 2 * padding - dilation * (k - 1) for n in x.shape[2:])
    sB, sC, sD, sH, sW = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        (B, Cin, k, k, k) + out_sp,
        (sB, sC, sD * dilation, sH * dilation, sW * dilation, sD, sH, sW),
    )
    return np.ascontiguousarray(view).reshape(B, Cin * k ** 3, -1), out_sp


def conv3d_weight_grad_loops(x, g, k, padding=0, dilation=1):
    """Weight gradient of `conv3d_loops` for output gradient `g`: each kernel
    offset gathers every output voxel's gradient against the input voxel it
    read."""
    D, H, W = x.shape[2:]
    gw = np.zeros((g.shape[1], x.shape[1], k, k, k))
    for od, oh, ow in np.ndindex(*g.shape[2:]):
        for i, j, l in np.ndindex(k, k, k):
            d, h, ww = od + i * dilation - padding, oh + j * dilation - padding, ow + l * dilation - padding
            if 0 <= d < D and 0 <= h < H and 0 <= ww < W:
                gw[:, :, i, j, l] += g[:, :, od, oh, ow].T @ x[:, :, d, h, ww]
    return gw


def conv3d_weight_grad_shifted(xp, g, k, dilation=1):
    """Weight gradient of a same-padded correlation from its padded input
    `xp`, one GEMM per kernel offset (kn2row): `g` is laid onto the first
    planes of xp's (Hp, Wp) grid, zero elsewhere, so offset (i, j, l) pairs
    g's first n flat voxels with xp's n flat voxels from
    dilation*(i*Hp*Wp + j*Wp + l) on."""
    B, Cin, _, Hp, Wp = xp.shape
    Cout, D, H, W = g.shape[1:]
    gp = np.zeros((B, Cout, D, Hp, Wp), dtype=g.dtype)
    gp[:, :, :, :H, :W] = g
    n = (D - 1) * Hp * Wp + (H - 1) * Wp + W
    gf = gp.reshape(B, Cout, -1)[:, :, :n]
    xf = xp.reshape(B, Cin, -1)
    gw = np.empty((Cout, Cin, k, k, k), dtype=g.dtype)
    for i, j, l in np.ndindex(k, k, k):
        off = dilation * (i * Hp * Wp + j * Wp + l)
        gw[:, :, i, j, l] = np.matmul(gf, xf[:, :, off : off + n].transpose(0, 2, 1)).sum(axis=0)
    return gw


def conv3d_im2col(x, w, bias=None, padding=0, dilation=1):
    """Untiled im2col cross-correlation: one GEMM against the whole patch
    matrix, in the input's precision. Reference for the package's conv3d,
    which splits this GEMM into depth slabs."""
    B = x.shape[0]
    Cout, _, k = w.shape[:3]
    col, out_sp = im2col_full(x, k, padding, dilation)
    out = np.matmul(w.reshape(Cout, -1), col).reshape(B, Cout, *out_sp)
    if bias is not None:
        out = out + bias.reshape(1, Cout, 1, 1, 1)
    return out


# ---------------------------------------------------------------------------
# Reference backward rules that keep full float copies on the tape. Each
# returns (output, rule), where rule maps an output gradient to the input
# gradient (or a tuple of gradients). The package's rules keep smaller
# forms and recompute the rest; their bits must equal these.
# ---------------------------------------------------------------------------


def relu_float_mask(x):
    mask = (x > 0).astype(x.dtype)
    return x * mask, lambda g: g * mask


def dropout_float_mask(x, rate, gen):
    """Inverted dropout whose float mask is drawn in one `gen.random` call."""
    mask = (gen.random(x.shape) >= rate).astype(x.dtype)
    mask /= np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, lambda g: g * mask


def group_norm_stored_xhat(x, groups, gamma, beta, eps=1e-5):
    """Group norm keeping its normalized input; the rule returns
    (gx, ggamma, gbeta)."""
    B, C = x.shape[:2]
    grouped = x.reshape(B, groups, -1)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = ((grouped - mean) * inv_std).reshape(x.shape)
    gshape = (1, C, 1, 1, 1)
    out = gamma.reshape(gshape) * xhat + beta.reshape(gshape)

    def rule(g):
        sum_axes = (0, 2, 3, 4)
        gxhat = (g * gamma.reshape(gshape)).reshape(B, groups, -1)
        xh = xhat.reshape(B, groups, -1)
        m1 = gxhat.mean(axis=2, keepdims=True)
        m2 = (gxhat * xh).mean(axis=2, keepdims=True)
        gx = (inv_std * (gxhat - m1 - xh * m2)).reshape(x.shape)
        return gx, (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes)

    return out, rule


def conv3d_stored_xp(x, w, bias, dilation=1):
    """Same-padded conv3d keeping the padded input; the rule returns
    (gx, gw, gbias), gx from the flipped-kernel correlation and, for k > 1,
    gw from shifted GEMMs on the stored `xp`."""
    B, Cin = x.shape[:2]
    Cout, _, k = w.shape[:3]
    padding = dilation * (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
    out = conv3d_im2col(x, w, bias, padding, dilation)

    def rule(g):
        gm = g.reshape(B, Cout, -1)
        if k == 1:
            gw = np.matmul(gm, xp.reshape(B, Cin, -1).transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        else:
            gw = conv3d_weight_grad_shifted(xp, g, k, dilation)
        wf = np.ascontiguousarray(w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
        return conv3d_im2col(g, wf, None, padding, dilation), gw, gm.sum(axis=(0, 2))

    return out, rule


def maxpool3d_int64_argmax(x):
    """2x2x2 max pooling keeping an int64 argmax per block."""
    B, C, D, H, W = x.shape
    blocks = (
        x.reshape(B, C, D // 2, 2, H // 2, 2, W // 2, 2)
        .transpose(0, 1, 2, 4, 6, 3, 5, 7)
        .reshape(B, C, D // 2, H // 2, W // 2, 8)
    )
    arg = np.argmax(blocks, axis=-1)
    out = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]

    def rule(g):
        onehot = (np.arange(8, dtype=np.int64) == arg[..., None]).astype(x.dtype)
        gb = onehot * g[..., None]
        gx = gb.reshape(B, C, D // 2, H // 2, W // 2, 2, 2, 2).transpose(0, 1, 2, 5, 3, 6, 4, 7)
        return np.ascontiguousarray(gx.reshape(x.shape))

    return out, rule


def conv_transpose3d_per_offset(x, w, bias):
    """Stride-2, 2x2x2 transposed convolution as eight strided GEMMs, one
    per kernel offset, forward and backward; the rule returns (gx, gw,
    gbias). The package runs the same eight GEMMs as one batched matmul
    over its 2x2x2 block layout; its bits must equal these."""
    B, Cin, D, H, W = x.shape
    Cout = w.shape[1]
    xm = x.reshape(B, Cin, -1)
    out = np.empty((B, Cout, 2 * D, 2 * H, 2 * W), dtype=x.dtype)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                piece = np.matmul(w[:, :, i, j, l].T, xm).reshape(B, Cout, D, H, W)
                out[:, :, i::2, j::2, l::2] = piece
    out += bias.reshape(1, Cout, 1, 1, 1)

    def rule(g):
        gx = np.zeros_like(x)
        gw = np.zeros_like(w)
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    gs = np.ascontiguousarray(g[:, :, i::2, j::2, l::2]).reshape(B, Cout, -1)
                    gx += np.matmul(w[:, :, i, j, l], gs).reshape(x.shape)
                    gw[:, :, i, j, l] = np.matmul(xm, gs.transpose(0, 2, 1)).sum(axis=0)
        return gx, gw, g.sum(axis=(0, 2, 3, 4))

    return out, rule


def conv_transpose3d_scatter(x, w, bias=None):
    """Scatter-add oracle for the stride-2, 2x2x2 transposed convolution."""
    B, Cin, D, H, W = x.shape
    _, Cout = w.shape[:2]
    out = np.zeros((B, Cout, 2 * D, 2 * H, 2 * W), dtype=np.float64)
    for b in range(B):
        for c in range(Cin):
            for d in range(D):
                for h in range(H):
                    for ww in range(W):
                        v = float(x[b, c, d, h, ww])
                        for o in range(Cout):
                            for i in range(2):
                                for j in range(2):
                                    for l in range(2):
                                        out[b, o, 2 * d + i, 2 * h + j, 2 * ww + l] += v * float(w[c, o, i, j, l])
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64).reshape(1, Cout, 1, 1, 1)
    return out


def matmul_loops(a, b):
    """Triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def label_components_unionfind(mask, connectivity=26):
    """Union-find labeling of all connected components of a binary grid.

    Returns an int array with 0 for background and 1..n for components.
    """
    mask = np.asarray(mask, dtype=bool)
    D, H, W = mask.shape
    parent: dict[int, int] = {}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    offsets = neighbor_offsets(connectivity)
    for d in range(D):
        for h in range(H):
            for w in range(W):
                if not mask[d, h, w]:
                    continue
                idx = (d * H + h) * W + w
                parent.setdefault(idx, idx)
                for dd, dh, dw in offsets:
                    nd, nh, nw = d + dd, h + dh, w + dw
                    if 0 <= nd < D and 0 <= nh < H and 0 <= nw < W and mask[nd, nh, nw]:
                        nidx = (nd * H + nh) * W + nw
                        parent.setdefault(nidx, nidx)
                        union(idx, nidx)

    labels = np.zeros(mask.shape, dtype=np.int64)
    root_ids: dict[int, int] = {}
    for d in range(D):
        for h in range(H):
            for w in range(W):
                if mask[d, h, w]:
                    root = find((d * H + h) * W + w)
                    if root not in root_ids:
                        root_ids[root] = len(root_ids) + 1
                    labels[d, h, w] = root_ids[root]
    return labels


def neighbor_offsets(connectivity):
    if connectivity == 6:
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    if connectivity == 26:
        return [
            (d, h, w)
            for d in (-1, 0, 1)
            for h in (-1, 0, 1)
            for w in (-1, 0, 1)
            if (d, h, w) != (0, 0, 0)
        ]
    raise ValueError(connectivity)


def select_seeds_argwhere(component, n, rng_seed):
    """Seed sample drawn from the (N, 3) coordinate list of the component,
    in scan order."""
    coords = np.argwhere(np.asarray(component, dtype=bool))
    rng = np.random.default_rng(rng_seed)
    chosen = coords[rng.choice(len(coords), size=min(n, len(coords)), replace=False)]
    return [tuple(int(v) for v in c) for c in chosen]


def region_grow_fixpoint(flair, seeds, delta, connectivity=6):
    """Dilation-fixpoint region growing, independent of queue traversal.

    Seeds always belong to the region; other voxels join when they satisfy
    the intensity predicate and touch the region.
    """
    flair = np.asarray(flair, dtype=np.float64)
    mu = float(np.mean([flair[s] for s in seeds]))
    pred = np.abs(flair - mu) <= delta
    region = np.zeros(flair.shape, dtype=bool)
    for s in seeds:
        region[s] = True
    offsets = neighbor_offsets(connectivity)
    while True:
        grown = region.copy()
        for dd, dh, dw in offsets:
            shifted = np.zeros_like(region)
            src = region[
                max(0, -dd) : region.shape[0] - max(0, dd),
                max(0, -dh) : region.shape[1] - max(0, dh),
                max(0, -dw) : region.shape[2] - max(0, dw),
            ]
            shifted[
                max(0, dd) : region.shape[0] - max(0, -dd),
                max(0, dh) : region.shape[1] - max(0, -dh),
                max(0, dw) : region.shape[2] - max(0, -dw),
            ] = src
            grown |= shifted & pred
        if np.array_equal(grown, region):
            return region
        region = grown


def otsu_scan(values, bins):
    """Exhaustive scan over histogram bin edges maximizing the
    between-class variance, computed directly per candidate edge."""
    values = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(values, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    best_t, best_score = None, -1.0
    total = counts.sum()
    for t in range(1, bins):
        if counts[t - 1] == 0:
            continue  # same partition as a lower edge; lowest threshold wins ties
        n0 = counts[:t].sum()
        n1 = counts[t:].sum()
        if n0 == 0 or n1 == 0:
            continue
        w0 = n0 / total
        w1 = n1 / total
        mu0 = float((counts[:t] * centers[:t]).sum()) / n0
        mu1 = float((counts[t:] * centers[t:]).sum()) / n1
        score = w0 * w1 * (mu0 - mu1) ** 2
        if score > best_score + 0.0:
            best_score = score
            best_t = float(edges[t])
    return best_t


def largest_component_bfs(mask, connectivity=26):
    """Breadth-first labeling that keeps the largest component; ties go to
    the component whose first voxel comes earliest in scan order."""
    mask = np.asarray(mask, dtype=bool)
    offsets = neighbor_offsets(connectivity)
    visited = np.zeros(mask.shape, dtype=bool)
    best_mask = np.zeros(mask.shape, dtype=bool)
    best_size = 0
    D, H, W = mask.shape
    for start in np.argwhere(mask):
        start = tuple(start)
        if visited[start]:
            continue
        component = []
        queue = deque([start])
        visited[start] = True
        while queue:
            d, h, w = queue.popleft()
            component.append((d, h, w))
            for dd, dh, dw in offsets:
                nd, nh, nw = d + dd, h + dh, w + dw
                if 0 <= nd < D and 0 <= nh < H and 0 <= nw < W and mask[nd, nh, nw] and not visited[nd, nh, nw]:
                    visited[nd, nh, nw] = True
                    queue.append((nd, nh, nw))
        if len(component) > best_size:
            best_size = len(component)
            best_mask = np.zeros(mask.shape, dtype=bool)
            coords = np.array(component)
            best_mask[coords[:, 0], coords[:, 1], coords[:, 2]] = True
    return best_mask


def region_grow_bfs(flair, seeds, delta, connectivity=6):
    """Queue-driven region growing from all seeds against the seed mean."""
    flair = np.asarray(flair, dtype=np.float64)
    seeds = [tuple(int(v) for v in s) for s in seeds]
    mu = float(np.mean([flair[s] for s in seeds]))
    accept = np.abs(flair - mu) <= delta
    D, H, W = flair.shape
    region = np.zeros(flair.shape, dtype=bool)
    queue = deque()
    for s in seeds:
        if not region[s]:
            region[s] = True
            queue.append(s)
    offsets = neighbor_offsets(connectivity)
    while queue:
        d, h, w = queue.popleft()
        for dd, dh, dw in offsets:
            nd, nh, nw = d + dd, h + dh, w + dw
            if 0 <= nd < D and 0 <= nh < H and 0 <= nw < W and not region[nd, nh, nw] and accept[nd, nh, nw]:
                region[nd, nh, nw] = True
                queue.append((nd, nh, nw))
    return region


def extract_boundary_padded(mask):
    """Mask voxels with a 6-neighbour outside the mask, from the whole
    volume padded by one False voxel (the volume border counts as
    outside)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.empty((0, 3), dtype=np.int64)
    padded = np.pad(mask, 1)
    interior = np.ones_like(mask)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return np.argwhere(mask & ~interior)


def hausdorff_brute(pred, gt, spacing=(1.0, 1.0, 1.0), block=512):
    """Hausdorff distance from every pairwise squared distance between the
    two masks' boundaries (as `extract_boundary_padded` finds them), in
    blocks of `block` points."""
    sp = np.asarray(spacing, dtype=np.float64)
    p = extract_boundary_padded(pred).astype(np.float64) * sp
    g = extract_boundary_padded(gt).astype(np.float64) * sp

    def directed_sq(a, b):
        worst = 0.0
        for start in range(0, len(a), block):
            chunk = a[start : start + block]
            d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(d2.min(axis=1).max()))
        return worst

    return float(np.sqrt(max(directed_sq(p, g), directed_sq(g, p))))


def hausdorff_pointloop(p_coords, g_coords, spacing=(1.0, 1.0, 1.0)):
    """Per-point loop Hausdorff over two boundary coordinate sets."""
    sp = np.asarray(spacing, dtype=np.float64)
    p = np.asarray(p_coords, dtype=np.float64) * sp
    g = np.asarray(g_coords, dtype=np.float64) * sp

    def directed(a, b):
        worst = 0.0
        for pt in a:
            d2 = np.min(((b - pt) ** 2).sum(axis=1))
            worst = max(worst, float(d2))
        return worst

    return float(np.sqrt(max(directed(p, g), directed(g, p))))


def dice_pair(a, b):
    """Set-arithmetic Dice on two binary grids."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    inter = np.logical_and(a, b).sum()
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return 2.0 * float(inter) / float(denom)


def random_blob_mask(rng, shape, p_empty=0.0):
    """Ellipsoid blob plus sparse speckle; irregular but bounded boundary."""
    if rng.random() < p_empty:
        return np.zeros(shape, dtype=bool)
    center = np.array([rng.uniform(2, s - 2) for s in shape])
    radii = np.array([rng.uniform(1.5, s / 2.5) for s in shape])
    grids = np.indices(shape).astype(np.float64)
    dist = sum(((grids[i] - center[i]) / radii[i]) ** 2 for i in range(3))
    mask = dist <= 1.0
    extra = rng.random(shape) > 0.999
    return mask | extra
