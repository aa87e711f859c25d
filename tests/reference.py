"""Plain references the tests compare the program against: dense
truncation, the scalar box overlap, per-element finite differences,
readers for the images the program writes, scene synthesis over whole
arrays, and a training step written out product by product.

From the package they take only the random streams, the sampler's error
and the label constants, so a change to the arithmetic of the program
cannot move them with it."""

import numpy as np

from probanet import EmptyPoolError, SplitMix64, derive_seed
from probanet.sim import BATCH_SIZE, BG, FG, FG_QUOTA


def truncate(a_prime, t2, threshold):
    """Training's truncation over a whole map: zero every entry whose gate
    weight is at or below the threshold."""
    return np.where(t2 > threshold, a_prime, 0.0)


def area(box) -> float:
    """Area of a box given as (x_min, y_min, x_max, y_max)."""
    x_min, y_min, x_max, y_max = box
    return (x_max - x_min) * (y_max - y_min)


def iou(a, b) -> float:
    """Intersection area over union area of two (x_min, y_min, x_max,
    y_max) boxes, in [0, 1]."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (area(a) + area(b) - inter)


def uniform_range(rng, low, high, shape):
    """One bulk draw of doubles in [low, high): a single u64 call over the
    whole shape, its top 53 bits scaled by 2**-53."""
    u = (rng.u64(int(np.prod(shape))) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return low + (high - low) * u.reshape(shape)


def generate_scene(config, seed):
    """(objects, features) of a scene drawn as full arrays: the whole
    noise floor in one draw, then each object's bumps added over the
    whole map, halo channels and then core channels.  objects is a
    tuple of (x_min, y_min, x_max, y_max) tuples."""
    rng = SplitMix64(seed)
    h, w, c = config.height, config.width, config.channels
    n = rng.randint(config.n_objects_min, config.n_objects_max)
    boxes = []
    for _ in range(n):
        bh = rng.randint(config.object_min_size, config.object_max_size)
        bw = rng.randint(config.object_min_size, config.object_max_size)
        y0 = rng.uniform_range(0.0, float(h - bh))
        x0 = rng.uniform_range(0.0, float(w - bw))
        boxes.append((x0, y0, x0 + bw, y0 + bh))
    gains = uniform_range(rng, config.gain_min, config.gain_max, (n, c))
    features = uniform_range(rng, -config.noise_level, config.noise_level, (h, w, c))
    yc = np.arange(h, dtype=np.float64) + 0.5
    xc = np.arange(w, dtype=np.float64) + 0.5
    half = c // 2
    for o, (x_min, y_min, x_max, y_max) in enumerate(boxes):
        cy = (y_min + y_max) / 2
        cx = (x_min + x_max) / 2
        sy = (y_max - y_min) / 2
        sx = (x_max - x_min) / 2
        dy2 = (yc - cy)[:, None] ** 2
        dx2 = (xc - cx)[None, :] ** 2
        halo = np.exp(-(dy2 / (2 * sy * sy) + dx2 / (2 * sx * sx)))
        core = np.exp(-(dy2 / (2 * (sy / 2) ** 2) + dx2 / (2 * (sx / 2) ** 2)))
        features[:, :, :half] += (
            config.bump_amplitude * halo[:, :, None] * gains[o][None, None, :half]
        )
        features[:, :, half:] += (
            config.core_amplitude * core[:, :, None] * gains[o][None, None, half:]
        )
    return tuple(boxes), features


def read_pgm(data: bytes) -> np.ndarray:
    """Parse P2/P5 (maxval 255) back to (height, width) uint8."""
    return _read_netpbm(data, (b"P2", b"P5"), 1)


def read_ppm(data: bytes) -> np.ndarray:
    """Parse P3/P6 (maxval 255) back to (height, width, 3) uint8."""
    return _read_netpbm(data, (b"P3", b"P6"), 3)


def _read_netpbm(data: bytes, magics, depth: int) -> np.ndarray:
    magic = data[:2]
    assert magic in magics, magic
    # Header: magic, comment lines, width, height, maxval, then a single
    # whitespace byte before the pixels.
    pos, fields = 2, []
    while len(fields) < 3:
        while data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    w, h, maxval = fields
    assert maxval == 255, maxval
    n = w * h * depth
    rest = data[pos + 1 :]
    if magic == magics[1]:  # raw bytes; plain text otherwise
        arr = np.frombuffer(rest[:n], dtype=np.uint8)
    else:
        arr = np.array(rest.split()[:n], dtype=np.uint8)
    assert arr.size == n, "pixel payload shorter than header promises"
    return arr.reshape((h, w, depth) if depth > 1 else (h, w))


def finite_differences(f, x, h):
    """Central differences of the scalar f(), which reads x, one element
    at a time: each element is moved by +h and -h in place and put back."""
    grad = np.zeros_like(x)
    flat, out = x.reshape(-1), grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        plus = float(f())
        flat[k] = orig - h
        minus = float(f())
        flat[k] = orig
        out[k] = (plus - minus) / (2.0 * h)
    return grad


def _logistic(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def two_draw_sample(labels, keep_mask, rng):
    """The sampler with one key draw per class, foreground first, and a
    full stable sort of each pool's keys: (indices, fg_count).  Without a
    background candidate it raises EmptyPoolError, as the sampler does."""
    mask = np.ones(len(labels), dtype=bool) if keep_mask is None else keep_mask
    fg_pool = np.flatnonzero((labels.category == FG) & mask)
    bg_pool = np.flatnonzero((labels.category == BG) & mask)
    if bg_pool.size == 0:
        raise EmptyPoolError("no background anchors survive the mask")
    fg_take = min(FG_QUOTA, fg_pool.size)
    bg_take = min(BATCH_SIZE - fg_take, bg_pool.size)
    picks = [
        pool[np.argsort(rng.u64(pool.size), kind="stable")[:take]]
        for pool, take in ((fg_pool, fg_take), (bg_pool, bg_take))
    ]
    return np.concatenate(picks), fg_take


def gate_backward(t1, t2, x, params, grad_t2):
    """The gate's parameter gradients over the rows x, whose forward pass
    gave t1 and t2, from the gradient at t2."""
    grad_z2 = t2 * (1.0 - t2) * grad_t2
    grad_z1 = np.where(t1 > 0.0, grad_z2 @ params["expand_weight"], 0.0)
    return {
        "reduce_weight": grad_z1.T @ x,
        "reduce_bias": grad_z1.sum(axis=0),
        "expand_weight": grad_z2.T @ t1,
        "expand_bias": grad_z2.sum(axis=0),
    }


def train_step(params, velocity, step, x, labels, config):
    """One training step over the feature rows x with np.mean reductions,
    a per-name momentum update and nothing fused: the metric values in
    metrics.csv order, the gradients by name, and the updated parameters
    and velocities as new dicts."""
    k = params["head_weight"].shape[0]
    gated = "reduce_weight" in params
    mask, kept = None, 1.0
    if gated:
        t1 = np.maximum(x @ params["reduce_weight"].T + params["reduce_bias"], 0.0)
        t2 = np.clip(
            _logistic(t1 @ params["expand_weight"].T + params["expand_bias"]),
            np.nextafter(0.0, 1.0),
            np.nextafter(1.0, 0.0),
        )
        t2_flat = t2.ravel()
        mask = t2_flat > config.th
        kept = float(mask.mean())
    rng = SplitMix64(derive_seed(config.seed, "sampler", step))
    idx, _ = two_draw_sample(labels, mask, rng)
    n = idx.size

    cell, anchor = np.divmod(idx, k)
    rows = x[cell]
    a_sel = (rows @ params["head_weight"].T)[np.arange(n), anchor]
    values = a_sel * t2_flat[idx] if gated else a_sel
    logits = params["scale"] * values + params["shift"]
    targets = (labels.category[idx] == FG).astype(np.float64)
    per = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    cls_loss = float(per.mean())
    aux, beta, variance, coeff = 0.0, 0.0, 0.0, 0.0
    fg_mean = bg_mean = 1.0
    if gated:
        raw = float(np.mean((t2_flat - float(t2_flat.mean())) ** 2))
        if raw <= config.epsilon:
            variance, grad_v = config.epsilon, np.zeros_like(t2_flat)
        else:
            variance, grad_v = raw, 2.0 * (t2_flat - t2_flat.mean()) / t2_flat.size
        if config.alpha > 0.0:
            aux = config.alpha * cls_loss
            beta = float(config.alpha * cls_loss * np.exp(-1.0 / variance))
            coeff = -config.alpha * cls_loss / (variance * variance)
        fg_mean, bg_mean = (
            float(t2_flat[sel].mean()) if sel.any() else 0.0
            for sel in (labels.category == FG, labels.category == BG)
        )
    hard = float(labels.hard[idx].sum()) / n
    record = (step, cls_loss, aux, variance, beta, hard, fg_mean, bg_mean, kept)

    dz = (_logistic(logits) - targets) / n
    grads = {"scale": float(np.dot(dz, values)), "shift": float(dz.sum())}
    grad_values = params["scale"] * dz
    grad_a = np.zeros((n, k))
    grad_a[np.arange(n), anchor] = grad_values * t2_flat[idx] if gated else grad_values
    grads["head_weight"] = grad_a.T @ rows
    if gated and coeff != 0.0 and variance > config.epsilon:
        grad_t2 = coeff * grad_v
        grad_t2[idx] += grad_values * a_sel
        grads.update(gate_backward(t1, t2, x, params, grad_t2.reshape(t2.shape)))
    elif gated:
        # No variance gradient (at its floor, or alpha = 0): only the
        # sampled anchors get a gradient at t2, so the backward runs over
        # their cells' rows alone, one row per anchor in batch order,
        # each carrying the gradient of its own anchor slot only.
        grad_t2 = np.zeros((n, k))
        grad_t2[np.arange(n), anchor] = grad_values * a_sel
        grads.update(gate_backward(t1[cell], t2[cell], rows, params, grad_t2))

    lr = config.learning_rate_at(step)
    new_params, new_velocity = {}, {}
    for name in params:
        v = config.momentum * velocity[name] - lr * (
            grads[name] + config.weight_decay * params[name]
        )
        new_velocity[name] = v
        new_params[name] = params[name] + v
    return record, grads, new_params, new_velocity
