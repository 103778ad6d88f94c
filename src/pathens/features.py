"""Input-space feature images for splits: averaging and input synthesis.

Two ways to see what a split responds to. The cheap one averages every
training input that traversed the split. The expensive one synthesizes an
input whose chosen layer's activation lands as close as possible to a
cluster center, optimizing the input alone while the trained weights stay
frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .network import Adam, Network, _hidden_deriv_from_act, forward_batch
from .paths import FilterParams, Path, Split, SplitTable


@dataclass
class FeatureImage:
    """Grayscale image in [0,1] with a note of where it came from."""

    pixels: np.ndarray
    shape: tuple[int, int]
    method: str
    tag: str = ""

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64).ravel()
        h, w = self.shape
        if h * w != self.pixels.size:
            raise ValueError(f"shape {self.shape} does not match {self.pixels.size} pixels")
        if self.method not in ("average", "backprop"):
            raise ValueError(f"method must be average or backprop, got {self.method!r}")
        if self.pixels.size and (self.pixels.min() < 0.0 or self.pixels.max() > 1.0):
            raise ValueError("pixels must lie in [0, 1]")

    def grid(self) -> np.ndarray:
        return self.pixels.reshape(self.shape)


def infer_shape(dim: int) -> tuple[int, int]:
    """Square when the pixel count allows it, a single row otherwise."""
    side = math.isqrt(dim)
    return (side, side) if side * side == dim else (1, dim)


def split_mean_feature(split: Split, train_set, ids, shape: tuple[int, int] | None = None) -> FeatureImage:
    """Coordinate-wise mean of the training inputs that traversed ``split``.

    ``ids`` is the (n, n_layers) cluster-id matrix of the training set
    (a list of Path objects works too).
    """
    if isinstance(ids, (list, tuple)) and ids and isinstance(ids[0], Path):
        ids = np.stack([p.cluster_ids for p in ids])
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or len(ids) != len(train_set):
        raise ValueError("ids must be (n_train, n_layers)")
    if not 0 <= split.layer < ids.shape[1] - 1:
        raise ValueError(f"split layer {split.layer} out of range")
    mask = (ids[:, split.layer] == split.src) & (ids[:, split.layer + 1] == split.dst)
    if not mask.any():
        raise ValueError(f"no training point traverses split {split.key}")
    mean = train_set.points[mask].mean(axis=0)
    return FeatureImage(mean, shape or infer_shape(mean.size), "average", split.key)


def _layer_loss_and_input_grad(net: Network, x_row: np.ndarray, layer_index: int,
                               target: np.ndarray):
    """Squared distance of layer ``layer_index``'s activation to ``target``
    and its gradient with respect to the input row alone."""
    activation = net.config.activation
    _, acts = forward_batch(net, x_row, record=True)
    diff = acts[layer_index] - target
    loss = float((diff * diff).sum())
    g = 2.0 * diff
    if layer_index == len(acts) - 1:
        p = acts[-1]
        dz = p * (g - (g * p).sum(axis=1, keepdims=True))
    else:
        dz = g * _hidden_deriv_from_act(activation, acts[layer_index])
    da = dz @ net.weights[layer_index - 1].T
    for l in range(layer_index - 1, 0, -1):
        dz = da * _hidden_deriv_from_act(activation, acts[l])
        da = dz @ net.weights[l - 1].T
    return loss, da


def activation_maximization(net: Network, layer_index: int, target_center, steps: int,
                            step_size: float, init, shape: tuple[int, int] | None = None,
                            tag: str = "") -> tuple[FeatureImage, list[float]]:
    """Synthesize an input whose layer activation approaches a cluster center.

    ``layer_index`` counts like an activation trace: 1..H for the hidden
    layers, H+1 for the softmax output (0, the input itself, makes no
    sense here). Runs Adam on the input with the weights frozen and no
    dropout, clamping to [0,1] after every step. Returns the best iterate
    seen (the initial input counts) and the full loss trace, one entry per
    visited iterate (``steps`` + 1 values).
    """
    cfg = net.config
    if not 1 <= layer_index <= cfg.n_hidden + 1:
        raise ValueError(f"layer_index must be in [1, {cfg.n_hidden + 1}], got {layer_index}")
    target = np.asarray(target_center, dtype=np.float64)
    width = cfg.layer_sizes[layer_index]
    if target.shape != (width,):
        raise ValueError(f"target must have shape ({width},), got {target.shape}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = np.clip(np.asarray(init, dtype=np.float64).reshape(1, cfg.input_dim), 0.0, 1.0)

    adam = Adam([x], step_size=step_size)
    losses = []
    best_x, best_loss = x.copy(), None
    for _ in range(steps):
        loss, grad = _layer_loss_and_input_grad(net, x, layer_index, target[None, :])
        losses.append(loss)
        if best_loss is None or loss < best_loss:
            best_loss, best_x = loss, x.copy()
        adam.step([x], [grad])
        np.clip(x, 0.0, 1.0, out=x)
    final_loss, _ = _layer_loss_and_input_grad(net, x, layer_index, target[None, :])
    losses.append(final_loss)
    if best_loss is None or final_loss < best_loss:
        best_x = x.copy()
    img = FeatureImage(best_x[0], shape or infer_shape(cfg.input_dim), "backprop", tag)
    return img, losses


def good_splits(stats: SplitTable, params: FilterParams) -> list[Split]:
    """Traversed splits passing the filter's count and accuracy thresholds,
    sorted by (layer, src, dst). A split nobody traversed never qualifies,
    even when both thresholds are 0."""
    return [
        Split(l, int(s), int(d))
        for l, (c, a) in enumerate(zip(stats.count, stats.accuracy))
        for s, d in np.argwhere((c > 0) & (c >= params.min_split_count)
                                & (a >= params.min_split_accuracy))
    ]


def emit_image(img: FeatureImage, path) -> None:
    """Write an 8-bit grayscale file; v maps to round(v * 255).

    ``.pgm`` writes binary PGM (P5). ``.png`` needs Pillow and goes
    through it; anything else is rejected.
    """
    path = FsPath(path)
    h, w = img.shape
    data = np.round(img.pixels * 255.0).astype(np.uint8).reshape(h, w)
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        with open(path, "wb") as f:
            f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            f.write(data.tobytes())
    elif suffix == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise RuntimeError("PNG output needs the Pillow package (pip install Pillow)") from exc
        Image.fromarray(data, mode="L").save(path)
    else:
        raise ValueError(f"unsupported image suffix {suffix!r} (use .pgm or .png)")


def read_image(path) -> np.ndarray:
    """Read back an emitted file as a (h, w) array in [0,1]."""
    path = FsPath(path)
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        raw = path.read_bytes()
        fields, pos = [], 0
        while len(fields) < 4:
            while pos < len(raw) and raw[pos:pos + 1].isspace():
                pos += 1
            if raw[pos:pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
                continue
            start = pos
            while pos < len(raw) and not raw[pos:pos + 1].isspace():
                pos += 1
            fields.append(raw[start:pos])
        if fields[0] != b"P5":
            raise ValueError("not a binary PGM file")
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
        if maxval != 255:
            raise ValueError("only 8-bit PGM is supported")
        pos += 1  # the single whitespace byte after the header
        pixels = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
        if pixels.size != w * h:
            raise ValueError("truncated PGM payload")
        return pixels.reshape(h, w).astype(np.float64) / 255.0
    if suffix == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise RuntimeError("PNG input needs the Pillow package") from exc
        with Image.open(path) as im:
            return np.asarray(im.convert("L"), dtype=np.float64) / 255.0
    raise ValueError(f"unsupported image suffix {suffix!r}")
