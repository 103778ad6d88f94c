"""From-scratch feed-forward classifiers: dropout, Adam, validation snapshots.

Everything runs on float64 numpy arrays. Networks are plain containers of
per-layer weight matrices (fan-in x fan-out) and bias vectors; training
returns a new network and never mutates its input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NETWORK_FORMAT_VERSION = 1

_ACTIVATIONS = ("sigmoid", "relu")


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def relu(z):
    return np.maximum(np.asarray(z, dtype=np.float64), 0.0)


def softmax(z):
    """Row-wise softmax, stable under large logits."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _hidden_fn(name):
    return sigmoid if name == "sigmoid" else relu


def _hidden_deriv_from_act(name, h):
    # both activations admit a derivative in terms of their own output
    if name == "sigmoid":
        return h * (1.0 - h)
    return (h > 0).astype(np.float64)


@dataclass(frozen=True)
class NetworkConfig:
    """Layer plan for a softmax classifier.

    ``layer_sizes`` runs input, hidden..., output. ``dropout_rates``, when
    non-empty, gives one drop probability per dropped layer: the input layer
    followed by each hidden layer (``len(layer_sizes) - 1`` entries).
    """

    layer_sizes: tuple[int, ...]
    activation: str = "sigmoid"
    dropout_rates: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "dropout_rates", tuple(float(r) for r in self.dropout_rates))
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least one hidden layer (input, hidden..., output)")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")
        if self.dropout_rates:
            want = len(self.layer_sizes) - 1
            if len(self.dropout_rates) != want:
                raise ValueError(
                    f"dropout_rates needs one entry per dropped layer (input + each hidden"
                    f" = {want}), got {len(self.dropout_rates)}"
                )
            if any(not 0.0 <= r < 1.0 for r in self.dropout_rates):
                raise ValueError(f"dropout rates must lie in [0, 1), got {self.dropout_rates}")

    @property
    def n_hidden(self) -> int:
        return len(self.layer_sizes) - 2

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class Network:
    """Weights and biases plus the config that shaped them. Treat as immutable."""

    config: NetworkConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        sizes = self.config.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("layer count mismatch between parameters and config")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l], sizes[l + 1]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"parameter shape mismatch at layer {l}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"non-finite parameters at layer {l}")

    def copy(self) -> "Network":
        return Network(
            self.config,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


@dataclass
class Dataset:
    """Input vectors with integer class labels."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array (n, dim)")
        if self.labels.ndim != 1 or len(self.labels) != len(self.points):
            raise ValueError("labels must be 1-D and aligned with points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.points[idx], self.labels[idx])


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch Adam settings plus the seed that drives shuffling and dropout."""

    epochs: int
    batch_size: int
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")


def init_network(config: NetworkConfig, seed: int) -> Network:
    """Xavier-uniform weights, zero biases; bit-identical for a fixed seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    sizes = config.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(config, weights, biases)


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, survivors scaled by 1/(1-rate)."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate must lie in (0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def forward_batch(net: Network, X, record: bool = False):
    """Run a batch through the network, without dropout.

    Returns ``(probs, layer_acts)`` where ``probs`` is (n, classes) and
    ``layer_acts`` (only when ``record``) is the list of per-layer activation
    matrices: raw input, each hidden layer's post-activation output, and the
    softmax output. Training-time dropout lives in ``loss_and_gradient``.
    """
    cfg = net.config
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.input_dim:
        raise ValueError(f"expected input of shape (n, {cfg.input_dim}), got {X.shape}")
    act = _hidden_fn(cfg.activation)
    recorded = [X] if record else None
    a = X
    for l in range(cfg.n_hidden):
        a = act(a @ net.weights[l] + net.biases[l])
        if record:
            recorded.append(a)
    probs = softmax(a @ net.weights[-1] + net.biases[-1])
    if record:
        recorded.append(probs)
    return probs, recorded


def predict(net: Network, X) -> np.ndarray:
    probs, _ = forward_batch(net, X)
    return probs.argmax(axis=1)


def accuracy(net: Network, ds: Dataset) -> float:
    return float(np.mean(predict(net, ds.points) == ds.labels))


def loss_and_gradient(net: Network, X, labels, dropout_rng=None):
    """Mean softmax cross-entropy over a batch and its gradient.

    Gradients come back as ``(dweights, dbiases)`` mirroring the parameter
    shapes. Dropout masks are drawn from ``dropout_rng`` (Generator or seed)
    when it is provided and the config carries rates; pass None for a clean
    deterministic pass (finite-difference checks run this way).
    """
    cfg = net.config
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != cfg.input_dim:
        raise ValueError(f"expected batch of shape (n, {cfg.input_dim}), got {X.shape}")
    n = len(X)
    if n == 0:
        raise ValueError("batch is empty")
    if labels.shape != (n,):
        raise ValueError("labels must align with the batch")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError(f"label out of range [0, {cfg.n_classes})")

    rates = cfg.dropout_rates if (dropout_rng is not None and cfg.dropout_rates) else None
    rng = None
    if rates and any(r > 0 for r in rates):
        rng = np.random.default_rng(dropout_rng) if isinstance(dropout_rng, int) else dropout_rng
    act = _hidden_fn(cfg.activation)
    n_hidden = cfg.n_hidden

    # forward, caching what the backward pass needs
    feeds = []                       # what each weight matrix actually consumed
    hs = []                          # pre-dropout hidden activations
    masks = [None] * (n_hidden + 1)  # input mask, then one per hidden layer
    a = X
    if rates and rates[0] > 0:
        masks[0] = dropout_mask(rng, a.shape, rates[0])
        a = a * masks[0]
    for l in range(n_hidden):
        feeds.append(a)
        h = act(a @ net.weights[l] + net.biases[l])
        hs.append(h)
        a = h
        rate = rates[l + 1] if rates else 0.0
        if rate > 0:
            masks[l + 1] = dropout_mask(rng, a.shape, rate)
            a = a * masks[l + 1]
    feeds.append(a)
    probs = softmax(a @ net.weights[-1] + net.biases[-1])

    p_true = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(p_true, 1e-300)).mean())

    n_layers = len(net.weights)
    dweights = [None] * n_layers
    dbiases = [None] * n_layers
    dz = probs.copy()
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    for l in range(n_layers - 1, -1, -1):
        dweights[l] = feeds[l].T @ dz
        dbiases[l] = dz.sum(axis=0)
        if l == 0:
            break
        da = dz @ net.weights[l].T
        if masks[l] is not None:
            da = da * masks[l]
        dz = da * _hidden_deriv_from_act(cfg.activation, hs[l - 1])
    return loss, (dweights, dbiases)


class Adam:
    """Adam over a list of parameter arrays, updated in place."""

    def __init__(self, params, step_size=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        if step_size <= 0:
            raise ValueError("step_size must be > 0")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m_corr = 1.0 - b1 ** self.t
        v_corr = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.step_size * (m / m_corr) / (np.sqrt(v / v_corr) + self.epsilon)


def train(net: Network, train_set: Dataset, val_set: Dataset, cfg: TrainConfig) -> Network:
    """Mini-batch Adam with epoch-end validation snapshots.

    Returns the parameter snapshot with the highest validation accuracy seen
    at any epoch end (the untouched initial network is the baseline, so zero
    epochs return it unchanged). Deterministic for a fixed config: epoch
    shuffles and dropout masks all come from one generator seeded with
    ``cfg.rng_seed``.
    """
    if len(val_set) == 0:
        raise ValueError("validation set is empty")
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    current = net.copy()
    params = current.weights + current.biases
    adam = Adam(params, cfg.step_size, cfg.beta1, cfg.beta2, cfg.epsilon)
    best_net = current.copy()
    best_acc = accuracy(current, val_set)
    n = len(train_set)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, (dw, db) = loss_and_gradient(
                current, train_set.points[idx], train_set.labels[idx], dropout_rng=rng
            )
            adam.step(params, dw + db)
        val_acc = accuracy(current, val_set)
        if val_acc > best_acc:
            best_acc = val_acc
            best_net = current.copy()
    return best_net


def oversample(ds: Dataset, indices, copies: int = 2) -> Dataset:
    """Duplicate the flagged points so each appears ``copies`` times.

    Original order is preserved; duplicates are appended in ascending index
    order (training reshuffles every epoch anyway).
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    idx = np.asarray(sorted({int(i) for i in indices}), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= len(ds)):
        raise ValueError("oversample index out of range")
    if copies == 1 or idx.size == 0:
        return Dataset(ds.points.copy(), ds.labels.copy())
    extra = np.repeat(idx, copies - 1)
    return Dataset(
        np.concatenate([ds.points, ds.points[extra]]),
        np.concatenate([ds.labels, ds.labels[extra]]),
    )


def network_to_doc(net: Network) -> dict:
    """JSON-ready dict; weight matrices row-major as nested lists."""
    return {
        "config": {
            "layer_sizes": list(net.config.layer_sizes),
            "activation": net.config.activation,
            "dropout_rates": list(net.config.dropout_rates),
        },
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def network_from_doc(doc: dict) -> Network:
    cfg = NetworkConfig(
        layer_sizes=tuple(doc["config"]["layer_sizes"]),
        activation=doc["config"]["activation"],
        dropout_rates=tuple(doc["config"]["dropout_rates"]),
    )
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    return Network(cfg, weights, biases)


def save_network(net: Network, path) -> None:
    """Versioned JSON dump; float round-trips are bit-exact for finite doubles."""
    doc = {"format_version": NETWORK_FORMAT_VERSION, **network_to_doc(net)}
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_network(path) -> Network:
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != NETWORK_FORMAT_VERSION:
        raise ValueError(f"unsupported network format version {doc.get('format_version')}")
    return network_from_doc(doc)
