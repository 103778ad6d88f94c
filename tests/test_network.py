"""Network module tests.

The two oracles live at the top: a scalar-loop forward pass and a central
finite-difference gradient. Everything vectorized is checked against them.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pathens.network import (
    Adam,
    Dataset,
    Network,
    NetworkConfig,
    TrainConfig,
    accuracy,
    dropout_mask,
    forward_batch,
    init_network,
    load_network,
    loss_and_gradient,
    oversample,
    predict,
    save_network,
    sigmoid,
    softmax,
    train,
)


def forward_by_hand(net, x):
    """Scalar-loop forward pass, written independently of the vectorized one."""
    a = [float(v) for v in x]
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = []
        for j in range(W.shape[1]):
            s = float(b[j])
            for i in range(W.shape[0]):
                s += a[i] * float(W[i, j])
            z.append(s)
        if l < len(net.weights) - 1:
            if net.config.activation == "sigmoid":
                a = [1.0 / (1.0 + math.exp(-v)) for v in z]
            else:
                a = [max(0.0, v) for v in z]
        else:
            m = max(z)
            e = [math.exp(v - m) for v in z]
            tot = sum(e)
            a = [v / tot for v in e]
    return np.array(a)


def fd_gradient(net, X, labels, h=1e-6):
    """Central-difference gradient of the mean cross-entropy loss."""

    def loss_at(candidate):
        val, _ = loss_and_gradient(candidate, X, labels)
        return val

    dweights, dbiases = [], []
    for kind in ("weights", "biases"):
        for l in range(len(net.weights)):
            base = getattr(net, kind)[l]
            grad = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                probe = net.copy()
                getattr(probe, kind)[l][idx] = base[idx] + h
                up = loss_at(probe)
                getattr(probe, kind)[l][idx] = base[idx] - h
                down = loss_at(probe)
                grad[idx] = (up - down) / (2.0 * h)
            (dweights if kind == "weights" else dbiases).append(grad)
    return dweights, dbiases


def small_net(sizes, activation, seed, dropout=()):
    cfg = NetworkConfig(tuple(sizes), activation, tuple(dropout))
    return init_network(cfg, seed)


# ---------------------------------------------------------------- activations


def test_sigmoid_matches_definition_and_is_stable():
    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-15)
    extreme = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.isfinite(extreme).all()
    assert extreme[0] == 0.0 and extreme[1] == 1.0


def test_softmax_rows_are_distributions_even_for_huge_logits():
    z = np.array([[1000.0, 0.0, -1000.0], [3.0, 1.0, 0.2]])
    p = softmax(z)
    assert np.isfinite(p).all()
    assert (p >= 0).all()
    assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=1e-15)


# -------------------------------------------------------------------- forward


def test_forward_matches_scalar_oracle_across_shapes_and_activations():
    rng = np.random.default_rng(41)
    for sizes in ((3, 4, 2), (5, 7, 6, 3), (2, 3, 3, 3, 2)):
        for activation in ("sigmoid", "relu"):
            net = small_net(sizes, activation, int(rng.integers(1 << 30)))
            for _ in range(20):
                x = rng.normal(size=sizes[0])
                got, _ = forward_batch(net, x[None, :])
                assert_allclose(got[0], forward_by_hand(net, x), rtol=1e-12, atol=1e-15)


def test_forward_batch_agrees_with_single_point_forward():
    rng = np.random.default_rng(7)
    net = small_net((4, 5, 3), "sigmoid", 3)
    X = rng.normal(size=(9, 4))
    probs, _ = forward_batch(net, X)
    for i in range(len(X)):
        single, _ = forward_batch(net, X[i:i + 1])
        assert_allclose(probs[i], single[0], rtol=1e-15)


def test_recorded_trace_holds_input_hiddens_and_output():
    rng = np.random.default_rng(11)
    net = small_net((4, 6, 5, 3), "relu", 5)
    X = rng.normal(size=(3, 4))
    probs, acts = forward_batch(net, X, record=True)
    assert [a.shape for a in acts] == [(3, 4), (3, 6), (3, 5), (3, 3)]
    assert_array_equal(acts[0], X)
    assert_allclose(acts[-1], probs, rtol=1e-15)
    # hidden activations are recorded after the nonlinearity
    assert (acts[1] >= 0).all()
    assert forward_batch(net, X)[1] is None


def test_forward_rejects_wrong_input_width():
    net = small_net((4, 5, 3), "sigmoid", 0)
    with pytest.raises(ValueError):
        forward_batch(net, np.zeros(4))
    with pytest.raises(ValueError):
        forward_batch(net, np.zeros((2, 5)))


def test_eval_mode_ignores_dropout_config():
    rng = np.random.default_rng(2)
    net = small_net((6, 8, 3), "sigmoid", 1, dropout=(0.4, 0.4))
    X = rng.normal(size=(5, 6))
    a, _ = forward_batch(net, X)
    b, _ = forward_batch(net, X)
    assert_array_equal(a, b)
    clean = Network(NetworkConfig(net.config.layer_sizes, "sigmoid"), net.weights, net.biases)
    assert_array_equal(a, forward_batch(clean, X)[0])


# ----------------------------------------------------------------- init


def test_init_is_deterministic_and_xavier_bounded():
    cfg = NetworkConfig((10, 20, 5), "relu")
    a = init_network(cfg, 123)
    b = init_network(cfg, 123)
    c = init_network(cfg, 124)
    for l in range(2):
        assert_array_equal(a.weights[l], b.weights[l])
        assert_array_equal(a.biases[l], np.zeros(cfg.layer_sizes[l + 1]))
        fan_in, fan_out = cfg.layer_sizes[l], cfg.layer_sizes[l + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(a.weights[l]).max() <= limit
    assert any(not np.array_equal(a.weights[l], c.weights[l]) for l in range(2))


def test_parameter_count_for_the_reference_architecture():
    # 784*100+100 + 3*(100*100+100) + 100*10+10 = 78500 + 30300 + 1010
    cfg = NetworkConfig((784, 100, 100, 100, 100, 10), "sigmoid")
    net = init_network(cfg, 0)
    assert sum(p.size for p in net.weights + net.biases) == 109810


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig((4, 2))  # no hidden layer
    with pytest.raises(ValueError):
        NetworkConfig((4, 0, 2))
    with pytest.raises(ValueError):
        NetworkConfig((4, 3, 2), "tanh")
    with pytest.raises(ValueError):
        NetworkConfig((4, 3, 2), "sigmoid", (0.5,))  # needs 2 rates
    with pytest.raises(ValueError):
        NetworkConfig((4, 3, 2), "sigmoid", (0.5, 1.0))  # rate must stay < 1


def test_network_rejects_mismatched_or_non_finite_parameters():
    cfg = NetworkConfig((3, 4, 2), "sigmoid")
    good = init_network(cfg, 0)
    with pytest.raises(ValueError):
        Network(cfg, [w.T for w in good.weights], good.biases)
    bad = good.copy()
    bad.weights[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        Network(cfg, bad.weights, bad.biases)


# ------------------------------------------------------------------- dropout


def test_dropout_mask_values_and_expectation():
    rng = np.random.default_rng(99)
    rate = 0.3
    mask = dropout_mask(rng, (100, 100), rate)
    keep = 1.0 / (1.0 - rate)
    assert set(np.unique(mask)) <= {0.0, keep}
    # inverted dropout keeps the expectation at 1
    assert abs(mask.mean() - 1.0) < 0.02
    zero_frac = float((mask == 0.0).mean())
    assert abs(zero_frac - rate) < 0.02


def test_dropout_mask_rejects_degenerate_rates():
    rng = np.random.default_rng(0)
    for rate in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            dropout_mask(rng, (3,), rate)


# ------------------------------------------------------------------ gradient


def test_loss_matches_hand_computed_cross_entropy():
    rng = np.random.default_rng(5)
    net = small_net((3, 4, 3), "sigmoid", 8)
    X = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    loss, _ = loss_and_gradient(net, X, labels)
    probs, _ = forward_batch(net, X)
    expected = -np.mean([math.log(probs[i, labels[i]]) for i in range(6)])
    assert_allclose(loss, expected, rtol=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    for sizes, activation in (((3, 4, 2), "sigmoid"), ((4, 5, 3, 3), "relu")):
        net = small_net(sizes, activation, int(rng.integers(1 << 30)))
        X = rng.normal(size=(5, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=5)
        _, (dw, db) = loss_and_gradient(net, X, labels)
        fw, fb = fd_gradient(net, X, labels)
        for got, want in zip(dw + db, fw + fb):
            assert_allclose(got, want, rtol=1e-4, atol=1e-8)


def test_gradient_shapes_mirror_parameters():
    net = small_net((4, 6, 5, 2), "sigmoid", 1)
    X = np.random.default_rng(0).normal(size=(3, 4))
    _, (dw, db) = loss_and_gradient(net, X, np.array([0, 1, 1]))
    for g, w in zip(dw, net.weights):
        assert g.shape == w.shape
    for g, b in zip(db, net.biases):
        assert g.shape == b.shape


def test_gradient_with_dropout_is_seed_deterministic():
    net = small_net((6, 8, 3), "sigmoid", 2, dropout=(0.3, 0.3))
    X = np.random.default_rng(1).normal(size=(10, 6))
    labels = np.zeros(10, dtype=int)
    _, (dw_a, _) = loss_and_gradient(net, X, labels, dropout_rng=7)
    _, (dw_b, _) = loss_and_gradient(net, X, labels, dropout_rng=7)
    _, (dw_clean, _) = loss_and_gradient(net, X, labels)
    assert_array_equal(dw_a[0], dw_b[0])
    assert not np.array_equal(dw_a[0], dw_clean[0])


def test_gradient_input_validation():
    net = small_net((3, 4, 2), "sigmoid", 0)
    X = np.zeros((2, 3))
    with pytest.raises(ValueError):
        loss_and_gradient(net, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        loss_and_gradient(net, X, np.array([0, 2]))  # label out of range
    with pytest.raises(ValueError):
        loss_and_gradient(net, X, np.array([0]))


# ---------------------------------------------------------------------- adam


def test_adam_constant_gradient_trace():
    """With a constant gradient the bias-corrected moments equal g and g^2,
    so every step moves by exactly lr * g / (|g| + eps)."""
    theta = np.array([1.0])
    opt = Adam([theta], step_size=0.1)
    g = np.array([2.0])
    delta = 0.1 * 2.0 / (2.0 + 1e-8)
    for t in (1, 2, 3):
        opt.step([theta], [g])
        assert_allclose(theta[0], 1.0 - t * delta, rtol=0, atol=1e-12)
    assert_allclose(theta[0], 0.7000000015, rtol=0, atol=1e-9)


def test_adam_updates_in_place_and_counts_steps():
    p = np.ones((2, 2))
    ident = id(p)
    opt = Adam([p], step_size=0.5)
    opt.step([p], [np.ones((2, 2))])
    assert id(p) == ident
    assert opt.t == 1
    assert (p < 1.0).all()


def test_adam_rejects_bad_hyperparameters():
    with pytest.raises(ValueError):
        Adam([np.zeros(1)], step_size=0.0)
    with pytest.raises(ValueError):
        Adam([np.zeros(1)], beta1=1.0)


# --------------------------------------------------------------------- train


def xor_data(reps):
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    return Dataset(np.tile(pts, (reps, 1)), np.tile(labels, reps))


def test_train_solves_xor():
    train_set = xor_data(16)
    val_set = xor_data(1)
    net = small_net((2, 8, 2), "relu", 3)
    cfg = TrainConfig(epochs=200, batch_size=16, step_size=0.01, rng_seed=0)
    fitted = train(net, train_set, val_set, cfg)
    assert accuracy(fitted, val_set) == 1.0
    # the input network is untouched
    assert accuracy(net, val_set) < 1.0


def test_train_zero_epochs_returns_an_equal_copy():
    net = small_net((2, 4, 2), "sigmoid", 1)
    ds = xor_data(4)
    out = train(net, ds, ds, TrainConfig(epochs=0, batch_size=2))
    for a, b in zip(out.weights + out.biases, net.weights + net.biases):
        assert_array_equal(a, b)
    out.weights[0][0, 0] += 1.0
    assert out.weights[0][0, 0] != net.weights[0][0, 0]


def test_train_keeps_the_best_validation_snapshot():
    # the initial network is already perfect on this validation set, so no
    # epoch can strictly beat it and training must hand back the baseline
    cfg = NetworkConfig((3, 4, 2), "sigmoid")
    net = init_network(cfg, 0)
    net.biases[-1][:] = [5.0, 0.0]
    net.weights[-1][:] = 0.0
    rng = np.random.default_rng(4)
    train_set = Dataset(rng.normal(size=(32, 3)), rng.integers(0, 2, size=32))
    val_set = Dataset(rng.normal(size=(8, 3)), np.zeros(8, dtype=int))
    fitted = train(net, train_set, val_set, TrainConfig(epochs=5, batch_size=8))
    for a, b in zip(fitted.weights + fitted.biases, net.weights + net.biases):
        assert_array_equal(a, b)


def test_train_is_seed_deterministic():
    ds = xor_data(8)
    net = small_net((2, 6, 2), "sigmoid", 2, dropout=(0.1, 0.2))
    cfg = TrainConfig(epochs=5, batch_size=4, step_size=0.05, rng_seed=9)
    a = train(net, ds, ds, cfg)
    b = train(net, ds, ds, cfg)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert_array_equal(wa, wb)
    other = train(net, ds, ds, TrainConfig(epochs=5, batch_size=4, step_size=0.05, rng_seed=10))
    assert any(
        not np.array_equal(wa, wo)
        for wa, wo in zip(a.weights + a.biases, other.weights + other.biases)
    )


def test_train_rejects_empty_sets():
    net = small_net((2, 4, 2), "sigmoid", 1)
    ds = xor_data(2)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        train(net, empty, ds, TrainConfig(epochs=1, batch_size=2))
    with pytest.raises(ValueError):
        train(net, ds, empty, TrainConfig(epochs=1, batch_size=2))


# ---------------------------------------------------------------- oversample


def test_oversample_appends_duplicates_for_flagged_points():
    ds = Dataset(np.arange(12, dtype=float).reshape(6, 2), np.arange(6))
    out = oversample(ds, [4, 1, 4], copies=3)  # repeated flags collapse
    assert len(out) == 6 + 2 * 2
    assert_array_equal(out.points[:6], ds.points)
    assert_array_equal(out.labels[:6], ds.labels)
    for i in (1, 4):
        matches = (out.points == ds.points[i]).all(axis=1).sum()
        assert matches == 3
    for i in (0, 2, 3, 5):
        matches = (out.points == ds.points[i]).all(axis=1).sum()
        assert matches == 1


def test_oversample_copies_one_is_identity():
    ds = Dataset(np.ones((3, 2)), np.array([0, 1, 0]))
    out = oversample(ds, [0, 2], copies=1)
    assert len(out) == 3
    assert_array_equal(out.points, ds.points)


def test_oversample_validates_inputs():
    ds = Dataset(np.ones((3, 2)), np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        oversample(ds, [3], copies=2)
    with pytest.raises(ValueError):
        oversample(ds, [0], copies=0)


# --------------------------------------------------------------- persistence


def test_save_load_round_trip_is_bit_exact(tmp_path):
    net = small_net((3, 5, 4, 2), "relu", 77, dropout=(0.1, 0.2, 0.3))
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.config == net.config
    for a, b in zip(back.weights + back.biases, net.weights + net.biases):
        assert_array_equal(a, b)


def test_load_rejects_unknown_format_version(tmp_path):
    net = small_net((3, 4, 2), "sigmoid", 0)
    path = tmp_path / "net.json"
    save_network(net, path)
    import json

    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version"):
        load_network(path)


# ------------------------------------------------------------------- dataset


def test_dataset_subset_and_validation():
    ds = Dataset(np.arange(8, dtype=float).reshape(4, 2), np.array([0, 1, 2, 3]))
    sub = ds.subset([2, 0])
    assert_array_equal(sub.points, [[4.0, 5.0], [0.0, 1.0]])
    assert_array_equal(sub.labels, [2, 0])
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int))


def test_predict_and_accuracy_on_a_rigged_net():
    cfg = NetworkConfig((2, 3, 2), "sigmoid")
    net = init_network(cfg, 0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = [0.0, 10.0]  # always predicts class 1
    ds = Dataset(np.zeros((4, 2)), np.array([1, 1, 0, 1]))
    assert_array_equal(predict(net, ds.points), [1, 1, 1, 1])
    assert accuracy(net, ds) == 0.75
