"""Model, loss/gradient, and optimizer-variant contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, peak_traced_bytes
from svote import learner
from svote.errors import ConfigError, ProtocolError
from svote.kernels import DTYPE
from svote.learner import HyperParams, ModelSpec


def _batch(spec, n=12, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=n)
    return X, y


class TestModelSpec:
    def test_softmax_param_count(self):
        assert ModelSpec(learner.SOFTMAX, 4, 3).param_count == 15

    def test_mlp_param_count(self):
        # (4+1)*8 + (8+1)*3 = 40 + 27
        assert ModelSpec(learner.MLP, 4, 3, hidden_dim=8).param_count == 67

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("resnet", 4, 3)
        with pytest.raises(ConfigError):
            ModelSpec(learner.MLP, 4, 3)  # missing hidden_dim
        with pytest.raises(ConfigError):
            ModelSpec(learner.SOFTMAX, 4, 1)


class TestInitParams:
    def test_deterministic(self):
        spec = ModelSpec(learner.SOFTMAX, 4, 3)
        a = learner.init_params(spec, 99)
        b = learner.init_params(spec, 99)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_values(self):
        spec = ModelSpec(learner.SOFTMAX, 4, 3)
        assert not np.array_equal(learner.init_params(spec, 1), learner.init_params(spec, 2))

    def test_length_and_range(self):
        spec = ModelSpec(learner.MLP, 4, 3, hidden_dim=8)
        w = learner.init_params(spec, 7)
        assert w.shape == (67,)
        assert np.all(np.abs(w) <= learner.INIT_SCALE)


class TestLossAndGrad:
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(learner.SOFTMAX, 6, 5), ModelSpec(learner.MLP, 6, 5, hidden_dim=4)],
    )
    def test_uniform_prediction_loss_is_log_c(self, spec):
        X, y = _batch(spec)
        loss, _ = learner.loss_and_grad(np.zeros(spec.param_count), X, y, spec)
        assert loss == pytest.approx(np.log(spec.num_classes), abs=1e-9)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(learner.SOFTMAX, 8, 4), ModelSpec(learner.MLP, 8, 4, hidden_dim=6)],
    )
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(12, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=12)
        w = rng.normal(scale=0.3, size=spec.param_count)
        _, grad = learner.loss_and_grad(w, X, y, spec)
        coords = rng.choice(spec.param_count, size=10, replace=False)
        fd = fd_gradient(w, X, y, spec, coords)
        for i, v in fd.items():
            assert abs(v - grad[i]) < 1e-4

    def test_duplicated_batch_is_invariant(self):
        spec = ModelSpec(learner.SOFTMAX, 5, 3)
        X, y = _batch(spec, n=9)
        w = np.random.default_rng(3).normal(size=spec.param_count)
        l1, g1 = learner.loss_and_grad(w, X, y, spec)
        l2, g2 = learner.loss_and_grad(w, np.vstack([X, X]), np.concatenate([y, y]), spec)
        assert l1 == pytest.approx(l2, abs=1e-12)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_dimension_mismatch_is_config_error(self):
        spec = ModelSpec(learner.SOFTMAX, 5, 3)
        X, y = _batch(spec)
        with pytest.raises(ConfigError):
            learner.loss_and_grad(np.zeros(spec.param_count), X[:, :3], y, spec)
        with pytest.raises(ConfigError):
            learner.loss_and_grad(np.zeros(4), X, y, spec)
        with pytest.raises(ConfigError):
            learner.loss_and_grad(np.zeros(spec.param_count), X[:0], y[:0], spec)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(learner.SOFTMAX, 5, 3), ModelSpec(learner.MLP, 5, 3, hidden_dim=4)],
    )
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_the_classes_is_config_error(self, spec, bad):
        # -1 would otherwise train class c-1 through negative indexing
        X, y = _batch(spec)
        y[4] = bad
        with pytest.raises(ConfigError, match="label outside"):
            learner.loss_and_grad(learner.init_params(spec, 1), X, y, spec)

    def test_loss_is_a_python_float(self):
        spec = ModelSpec(learner.MLP, 5, 3, hidden_dim=4)
        X, y = _batch(spec)
        loss, _ = learner.loss_and_grad(learner.init_params(spec, 1), X, y, spec)
        assert type(loss) is float


_DIVERGENCE_SPECS = [ModelSpec(learner.SOFTMAX, 5, 3), ModelSpec(learner.MLP, 5, 3, hidden_dim=4)]


class TestDivergence:
    """A non-finite loss stops the run with ProtocolError instead of spreading NaN models.

    numpy's floating-point warnings are silenced here: the check must fire
    whether or not the arithmetic warns on the way.
    """

    @pytest.mark.parametrize("spec", _DIVERGENCE_SPECS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, spec, bad):
        X, y = _batch(spec)
        w = learner.init_params(spec, 2)
        w[-1] = bad  # a bias of the output layer
        with np.errstate(all="ignore"), pytest.raises(ProtocolError, match="non-finite loss"):
            learner.loss_and_grad(w, X, y, spec)

    @pytest.mark.parametrize("spec", _DIVERGENCE_SPECS)
    def test_label_probability_driven_to_zero(self, spec):
        # finite weights whose logits put every label's probability below the
        # smallest double: log(0) makes the loss infinite
        X, y = _batch(spec)
        y = np.zeros_like(y)
        w = np.zeros(spec.param_count)
        b_out = learner._views(w, spec)[-1][0]  # the 1 x c output bias row
        b_out[:] = 1e4
        b_out[0] = -1e4
        with np.errstate(all="ignore"), pytest.raises(ProtocolError, match="non-finite loss"):
            learner.loss_and_grad(w, X, y, spec)

    @pytest.mark.parametrize("spec", _DIVERGENCE_SPECS)
    def test_float32_model_diverges_where_a_float64_model_would(self, spec):
        # a logit gap of 200 puts the label probability near e^-200: below
        # the smallest float32, a normal double; the loss stays finite
        X, y = _batch(spec)
        y = np.zeros_like(y)
        w = np.zeros(spec.param_count, DTYPE)
        b_out = learner._views(w, spec)[-1][0]  # the 1 x c output bias row
        b_out[:] = 100
        b_out[0] = -100
        with np.errstate(all="ignore"):
            loss, grad = learner.loss_and_grad(w, X, y, spec)
        assert loss == pytest.approx(200 + np.log(spec.num_classes - 1))
        assert grad.dtype == DTYPE and np.isfinite(grad).all()
        # training on it neither stops nor warns (warnings are errors here)
        hp = HyperParams(lr=1e-3, local_epochs=1, batch_size=4)
        trained, steps = learner.local_train(w, X, y, spec, hp, np.random.default_rng(0))
        assert steps == 3 and trained.dtype == DTYPE and np.isfinite(trained).all()

    @pytest.mark.parametrize("spec", _DIVERGENCE_SPECS)
    def test_local_train_stops_on_divergence(self, spec):
        # a step size of 1e300 overflows the weights after the first step
        X, y = _batch(spec, n=40)
        hp = HyperParams(lr=1e300, local_epochs=2, batch_size=8)
        w = learner.init_params(spec, 3)
        with np.errstate(all="ignore"), pytest.raises(ProtocolError, match="non-finite loss"):
            learner.local_train(w, X, y, spec, hp, np.random.default_rng(0))


class TestViews:
    """`_views` must view, never copy: `reshape` copies silently when it cannot make a view."""

    @pytest.mark.parametrize("spec", _DIVERGENCE_SPECS)
    @pytest.mark.parametrize("k", [None, 1, 3])  # None: one flat model
    def test_writes_through_every_view_land_in_the_models(self, spec, k):
        shape = (spec.param_count,) if k is None else (k, spec.param_count)
        w = np.zeros(shape, DTYPE)
        layout = learner._layout(spec)
        for j, (view, (_, _, rows, cols)) in enumerate(zip(learner._views(w, spec), layout)):
            assert view.shape == shape[:-1] + (rows, cols)
            assert np.shares_memory(view, w)
            view[...] = j + 1
        # each parameter's entries, in every model, hold the value written through its view
        want = np.concatenate([np.full(stop - start, j + 1, DTYPE) for j, (start, stop, _, _) in enumerate(layout)])
        np.testing.assert_array_equal(w, np.broadcast_to(want, shape))


class TestSgdStep:
    # sgd_step updates w in place, so each check steps a fresh copy
    def test_arithmetic(self):
        np.testing.assert_allclose(learner.sgd_step(np.array([1.0]), np.array([2.0]), 0.1), [0.8])

    def test_zero_grad_fixed_point(self):
        w = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(learner.sgd_step(w.copy(), np.zeros(3), 0.5), w)

    def test_zero_lr_identity(self):
        w = np.array([1.0, -2.0])
        np.testing.assert_array_equal(learner.sgd_step(w.copy(), np.array([4.0, 5.0]), 0.0), w)

    @given(st.floats(-10, 10), st.floats(0, 2))
    def test_linear_in_grad_and_lr(self, g, lr):
        w = np.array([1.5])
        one = learner.sgd_step(w.copy(), np.array([g]), lr)
        two = learner.sgd_step(w.copy(), np.array([2 * g]), lr / 2)
        np.testing.assert_allclose(one, two, atol=1e-12)

    @given(st.floats(-10, 10), st.floats(0, 2))
    def test_in_place_and_bit_equal_to_the_expression(self, g, lr):
        w = np.array([1.5, -0.25])
        grad = np.array([g, -g])
        expected = w - lr * grad
        out = learner.sgd_step(w, grad, lr)
        assert out is w
        np.testing.assert_array_equal(w, expected)


class TestProxGrad:
    def test_mu_zero_identity(self):
        g = np.array([1.0, 2.0])
        np.testing.assert_array_equal(learner.prox_grad(g, np.array([5.0, 6.0]), np.zeros(2), 0.0), g)

    def test_arithmetic(self):
        out = learner.prox_grad(np.array([0.0]), np.array([1.0]), np.array([0.0]), 0.1)
        np.testing.assert_allclose(out, [0.1])

    @given(st.floats(0, 5))
    def test_anchor_equals_w_identity(self, mu):
        g = np.array([1.0, -3.0])
        w = np.array([0.5, 0.25])
        np.testing.assert_array_equal(learner.prox_grad(g, w, w.copy(), mu), g)


class TestScaffold:
    def test_zero_variates_identity(self):
        g = np.array([1.0, 2.0])
        np.testing.assert_array_equal(learner.scaffold_grad(g, np.zeros(2), np.zeros(2)), g)

    def test_cancellation(self):
        np.testing.assert_allclose(learner.scaffold_grad(np.array([1.0]), np.array([1.0]), np.array([0.0])), [0.0])

    def test_equal_variates_identity(self):
        c = np.array([0.3, -0.7])
        g = np.array([1.0, 2.0])
        np.testing.assert_array_equal(learner.scaffold_grad(g, c, c.copy()), g)

    def test_cv_update_no_movement(self):
        local_c = np.zeros(1)
        out = learner.scaffold_update_cv(local_c, np.zeros(1), np.array([1.0]), np.array([1.0]), 0.1, 1)
        assert out is local_c
        np.testing.assert_array_equal(out, [0.0])

    def test_cv_update_arithmetic(self):
        out = learner.scaffold_update_cv(np.zeros(1), np.zeros(1), np.array([1.0]), np.array([0.9]), 0.1, 1)
        np.testing.assert_allclose(out, [1.0], atol=1e-12)

    def test_cv_update_matches_the_out_of_place_formula(self):
        # the engine refreshes a row of its variate matrix in place; the float
        # operations are those of local - global + (w_before - w_after) / (steps * lr)
        local_c, global_c, w_before, w_after = np.random.default_rng(5).normal(size=(4, 33))
        expected = local_c - global_c + (w_before - w_after) / (3 * 0.07)
        global_before = global_c.copy()
        learner.scaffold_update_cv(local_c, global_c, w_before, w_after, 0.07, 3)
        np.testing.assert_array_equal(local_c, expected)
        np.testing.assert_array_equal(global_c, global_before)

    def test_doubling_steps_halves_movement(self):
        one = learner.scaffold_update_cv(np.zeros(1), np.zeros(1), np.array([1.0]), np.array([0.5]), 0.1, 1)
        two = learner.scaffold_update_cv(np.zeros(1), np.zeros(1), np.array([1.0]), np.array([0.5]), 0.1, 2)
        np.testing.assert_allclose(one, 2 * two)


class TestPredict:
    def test_zero_weights_tie_breaks_to_class_zero(self):
        spec = ModelSpec(learner.SOFTMAX, 4, 3)
        X = np.random.default_rng(7).normal(size=(5, 4))
        np.testing.assert_array_equal(learner.predict_batch(np.zeros(spec.param_count), X, spec), 0)

    def test_dominant_logit_wins(self):
        spec = ModelSpec(learner.SOFTMAX, 4, 3)
        w = np.zeros(spec.param_count)
        b = learner._views(w, spec)[1][0]  # the 1 x c bias row
        b[2] = 5.0
        np.testing.assert_array_equal(learner.predict_batch(w, np.ones((3, 4)), spec), 2)

    def test_positive_scaling_invariance(self):
        spec = ModelSpec(learner.SOFTMAX, 4, 3)
        rng = np.random.default_rng(8)
        w = rng.normal(size=spec.param_count)
        X = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(
            learner.predict_batch(w, X, spec), learner.predict_batch(3.0 * w, X, spec)
        )

    @given(st.floats(-5, 5))
    @settings(max_examples=30)
    def test_logit_shift_invariance(self, delta):
        spec = ModelSpec(learner.SOFTMAX, 4, 3)
        rng = np.random.default_rng(9)
        w = rng.normal(size=spec.param_count)
        X = rng.normal(size=(20, 4))
        shifted = w.copy()
        b = learner._views(shifted, spec)[1][0]  # the 1 x c bias row
        b += delta
        np.testing.assert_array_equal(
            learner.predict_batch(w, X, spec), learner.predict_batch(shifted, X, spec)
        )


class TestLocalTrain:
    def test_deterministic_given_stream(self):
        spec = ModelSpec(learner.SOFTMAX, 6, 3)
        X, y = _batch(spec, n=40, seed=2)
        hp = HyperParams(lr=0.1, local_epochs=2, batch_size=16)
        w0 = learner.init_params(spec, 4)
        w1, s1 = learner.local_train(w0.copy(), X, y, spec, hp, np.random.default_rng(77))
        w2, s2 = learner.local_train(w0.copy(), X, y, spec, hp, np.random.default_rng(77))
        np.testing.assert_array_equal(w1, w2)
        assert s1 == s2 == 2 * 3  # 2 epochs x ceil(40/16) batches

    def test_partial_final_batch_kept(self):
        spec = ModelSpec(learner.SOFTMAX, 6, 3)
        X, y = _batch(spec, n=10, seed=2)
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=8)
        _, steps = learner.local_train(
            learner.init_params(spec, 4), X, y, spec, hp, np.random.default_rng(1)
        )
        assert steps == 2

    @pytest.mark.parametrize("kind", [learner.SOFTMAX, learner.MLP])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_a_label_outside_the_classes_in_one_shard_of_a_group_is_config_error(self, kind, bad):
        # the kernels gather labels unchecked, so the pass checks them once:
        # -1 would train class c-1, and c another row's entry
        spec = ModelSpec(kind, 5, 3, hidden_dim=4 if kind == learner.MLP else 0)
        X, y = _batch(spec, n=30, seed=2)
        y[17] = bad  # in the second of three shards
        models = np.stack([learner.init_params(spec, seed) for seed in range(3)])
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=4)
        with pytest.raises(ConfigError, match="label outside"):
            learner.local_train(models, X, y, spec, hp, rngs, [(0, 10), (10, 20), (20, 30)])

    def test_hyperparams_validated(self):
        with pytest.raises(ConfigError):
            HyperParams(lr=0.0)
        with pytest.raises(ConfigError):
            HyperParams(batch_size=0)
        with pytest.raises(ConfigError):
            HyperParams(prox_mu=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_hyperparams_must_be_finite(self, value):
        # NaN compares False with every bound, so a sign check alone lets it through
        with pytest.raises(ConfigError, match="finite"):
            HyperParams(lr=value)
        with pytest.raises(ConfigError, match="finite"):
            HyperParams(prox_mu=value)


# the wide-mlp benchmark model: MNIST-shaped inputs, 64 hidden units, P = 50,890
WIDE_MLP = ModelSpec(learner.MLP, 784, 10, hidden_dim=64)


class TestBuffers:
    """The buffer contract: kernels write into the caller's gradient, training copies w once."""

    @pytest.mark.parametrize(
        "spec", [ModelSpec(learner.SOFTMAX, 7, 4), ModelSpec(learner.MLP, 7, 4, hidden_dim=5)]
    )
    def test_loss_and_grad_fills_and_returns_the_buffer(self, spec):
        # in the engine's dtype: the buffer must match w's
        X, y = _batch(spec, n=11, seed=3)
        w = np.random.default_rng(4).normal(scale=0.3, size=spec.param_count).astype(DTYPE)
        loss, fresh = learner.loss_and_grad(w, X, y, spec)
        buf = np.full(spec.param_count, np.nan, dtype=DTYPE)
        loss_buf, out = learner.loss_and_grad(w, X, y, spec, buf)
        assert out is buf
        assert loss_buf == loss
        np.testing.assert_array_equal(buf, fresh)

    def test_mismatched_buffer_is_config_error(self):
        spec = ModelSpec(learner.SOFTMAX, 5, 3)
        X, y = _batch(spec)
        with pytest.raises(ConfigError):
            learner.loss_and_grad(np.zeros(spec.param_count), X, y, spec, np.empty(spec.param_count + 1))

    @pytest.mark.parametrize("method", ["plain", "fedprox", "scaffold"])
    def test_local_train_matches_the_out_of_place_step_and_leaves_w(self, method):
        # the reference recomputes every step with fresh arrays, in the
        # operation order of w - lr * direction(grad, w); FedProx anchors at
        # the starting w, and SCAFFOLD's variate refresh relies on the
        # caller's w staying untouched
        spec = ModelSpec(learner.MLP, 6, 3, hidden_dim=4)
        X, y = _batch(spec, n=40, seed=6)
        hp = HyperParams(lr=0.2, local_epochs=2, batch_size=16, prox_mu=0.3)
        w0 = learner.init_params(spec, 8)
        local_c, global_c = np.full(spec.param_count, 0.01, DTYPE), np.full(spec.param_count, -0.02, DTYPE)
        fresh = {
            "plain": lambda g, w: g,
            "fedprox": lambda g, w: g + hp.prox_mu * (w - w0),
            "scaffold": lambda g, w: g - local_c + global_c,
        }[method]
        rng = np.random.default_rng(3)
        w = w0
        for _ in range(hp.local_epochs):
            order = rng.permutation(40)
            for start in range(0, 40, hp.batch_size):
                idx = order[start : start + hp.batch_size]
                _, g = learner.loss_and_grad(w, X[idx], y[idx], spec)
                w = w - hp.lr * fresh(g, w)
        rule = {"plain": {}, "fedprox": {"prox": True}, "scaffold": {"variates": (local_c, global_c)}}[method]
        w_in = w0.copy()
        trained, steps = learner.local_train(w_in, X, y, spec, hp, np.random.default_rng(3), **rule)
        np.testing.assert_array_equal(trained, w)
        np.testing.assert_array_equal(w_in, w0)
        assert steps == 6 and not np.shares_memory(trained, w_in)

    def test_wide_mlp_training_allocates_no_per_step_model_buffer(self):
        # 10 steps on features in the engine's dtype, as its shards hold them;
        # the copy of w and one gradient buffer are 2 P floats, the minibatch
        # gathers and activations add under a model
        spec = WIDE_MLP
        X, y = _batch(spec, n=320, seed=1)
        X = X.astype(DTYPE)
        w = learner.init_params(spec, 2)
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=32)
        peak = peak_traced_bytes(lambda: learner.local_train(w, X, y, spec, hp, np.random.default_rng(0)))
        assert peak < 3 * spec.param_count * DTYPE.itemsize

    def test_transforms_write_into_the_given_buffer(self):
        rng = np.random.default_rng(12)
        g, w, anchor, local_c, global_c = rng.normal(size=(5, 9))
        out = np.empty(9)
        assert learner.prox_grad(g, w, anchor, 0.7, out=out) is out
        np.testing.assert_array_equal(out, g + 0.7 * (w - anchor))
        expected = g - local_c + global_c
        assert learner.scaffold_grad(g, local_c, global_c, out=g) is g
        np.testing.assert_array_equal(g, expected)
