import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dropout_mask
from sentihier.errors import SentihierError
from sentihier.textprep import Document
from sentihier.layers import (
    ConvLayer,
    DenseLayer,
    LstmCell,
    SoftmaxHead,
    linear_param_grads,
    sentence_matrix,
    softmax,
)

EPS = 1e-5
RTOL = 1e-4
SMALL_INTS = st.integers(-1, 1).map(float)


def build(cls, *dims, rng=None):
    """A layer of class `cls` over new arrays, started as the model starts
    its own: Glorot-uniform weights drawn from rng (zeros with no rng), zero
    biases, and 1.0 on an LSTM's forget gates. dims are (f, F, k) for a
    ConvLayer, (m, H) for an LstmCell and (out, in) for the others."""
    def weights(fan_out, fan_in):
        if rng is None:
            return np.zeros((fan_out, fan_in))
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    if cls is ConvLayer:
        f, F, k = dims
        return ConvLayer(f, weights(F, f * k), np.zeros(F))
    if cls is LstmCell:
        m, H = dims
        return LstmCell(weights(4 * H, m), weights(4 * H, H),
                        np.repeat([0.0, 1.0, 0.0, 0.0], H))  # gate blocks i, f, g, o
    out, n_in = dims
    return cls(weights(out, n_in), np.zeros(out))


def fd_grad(loss_fn, array, rng, n_coords=100):
    """Central finite differences over sampled coordinates of one array."""
    flat = array.reshape(-1)
    coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
    out = {}
    for i in coords:
        orig = flat[i]
        flat[i] = orig + EPS
        lp = loss_fn()
        flat[i] = orig - EPS
        lm = loss_fn()
        flat[i] = orig
        out[int(i)] = (lp - lm) / (2 * EPS)
    return out


def assert_matches_fd(analytic, fd_by_coord):
    flat = analytic.reshape(-1)
    for i, fd in fd_by_coord.items():
        denom = max(abs(fd), abs(flat[i]), 1e-8)
        assert abs(fd - flat[i]) / denom <= RTOL


def linear_grads(layer, grad_pre, inputs):
    """(grad_weights, grad_bias) of a dense layer or softmax head."""
    grad_w, grad_b = np.empty_like(layer.weights), np.empty_like(layer.bias)
    linear_param_grads(grad_pre, inputs, grad_w, grad_b)
    return grad_w, grad_b


def lstm_param_grads(cell, dz, x_m, h_m):
    """(grad_W, grad_U, grad_b) of gate gradients dz, formed as the model
    forms them: dz paired with the masked inputs x_m and previous states h_m."""
    grad_W, grad_b = np.empty_like(cell.input_weights), np.empty_like(cell.bias)
    linear_param_grads(dz, x_m, grad_W, grad_b)
    return grad_W, dz.T @ h_m, grad_b


def projected(layer, emb, sentences):
    """(ids, rows, starts, table) of one forward call of `layer` over
    `sentences` (token indices into embedding matrix emb), built as the
    model's forward builds them: ids are the distinct tokens, ascending."""
    tokens = np.fromiter((t for sent in sentences for t in sent), dtype=np.intp)
    ids, distinct = np.unique(tokens, return_inverse=True)
    rows, starts = sentence_matrix(sentences, distinct, layer.filter_width)
    return ids, rows, starts, layer.project(emb[ids])


def pooled(layer, emb, tokens):
    """(features, argmax) of one sentence of token indices into emb."""
    _, rows, starts, table = projected(layer, emb, [tokens])
    feats, argmax = layer.forward(rows, starts, table, first_max=True)
    return feats[0], argmax[0]  # a lone sentence starts at row 0


def pooled_matrix(layer, s):
    """(features, argmax) of a sentence matrix: row i of s is token i."""
    return pooled(layer, s, range(len(s)))


def window_oracle(filters, bias, emb, tokens, f):
    """(features, argmax) by multiplying every zero-padded window directly."""
    k = emb.shape[1]
    s = np.vstack([emb[list(tokens)], np.zeros((max(f - len(tokens), 0), k))])
    pre = np.array([filters @ s[p : p + f].reshape(-1) + bias
                    for p in range(len(s) - f + 1)])
    act = np.maximum(pre, 0.0)
    argmax = np.array([int(np.flatnonzero(col == col.max())[0]) for col in act.T])
    return act.max(axis=0), argmax


def window_pre(layer, s):
    """(P, F) pre-activations of every window of s, computed directly."""
    f = layer.filter_width
    windows = [s[p : p + f].reshape(-1) for p in range(len(s) - f + 1)]
    return np.array(windows) @ layer.filters.T + layer.bias


def conv_param_grads(layer, s, argmax, gated):
    """(grad_filters, grad_bias) of one sentence matrix with no padding rows:
    row i of s is token i, table row 1 + i; gated is its one-row stack (1, F)."""
    grad_f, grad_b = np.empty_like(layer.filters), np.empty_like(layer.bias)
    layer.param_grads(s, np.arange(len(s)), np.arange(1, 1 + len(s)), argmax[None],
                      gated, grad_f, grad_b)
    return grad_f, grad_b


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros((1, 3))), np.ones((1, 3)) / 3, atol=1e-15)

    def test_direct_evaluation(self):
        e = np.exp([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(np.array([[1.0, 2.0, 3.0]])), e / e.sum(),
                                   rtol=1e-14)

    def test_one_softmax_per_row(self):
        rows = np.array([[1.0, 2.0, 3.0], [700.0, -700.0, 0.0]])
        out = softmax(rows)
        for row, got in zip(rows, out):
            np.testing.assert_array_equal(got, softmax(row[None])[0])

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=20),
           st.floats(-1e8, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        logits = np.array([values])
        out = softmax(logits)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0) & (out <= 1 + 1e-12))
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(logits + shift)
        # exact in real arithmetic; in float64 the rounding error of the
        # shifted logits grows with the shift's magnitude
        tol = 1e-12 + abs(shift) * 1e-14
        assert np.max(np.abs(shifted - out)) <= tol

    def test_extreme_inputs_stay_finite(self):
        out = softmax(np.array([[700.0, -700.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12


class TestRelu:
    def test_subgradient_zero_at_zero(self):
        # DenseLayer.backward gates by relu's subgradient, 0 at exactly 0.
        layer = build(DenseLayer, 3, 1)
        layer.weights[:] = 0.0
        layer.bias[:] = [-1.0, 0.0, 2.0]
        _, pre = layer.forward(np.ones((1, 1)))
        np.testing.assert_array_equal(layer.backward(np.ones((1, 3)), pre)[1],
                                      [[0.0, 0.0, 1.0]])


class TestSentenceMatrix:
    def test_shape(self):
        emb = np.arange(40, dtype=float).reshape(10, 4)
        tokens = [2, 3, 4, 5, 6, 7, 8]
        ids, rows, starts, _ = projected(build(ConvLayer, 5, 3, 4), emb, [tokens])
        assert rows.shape == (7,)
        np.testing.assert_array_equal(starts, [0])
        np.testing.assert_array_equal(ids[rows - 1], tokens)

    def test_padding(self):
        emb = np.ones((6, 4))
        layer = build(ConvLayer, 5, 3, 4, rng=np.random.default_rng(0))
        _, rows, _, table = projected(layer, emb, [[2, 3]])
        assert rows.shape == (5,)
        np.testing.assert_array_equal(rows[2:], [0, 0, 0])
        np.testing.assert_array_equal(table[:, rows[2:]], np.zeros((5, 3, 3)))

    def test_sentences_stack_each_padded_to_min_rows(self):
        emb = np.arange(40, dtype=float).reshape(10, 4)
        sentences = [(2, 3, 4, 5), (6,), (7, 2, 8)]
        ids, rows, starts, _ = projected(build(ConvLayer, 3, 3, 4), emb, sentences)
        np.testing.assert_array_equal(starts, [0, 4, 7])
        np.testing.assert_array_equal(rows[[5, 6]], [0, 0])
        np.testing.assert_array_equal(ids[np.delete(rows, [5, 6]) - 1],
                                      [2, 3, 4, 5, 6, 7, 2, 8])

    def test_all_oov_is_zero_matrix(self):
        emb = np.ones((6, 4))
        emb[0] = 0.0
        layer = build(ConvLayer, 3, 3, 4, rng=np.random.default_rng(0))
        _, rows, _, table = projected(layer, emb, [[0, 0, 0]])
        np.testing.assert_array_equal(table[:, rows], np.zeros((3, 3, 3)))


class TestConvMaxpool:
    def make(self, rng, f=2, F=3, k=4):
        return build(ConvLayer, f, F, k, rng=rng)

    def test_zero_input_zero_bias(self, rng):
        layer = self.make(rng)
        feats, _ = pooled_matrix(layer, np.zeros((5, 4)))
        np.testing.assert_array_equal(feats, np.zeros(3))

    def test_zero_input_bias_passthrough(self, rng):
        layer = self.make(rng)
        layer.bias[:] = [0.5, 0.0, 2.0]
        feats, _ = pooled_matrix(layer, np.zeros((5, 4)))
        np.testing.assert_array_equal(feats, [0.5, 0.0, 2.0])

    def test_exhaustive_window_oracle(self, rng):
        # 1 filter, f=2, k=1: windows over column [1,3,2] are 1+3=4 and 3+2=5.
        layer = build(ConvLayer, 2, 1, 1, rng=rng)
        layer.filters[:] = [[1.0, 1.0]]
        layer.bias[:] = 0.0
        feats, argmax = pooled_matrix(layer, np.array([[1.0], [3.0], [2.0]]))
        assert feats[0] == 5.0
        assert argmax[0] == 1

    def test_argmax_tie_breaks_to_smallest_position(self, rng):
        layer = build(ConvLayer, 2, 1, 1, rng=rng)
        layer.filters[:] = [[1.0, 1.0]]
        layer.bias[:] = 0.0
        _, argmax = pooled_matrix(layer, np.array([[2.0], [2.0], [2.0]]))
        assert argmax[0] == 0

    def test_zero_upstream_gradient(self, rng):
        layer = self.make(rng)
        s = rng.normal(size=(6, 4))
        feats, argmax = pooled_matrix(layer, s)
        gated = layer.backward(np.zeros((1, 3)), feats[None])
        grad_f, grad_b = conv_param_grads(layer, s, argmax, gated)
        assert not gated.any() and not grad_f.any() and not grad_b.any()

    @given(arrays(np.float64, (3, 4), elements=SMALL_INTS),
           arrays(np.float64, 3, elements=SMALL_INTS),
           arrays(np.float64, st.tuples(st.integers(2, 6), st.just(2)), elements=SMALL_INTS))
    # Every window's pre-activation is exactly 0, so every window ties.
    @example(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 2)))
    # Tied windows whose pre-activations are exactly 0, 1 and -1.
    @example(np.ones((3, 4)), np.array([-4.0, -3.0, -5.0]), np.ones((3, 2)))
    @settings(max_examples=300, deadline=None)
    def test_gate_from_features_equals_gate_from_pre(self, filters, bias, s):
        # Small integers keep every pre-activation exact, so exact zeros and
        # tied windows are common.
        layer = build(ConvLayer, 2, 3, 2)
        layer.filters[:] = filters
        layer.bias[:] = bias
        feats, argmax = pooled_matrix(layer, s)
        gate = window_pre(layer, s)[argmax, np.arange(3)] > 0
        np.testing.assert_array_equal(feats > 0, gate)
        np.testing.assert_array_equal(layer.backward(np.ones((1, 3)), feats[None]), gate[None])

    def test_grad_bias_equals_gated_upstream(self, rng):
        layer = self.make(rng)
        s = rng.normal(size=(6, 4))
        feats, argmax = pooled_matrix(layer, s)
        g = rng.normal(size=(1, 3))
        grad_b = layer.backward(g, feats[None])
        gate = window_pre(layer, s)[argmax, np.arange(3)] > 0
        np.testing.assert_array_equal(grad_b, np.where(gate, g, 0.0))

    def test_gradients_match_finite_differences(self, rng):
        layer = build(ConvLayer, 2, 3, 4, rng=rng)
        s = rng.normal(size=(6, 4))
        weights = rng.normal(size=(1, 3))

        def loss_fn():
            feats, _ = pooled_matrix(layer, s)
            return float(weights[0] @ feats)

        feats, argmax = pooled_matrix(layer, s)
        grad_f, grad_b = conv_param_grads(layer, s, argmax, layer.backward(weights, feats[None]))
        assert_matches_fd(grad_f, fd_grad(loss_fn, layer.filters, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, layer.bias, rng))

    def test_param_grads_over_a_batch_match_finite_differences(self, rng):
        # Three sentences sharing tokens; the last is shorter than the filter
        # width, so its windows reach into sentence_matrix's zero padding.
        f, F, k = 3, 4, 5
        layer = build(ConvLayer, f, F, k, rng=rng)
        layer.bias[:] = rng.normal(scale=0.1, size=F)
        emb = rng.normal(size=(7, k))
        sentences = [(2, 3, 4, 3, 5), (5, 2, 6, 2), (3, 6)]
        weights = rng.normal(size=(3, F))

        def loss_fn():
            return sum(float(w @ pooled(layer, emb, t)[0]) for w, t in zip(weights, sentences))

        # Row 0 of the table is the zero row that pads; token t is row 1 + used.index(t).
        used = sorted({t for sent in sentences for t in sent})
        stacked, windows = [], np.empty((3, F), dtype=np.intp)
        gated = np.empty((3, F))
        for s_no, (w, tokens) in enumerate(zip(weights, sentences)):
            feats, argmax = pooled(layer, emb, tokens)
            gated[s_no] = layer.backward(w[None], feats[None])[0]
            windows[s_no] = len(stacked) + argmax
            stacked += [1 + used.index(t) for t in tokens] + [0] * (f - len(tokens))
        rows = np.array(stacked)
        assert (rows[windows[:, :, None] + np.arange(f)] == 0).any()
        grad_f, grad_b = np.empty_like(layer.filters), np.empty_like(layer.bias)
        layer.param_grads(emb, np.array(used), rows, windows, gated, grad_f, grad_b)
        assert_matches_fd(grad_f, fd_grad(loss_fn, layer.filters, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, layer.bias, rng))

    def test_appending_zero_rows_never_decreases_features(self, rng):
        layer = self.make(rng)
        layer.bias[:] = np.abs(layer.bias)
        s = rng.normal(size=(4, 4))
        feats, _ = pooled_matrix(layer, s)
        padded, _ = pooled_matrix(layer, np.vstack([s, np.zeros((3, 4))]))
        assert np.all(padded >= feats - 1e-15)
        # When every max window excludes padding, features are unchanged.
        big = rng.normal(size=(4, 4)) + 10.0
        f1, _ = pooled_matrix(layer, big)
        f2, argmax2 = pooled_matrix(layer, np.vstack([big, np.zeros((2, 4))]))
        if np.all(argmax2 <= 2):
            np.testing.assert_array_equal(f1, f2)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_the_exhaustive_window_oracle(self, f, F, k, data):
        # One forward call over a batch of sentences of 1 to 3f tokens.
        # Small-integer filters and vectors keep every pre-activation exact;
        # zero filters and sentences of one repeated token force tied windows.
        V = 6
        layer = build(ConvLayer, f, F, k)
        ints = st.integers(-2, 2).map(float)
        layer.filters[:] = data.draw(arrays(np.float64, layer.filters.shape, elements=ints))
        layer.filters[data.draw(st.lists(st.booleans(), min_size=F, max_size=F))] = 0.0
        layer.bias[:] = data.draw(arrays(np.float64, F, elements=ints))
        emb = data.draw(arrays(np.float64, (V, k), elements=ints))
        token = st.integers(0, V - 1)
        sentence = st.one_of(
            st.lists(token, min_size=1, max_size=3 * f),
            st.builds(lambda t, n: [t] * n, token, st.integers(1, 3 * f)))
        sentences = data.draw(st.lists(sentence, min_size=1, max_size=6))
        _, rows, starts, table = projected(layer, emb, sentences)
        feats, windows = layer.forward(rows, starts, table, first_max=True)
        np.testing.assert_array_equal(layer.forward(rows, starts, table)[0], feats)
        for s, sent in enumerate(sentences):
            want_feats, want_argmax = window_oracle(layer.filters, layer.bias, emb, sent, f)
            np.testing.assert_array_equal(feats[s], want_feats)
            np.testing.assert_array_equal(windows[s] - starts[s], want_argmax)

    def test_projection_holds_each_distinct_token_once(self, rng):
        layer, emb = build(ConvLayer, 2, 3, 4, rng=rng), rng.normal(size=(9, 4))
        ids, rows, _, table = projected(layer, emb, [[5, 3, 5], [8, 3]])
        np.testing.assert_array_equal(ids, [3, 5, 8])
        np.testing.assert_array_equal(rows, [2, 1, 2, 3, 1])
        assert table.shape == (2, 4, 3)
        np.testing.assert_array_equal(table[:, 0], np.zeros((2, 3)))
        for o, filters in enumerate(np.split(layer.filters, 2, axis=1)):
            np.testing.assert_allclose(table[o, 1:], emb[ids] @ filters.T,
                                       rtol=1e-12, atol=1e-15)


class TestDenseRelu:
    def test_identity_weights_inference(self, rng):
        layer = build(DenseLayer, 3, 3, rng=rng)
        layer.weights[:] = np.eye(3)
        layer.bias[:] = 0.0
        x = np.array([[-1.0, 0.5, 2.0]])
        out, _ = layer.forward(x)
        np.testing.assert_array_equal(out, [[0.0, 0.5, 2.0]])

    def test_full_dropout_degenerate(self, rng):
        # An input under an all-zero mask, as the model masks it: only the
        # bias reaches the relu.
        layer = build(DenseLayer, 2, 3, rng=rng)
        layer.bias[:] = [1.0, -1.0]
        out, _ = layer.forward(np.ones((1, 3)) * np.zeros((1, 3)))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_gradients_match_finite_differences(self, rng):
        layer = build(DenseLayer, 3, 4, rng=rng)
        x = rng.normal(size=(1, 4))
        weights = rng.normal(size=(1, 3))

        def loss_fn():
            out, _ = layer.forward(x)
            return float(np.sum(weights * out))

        out, pre = layer.forward(x)
        grad_x, grad_pre = layer.backward(weights, pre)
        grad_w, grad_b = linear_grads(layer, grad_pre, x)
        assert_matches_fd(grad_x, fd_grad(loss_fn, x, rng))
        assert_matches_fd(grad_w, fd_grad(loss_fn, layer.weights, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, layer.bias, rng))

    def test_param_grads_over_a_batch_match_finite_differences(self, rng):
        layer = build(DenseLayer, 3, 4, rng=rng)
        layer.bias[:] = rng.normal(size=3)  # off the ReLU kink if a mask drops every input
        xs = rng.normal(size=(3, 1, 4))  # three one-row stacks
        masks = [dropout_mask(rng, (1, 4), 0.5) for _ in range(3)]
        weights = rng.normal(size=(3, 1, 3))

        def loss_fn():
            return sum(float(np.sum(w * layer.forward(x * m)[0]))
                       for w, x, m in zip(weights, xs, masks))

        grad_pre, inputs = [], []
        for w, x, m in zip(weights, xs, masks):
            _, pre = layer.forward(x * m)
            grad_pre.append(layer.backward(w, pre)[1])
            inputs.append(x * m)
        grad_w, grad_b = linear_grads(layer, np.concatenate(grad_pre), np.concatenate(inputs))
        assert_matches_fd(grad_w, fd_grad(loss_fn, layer.weights, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, layer.bias, rng))

    def test_stacked_rows_under_one_mask_match_finite_differences(self, rng):
        # A document's sentence rows: one forward and one backward call over
        # (S, in), the rows and the input gradient multiplied by the
        # document's one sampled mask repeated for each row, as the model
        # masks them.
        layer = build(DenseLayer, 3, 5, rng=rng)
        layer.bias[:] = rng.normal(size=3)
        xs = rng.normal(size=(4, 5))
        mask = np.repeat(dropout_mask(rng, (1, 5), 0.4), 4, axis=0)
        assert set(mask.ravel()) == {0.0, 1.0 / 0.6}
        weights = rng.normal(size=(4, 3))

        def loss_fn():
            return float(np.sum(weights * layer.forward(xs * mask)[0]))

        out, pre = layer.forward(xs * mask)
        for x, m, row in zip(xs, mask, out):
            np.testing.assert_allclose(layer.forward(x[None] * m)[0][0], row, rtol=1e-12)
        grad_x, grad_pre = layer.backward(weights, pre)
        grad_w, grad_b = linear_grads(layer, grad_pre, xs * mask)
        assert_matches_fd(grad_x * mask, fd_grad(loss_fn, xs, rng))
        assert_matches_fd(grad_w, fd_grad(loss_fn, layer.weights, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, layer.bias, rng))


def sigmoid(v) -> np.ndarray:
    """The two-branch logistic function: 1/(1+e) for v >= 0 and e/(1+e) below,
    with e = exp(-|v|) <= 1, which never overflows."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(np.minimum(v, -v))  # -|v|, keeping a NaN's sign bit
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_step(cell, x, h_prev, c_prev):
    """Closed-form LSTM step without dropout; returns (h, c)."""
    H = cell.hidden_dim
    z = cell.input_weights @ x + cell.recurrent_weights @ h_prev + cell.bias
    z_i, z_f, z_g, z_o = z[:H], z[H : 2 * H], z[2 * H : 3 * H], z[3 * H :]
    c = sigmoid(z_f) * c_prev + sigmoid(z_i) * np.tanh(z_g)
    return sigmoid(z_o) * np.tanh(c), c


def lstm_run(cell, seq, input_mask, recurrent_mask, reverse=False):
    """One sequence through a cell as the model runs it: the masked inputs
    x_m projected in one GEMM, then a batch of that one sequence, stepping
    through its rows last to first with reverse. Returns (final h, cache,
    x_m)."""
    x_m = np.asarray(seq, dtype=np.float64) * input_mask
    masks = None if recurrent_mask is None else recurrent_mask[None]
    h, cache = cell.run_batch(cell.project(x_m), [len(x_m)], masks, reverse)
    return h[0], cache, x_m


def lstm_backward(cell, grad_h, cache):
    """dz of a one-sequence run_batch from the gradient on its final h."""
    return cell.backward_batch(grad_h[None], cache)


def lstm_input_grads(cell, dz, input_mask):
    """Gradients at the unmasked inputs from gate gradients dz (one row per
    input row): one GEMM under the input mask."""
    return (dz @ cell.input_weights) * input_mask


def bilstm(fwd, bwd, seq, masks):
    """concat(final fwd h, final bwd h) of one sequence, the backward cell
    reading its projected rows last to first, and each direction's (cache,
    x_m). masks is (fwd input, fwd recurrent, bwd input, bwd recurrent)."""
    h_fwd, cache_fwd, x_fwd = lstm_run(fwd, seq, masks[0], masks[1])
    h_bwd, cache_bwd, x_bwd = lstm_run(bwd, seq, masks[2], masks[3], reverse=True)
    return np.concatenate([h_fwd, h_bwd]), ((cache_fwd, x_fwd), (cache_bwd, x_bwd))


def bilstm_grads(fwd, bwd, grad_encoded, caches, masks):
    """(gradient at seq, fwd (gW, gU, gb), bwd (gW, gU, gb)) of bilstm: both
    directions' gate gradients and states are in sequence order, the order
    of their x_m."""
    H = fwd.hidden_dim
    (cache_fwd, x_fwd), (cache_bwd, x_bwd) = caches
    dz_fwd = lstm_backward(fwd, grad_encoded[:H], cache_fwd)
    dz_bwd = lstm_backward(bwd, grad_encoded[H:], cache_bwd)
    grad_seq = (lstm_input_grads(fwd, dz_fwd, masks[0])
                + lstm_input_grads(bwd, dz_bwd, masks[2]))
    return (grad_seq, lstm_param_grads(fwd, dz_fwd, x_fwd, cache_fwd["h_m"]),
            lstm_param_grads(bwd, dz_bwd, x_bwd, cache_bwd["h_m"]))


class TestLstm:
    def ones_masks(self, m, H):
        return np.ones(m), np.ones(H)

    def test_all_zero_weights(self, rng):
        cell = build(LstmCell, 2, 3, rng=rng)
        cell.input_weights[:] = 0.0
        cell.recurrent_weights[:] = 0.0
        cell.bias[:] = 0.0
        h, cache, _ = lstm_run(cell, [np.zeros(2)], *self.ones_masks(2, 3))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(cache["tanh_c"], np.zeros((1, 3)))
        np.testing.assert_allclose(h, lstm_step(cell, np.zeros(2), np.zeros(3), np.zeros(3))[0])

    def test_forget_gate_retains_cell_state(self, rng):
        # Scalar cell. Step 1 (x=1) writes c1 through saturated input and
        # candidate gates; step 2 (x=0) writes nothing, and the forget bias
        # +10 keeps c2 ~= c1.
        cell = build(LstmCell, 1, 1, rng=rng)
        cell.input_weights[:] = [[10.0], [0.0], [10.0], [0.0]]
        cell.recurrent_weights[:] = 0.0
        cell.bias[:] = [0.0, 10.0, 0.0, 0.0]
        h, cache, _ = lstm_run(cell, [np.ones(1), np.zeros(1)], *self.ones_masks(1, 1))
        h1, c1 = lstm_step(cell, np.ones(1), np.zeros(1), np.zeros(1))
        h2, c2 = lstm_step(cell, np.zeros(1), h1, c1)
        assert abs(cache["c"][0, 0] - c1[0]) < 1e-12
        assert abs(cache["tanh_c"][1, 0] - np.tanh(c2[0])) < 1e-12
        assert abs(h[0] - h2[0]) < 1e-12
        assert abs(c2[0] - sigmoid(np.array([10.0]))[0] * c1[0]) < 1e-12
        assert abs(c2[0] - c1[0]) < 1e-4

    def test_gate_nonlinearities_match_the_two_branch_formulas(self, rng):
        # Every value goes into each of the i, f, g and o blocks of one step;
        # the step's recurrent term is absent, so the gates see z_in itself.
        tiny = np.finfo(np.float64).smallest_subnormal
        v = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0, -746.0, 709.8,
             -709.8, tiny, -tiny, 1e-310, -1e-310],
            rng.normal(scale=10.0, size=500),
            rng.uniform(-800.0, 800.0, size=500),
        ])
        H = len(v)
        cell = build(LstmCell, 1, H)  # run reads neither weight matrix at one step
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, cache = cell.run_batch(np.tile(v, 4)[None, :], [1], None, False)
        i, f, g, o = cache["gates"][0].reshape(4, H)
        with np.errstate(over="ignore"):
            expected = sigmoid(v)
        for gate in (i, f, o):
            np.testing.assert_allclose(gate, expected, rtol=0, atol=2.3e-16)
            np.testing.assert_array_equal(gate[2:4], [1.0, 0.0])
            assert np.isnan(gate[4:6]).all()
        np.testing.assert_allclose(g, np.tanh(v), rtol=0, atol=2.3e-16)
        assert np.isnan(g[4:6]).all()

    def test_first_step_reads_no_recurrent_weights(self, rng):
        cell = build(LstmCell, 3, 2, rng=rng)
        cell.recurrent_weights[:] = np.nan
        h, cache, _ = lstm_run(cell, rng.normal(size=(1, 3)), np.ones(3),
                               dropout_mask(rng, 2, 0.5))
        assert np.isfinite(h).all()
        assert np.isfinite(lstm_backward(cell, rng.normal(size=2), cache)).all()

    def test_no_recurrent_mask_equals_an_all_ones_mask(self, rng):
        cell = build(LstmCell, 3, 2, rng=rng)
        seq = rng.normal(size=(3, 3))
        h, cache, _ = lstm_run(cell, seq, np.ones(3), None)
        h_ones, cache_ones, _ = lstm_run(cell, seq, np.ones(3), np.ones(2))
        np.testing.assert_array_equal(h.view(np.uint64), h_ones.view(np.uint64))
        for key in ("h_m", "gates", "c", "tanh_c"):
            np.testing.assert_array_equal(cache[key].view(np.uint64),
                                          cache_ones[key].view(np.uint64), err_msg=key)
        grad = rng.normal(size=2)
        np.testing.assert_array_equal(lstm_backward(cell, grad, cache).view(np.uint64),
                                      lstm_backward(cell, grad, cache_ones).view(np.uint64))

    def test_bptt_matches_finite_differences(self, rng):
        cell = build(LstmCell, 3, 2, rng=rng)
        seq = [rng.normal(size=3) for _ in range(3)]
        weights = rng.normal(size=2)
        masks = self.ones_masks(3, 2)

        def loss_fn():
            h, *_ = lstm_run(cell, seq, *masks)
            return float(weights @ h)

        h, caches, x_m = lstm_run(cell, seq, *masks)
        dz = lstm_backward(cell, weights, caches)
        grad_xs = lstm_input_grads(cell, dz, masks[0])
        gW, gU, gb = lstm_param_grads(cell, dz, x_m, caches["h_m"])
        assert_matches_fd(gW, fd_grad(loss_fn, cell.input_weights, rng))
        assert_matches_fd(gU, fd_grad(loss_fn, cell.recurrent_weights, rng))
        assert_matches_fd(gb, fd_grad(loss_fn, cell.bias, rng))
        for t in range(3):
            assert_matches_fd(grad_xs[t], fd_grad(loss_fn, seq[t], rng))

    def test_bptt_with_sampled_masks_matches_finite_differences(self, rng):
        cell = build(LstmCell, 6, 4, rng=rng)
        cell.bias[:] = rng.normal(size=16)
        seq = [rng.normal(size=6) for _ in range(5)]
        weights = rng.normal(size=4)
        masks = dropout_mask(rng, 6, 0.5), dropout_mask(rng, 4, 0.5)
        for mask in masks:
            assert set(mask) == {0.0, 2.0}

        def loss_fn():
            h, *_ = lstm_run(cell, seq, *masks)
            return float(weights @ h)

        h, cache, x_m = lstm_run(cell, seq, *masks)
        dz = lstm_backward(cell, weights, cache)
        grad_xs = lstm_input_grads(cell, dz, masks[0])
        gW, gU, gb = lstm_param_grads(cell, dz, x_m, cache["h_m"])
        assert grad_xs.shape == (5, 6)
        assert_matches_fd(gW, fd_grad(loss_fn, cell.input_weights, rng))
        assert_matches_fd(gU, fd_grad(loss_fn, cell.recurrent_weights, rng))
        assert_matches_fd(gb, fd_grad(loss_fn, cell.bias, rng))
        for t in range(5):
            assert_matches_fd(grad_xs[t], fd_grad(loss_fn, seq[t], rng))


    def test_param_grads_over_a_batch_match_finite_differences(self, rng):
        # Three sequences of different lengths, one of a single step, each
        # with its own masks, run as one batch in either direction: the loss
        # sums one sequence at a time, and the gradients are one product
        # over the stacked steps of all three.
        cell = build(LstmCell, 4, 3, rng=rng)
        cell.bias[:] = rng.normal(size=12)
        seqs = [rng.normal(size=(3, 4)), rng.normal(size=(1, 4)), rng.normal(size=(2, 4))]
        in_masks = [dropout_mask(rng, 4, 0.5) for _ in seqs]
        rec_masks = dropout_mask(rng, (3, 3), 0.5)
        weights = rng.normal(size=(3, 3))
        x_m = np.concatenate([seq * m for seq, m in zip(seqs, in_masks)])
        for reverse in (False, True):
            def loss_fn():
                return sum(float(w @ lstm_run(cell, seq, m, r, reverse)[0])
                           for w, seq, m, r in zip(weights, seqs, in_masks, rec_masks))

            h, cache = cell.run_batch(cell.project(x_m), [3, 1, 2], rec_masks, reverse)
            for row, args in zip(h, zip(seqs, in_masks, rec_masks)):
                np.testing.assert_allclose(row, lstm_run(cell, *args, reverse)[0], rtol=1e-12)
            grads = lstm_param_grads(cell, cell.backward_batch(weights, cache), x_m,
                                     cache["h_m"])
            for grad, param in zip(grads, (cell.input_weights, cell.recurrent_weights,
                                           cell.bias)):
                assert_matches_fd(grad, fd_grad(loss_fn, param, rng))


class TestBilstm:
    def masks(self, m, H):
        return np.ones(m), np.ones(H), np.ones(m), np.ones(H)

    def test_single_element_sequence(self, rng):
        fwd, bwd = build(LstmCell, 3, 2, rng=rng), build(LstmCell, 3, 2, rng=rng)
        x = rng.normal(size=3)
        enc, _ = bilstm(fwd, bwd, [x], self.masks(3, 2))
        hf, *_ = lstm_run(fwd, [x], np.ones(3), np.ones(2))
        hb, *_ = lstm_run(bwd, [x], np.ones(3), np.ones(2), reverse=True)
        np.testing.assert_array_equal(enc, np.concatenate([hf, hb]))
        zeros = np.zeros(2)
        closed_form = [lstm_step(cell, x, zeros, zeros)[0] for cell in (fwd, bwd)]
        np.testing.assert_allclose(enc, np.concatenate(closed_form), rtol=1e-12, atol=1e-15)

    def test_backward_half_equals_forward_run_on_reversed(self, rng):
        fwd, bwd = build(LstmCell, 3, 2, rng=rng), build(LstmCell, 3, 2, rng=rng)
        seq = [rng.normal(size=3) for _ in range(4)]
        enc, _ = bilstm(fwd, bwd, seq, self.masks(3, 2))
        h_rev, *_ = lstm_run(bwd, list(reversed(seq)), np.ones(3), np.ones(2))
        np.testing.assert_array_equal(enc[2:], h_rev)

    def test_empty_sequence_rejected(self):
        # The BiLSTM never meets an empty sequence: a document needs a
        # sentence, and a sentence a token.
        for sentences in ((), ((),), ((2, 3), ())):
            with pytest.raises(SentihierError, match="at least one non-empty sentence"):
                Document(sentences)

    def test_gradients_through_both_directions(self, rng):
        fwd, bwd = build(LstmCell, 3, 2, rng=rng), build(LstmCell, 3, 2, rng=rng)
        seq = [rng.normal(size=3) for _ in range(3)]
        weights = rng.normal(size=4)
        masks = self.masks(3, 2)

        def loss_fn():
            enc, _ = bilstm(fwd, bwd, seq, masks)
            return float(weights @ enc)

        enc, caches = bilstm(fwd, bwd, seq, masks)
        grad_seq, fwd_g, bwd_g = bilstm_grads(fwd, bwd, weights, caches, masks)
        for t in range(3):
            assert_matches_fd(grad_seq[t], fd_grad(loss_fn, seq[t], rng))
        assert_matches_fd(fwd_g[0], fd_grad(loss_fn, fwd.input_weights, rng))
        assert_matches_fd(bwd_g[0], fd_grad(loss_fn, bwd.input_weights, rng))
        assert_matches_fd(bwd_g[1], fd_grad(loss_fn, bwd.recurrent_weights, rng))


class TestSoftmaxHead:
    def test_perfect_prediction_zero_loss(self, rng):
        head = build(SoftmaxHead, 2, 3, rng=rng)
        head.weights[:] = 0.0
        head.bias[:] = [500.0, -500.0]
        probs = head.probs(np.zeros((1, 3)))
        loss, *_ = head.loss_and_grads(probs, [0])
        assert loss < 1e-12 and probs[0, 0] > 1 - 1e-12

    def test_uniform_loss_is_log_c(self, rng):
        head = build(SoftmaxHead, 3, 4, rng=rng)
        head.weights[:] = 0.0
        head.bias[:] = 0.0
        loss, *_ = head.loss_and_grads(head.probs(np.ones((1, 4))), [1])
        assert abs(loss - np.log(3)) < 1e-12

    def test_logit_gradient_is_probs_minus_onehot(self, rng):
        head = build(SoftmaxHead, 3, 4, rng=rng)
        x = rng.normal(size=(1, 4))
        probs = head.probs(x)
        _, _, grad_logits = head.loss_and_grads(probs, [2])
        expected = probs.copy()
        expected[0, 2] -= 1.0
        np.testing.assert_allclose(grad_logits, expected)

    def test_gradients_match_finite_differences(self, rng):
        head = build(SoftmaxHead, 3, 4, rng=rng)
        x = rng.normal(size=(1, 4))

        def loss_fn():
            loss, *_ = head.loss_and_grads(head.probs(x), [1])
            return loss

        _, grad_x, grad_logits = head.loss_and_grads(head.probs(x), [1])
        grad_w, grad_b = linear_grads(head, grad_logits, x)
        assert_matches_fd(grad_x, fd_grad(loss_fn, x, rng))
        assert_matches_fd(grad_w, fd_grad(loss_fn, head.weights, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, head.bias, rng))

    def test_param_grads_over_a_batch_match_finite_differences(self, rng):
        head = build(SoftmaxHead, 3, 4, rng=rng)
        xs = rng.normal(size=(3, 4))
        golds = [0, 2, 2]

        def one_row(x, gold):  # (loss, grad_x, grad_logits) of x alone, a one-row stack
            return head.loss_and_grads(head.probs(x[None]), [gold])

        def loss_fn():
            return sum(one_row(x, gold)[0] for x, gold in zip(xs, golds))

        grad_logits = np.concatenate([one_row(x, gold)[2] for x, gold in zip(xs, golds)])
        grad_w, grad_b = linear_grads(head, grad_logits, xs)
        loss, grad_xs, batch_logits = head.loss_and_grads(head.probs(xs), golds)
        assert loss == pytest.approx(loss_fn(), rel=1e-12)
        np.testing.assert_allclose(batch_logits, grad_logits, rtol=1e-12)
        for x, gold, grad_x in zip(xs, golds, grad_xs):
            np.testing.assert_allclose(grad_x, one_row(x, gold)[1][0], rtol=1e-12)
        assert_matches_fd(grad_w, fd_grad(loss_fn, head.weights, rng))
        assert_matches_fd(grad_b, fd_grad(loss_fn, head.bias, rng))
