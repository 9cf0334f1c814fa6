"""Neural building blocks: temporal convolution with max-over-time pooling,
a dense ReLU projection, LSTM cells and the softmax classification head.
Every layer takes stacked rows only, as the model calls it: the convolution
and the dense layer a batch's sentences as one stack of rows, and the head
its documents as rows; an LSTM cell projects a batch's sequences as one
stack of rows and keeps their state as arrays over those rows, so that only
the recurrence itself runs one sequence at a time. model.py allocates and
starts every layer's parameters, and the layers trust the shapes it builds
and check none of them: the model is the one module that rejects a bad input.
The model also draws every dropout mask and multiplies each layer's input,
and the gradient at it, by its mask; the one mask a layer applies is the
LSTM's recurrent mask, inside the recurrence.
The convolution runs in embedding-row space (ConvLayer): its table holds
the filters' products with the distinct word vectors that the caller
projected, for one batch or for a larger group of documents, and only this
module knows how a sentence maps to rows of that table and to padding.

Every layer's forward pass returns what its backward pass needs, and the
backward pass hand-computes the gradient with respect to its input plus
small per-row factors (the gradient at its pre-activation, paired with the
input it multiplied); the convolution skips the input gradient, because the
word vectors under it are static. The model forms the parameter gradients
once per batch from the factors of every row, one matrix product per weight
matrix and one row sum per bias (linear_param_grads), into its gradient
block; only the convolution's go through ConvLayer.param_grads, since only
this module knows its table's layout. No autodiff anywhere;
the finite-difference tests in the suite are the correctness authority.
"""

import numpy as np

GATHER_WINDOWS = 256  # windows per block of ConvLayer.forward's gather buffer


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax, via max-subtraction, of each row of (B, C) logits."""
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def linear_param_grads(grad_pre: np.ndarray, inputs: np.ndarray,
                       grad_weights: np.ndarray, grad_bias: np.ndarray):
    """Gradients of `weights @ x + bias`, summed over a batch of rows.

    grad_pre is (N, out) and inputs is (N, in), row n pairing the gradient at
    the pre-activation with the input it multiplied. Writes grad_pre.T @
    inputs into grad_weights and the row sum into grad_bias.
    """
    np.matmul(grad_pre.T, inputs, out=grad_weights)
    np.sum(grad_pre, axis=0, out=grad_bias)


def sentence_matrix(seqs, distinct: np.ndarray, min_rows: int):
    """Sentences (sequences of token indices) as one stack of rows of a
    ConvLayer.project table: each sentence's token rows, then the zero row
    (row 0) up to min_rows. distinct gives each token of the sentences,
    chained, as its position among the sorted distinct tokens projected.
    Returns (rows, starts): sentence s begins at rows[starts[s]]."""
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    padded = np.maximum(lengths, min_rows)
    starts = np.cumsum(padded) - padded
    rows = np.zeros(padded.sum(), dtype=np.intp)
    at = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    rows[at] = distinct + 1
    return rows, starts


class ConvLayer:
    """Temporal convolution over word-vector windows, ReLU, max-over-time pool.

    The word vectors are static, so the filters' products with each
    distinct vector of a batch or of an inference group are computed once
    (project) and every window sums f of them (forward), instead of
    multiplying every window again.
    """

    def __init__(self, filter_width: int, filters: np.ndarray, bias: np.ndarray):
        self.filter_width, self.filters, self.bias = filter_width, filters, bias

    def project(self, vectors: np.ndarray) -> np.ndarray:
        """The (f, 1 + U, F) table of the filters' products with U distinct
        word vectors (U, k), the precomputation of Devlin et al. 2014 ("Fast
        and Robust Neural Network Joint Models"): table[o, 0] is zero, for
        the padding, and table[o, 1 + u] = filters[:, o*k:(o+1)*k] @
        vectors[u]. One GEMM per offset reads that offset's columns of the
        filters in place. The table is valid only while the filters stay as
        they are."""
        k = vectors.shape[1]
        table = np.empty((self.filter_width, 1 + len(vectors), len(self.filters)))
        table[:, 0] = 0.0
        for o in range(self.filter_width):
            np.matmul(vectors, self.filters[:, o * k : (o + 1) * k].T, out=table[o, 1:])
        return table

    def forward(self, rows: np.ndarray, starts: np.ndarray, table: np.ndarray,
                first_max: bool = False):
        """Returns (pooled features (S, F), first-max windows (S, F) or None).

        rows and starts are S sentences' rows of this layer's table
        (project), at least f each (sentence_matrix). Window p's
        pre-activation, filter . window_p + bias, is bias + sum over o of
        table[o, rows[p + o]], for each window inside one sentence; the
        feature map is its relu, and a sentence's pooled feature keeps the
        max over its windows. With first_max, the windows are the positions
        in rows where each max is first reached, ties going to the smallest
        position.
        """
        f = self.filter_width
        counts = np.diff(starts, append=len(rows)) - (f - 1)  # windows per sentence
        first = np.cumsum(counts) - counts  # each sentence's first window
        at = np.arange(first[-1] + counts[-1]) + np.repeat(starts - first, counts)
        pre = table[0].take(rows[at], axis=0)  # (windows, F)
        # The other offsets are added a block of windows at a time, through
        # one reused buffer: each sum keeps its order, and no second
        # (windows, F) array is made. The caller's rows index this table
        # (HiCnnLstmModel.forward checks a table it is given), so "clip"
        # never acts; it spares the copy of `out` that "raise" makes.
        gathered = np.empty((min(GATHER_WINDOWS, len(at)), pre.shape[1]))
        for lo in range(0, len(at), GATHER_WINDOWS):
            block = pre[lo : lo + GATHER_WINDOWS]
            part = gathered[: len(block)]
            for o in range(1, f):
                np.take(table[o], rows[at[lo : lo + GATHER_WINDOWS] + o], axis=0, out=part,
                        mode="clip")
                block += part
        pre += self.bias
        act = np.maximum(pre, 0.0, out=pre)
        pooled = np.maximum.reduceat(act, first, axis=0)
        if not first_max:
            return pooled, None
        below = act < np.repeat(pooled, counts, axis=0)
        window = np.where(below, len(at), np.arange(len(at))[:, None])
        return pooled, at[np.minimum.reduceat(window, first, axis=0)]

    def backward(self, grad_features: np.ndarray, features: np.ndarray):
        """Routes gradient through each filter's ReLU gate at its argmax window.

        features (S, F) are the pooled forward outputs of S sentences, and
        grad_features their gradients; a feature is max(pre[argmax], 0), so
        it is positive exactly where the gate is open. Returns the gated
        gradient g (S, F): filter j's gradient sums g[s, j] times sentence
        s's window at its argmax, and its bias gradient sums g[:, j] (see
        param_grads). There is no input gradient: the word vectors are
        static, so nothing upstream would use it.
        """
        return grad_features * (features > 0.0)

    def param_grads(self, embedding_matrix: np.ndarray, ids: np.ndarray, rows: np.ndarray,
                    windows: np.ndarray, gated: np.ndarray, grad_filters: np.ndarray,
                    grad_bias: np.ndarray):
        """Filter and bias gradients summed over a batch of S sentences.

        ids are the distinct tokens, rows of embedding_matrix, that the
        batch's table projected (project); rows stack the batch's sentences
        as rows of that table, and windows (S, F) gives each filter's
        first-max window as a position in rows (forward). gated (S, F)
        stacks the backward outputs. For each offset o, the (F, 1 + U)
        weight of every table row under every filter is gathered with one
        bincount, and one matrix product with the rows' word vectors turns
        it into the filters' slice for that offset: the windows themselves
        are never formed.
        """
        F, f = windows.shape[1], self.filter_width
        R, k = 1 + len(ids), embedding_matrix.shape[1]
        vectors = np.empty((R, k))  # each table row's word vector
        vectors[0] = 0.0
        np.take(embedding_matrix, ids, axis=0, out=vectors[1:])
        by_offset = grad_filters.reshape(F, f, k)
        filter_bins = np.arange(F) * R  # the bin of (filter j, row 0)
        for o in range(f):
            weight = np.bincount((filter_bins + rows[windows + o]).ravel(),
                                 weights=gated.ravel(), minlength=F * R)
            np.matmul(weight.reshape(F, R), vectors, out=by_offset[:, o, :])
        np.sum(gated, axis=0, out=grad_bias)


class DenseLayer:
    """Fully connected ReLU layer over the rows of a matrix (S, in)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights, self.bias = weights, bias

    def forward(self, x: np.ndarray):
        """Returns (relu(x @ weights.T + bias), the pre-activations for backward)."""
        pre = x @ self.weights.T + self.bias
        return np.maximum(pre, 0.0), pre

    def backward(self, grad_out: np.ndarray, pre: np.ndarray):
        """Returns (grad_x, grad_pre); the parameter gradients are
        linear_param_grads of grad_pre paired with forward's x."""
        grad_pre = grad_out * (pre > 0.0)  # relu's subgradient, 0 at exactly 0
        return grad_pre @ self.weights, grad_pre


class LstmCell:
    """Standard LSTM cell; gate order in the stacked weights is i, f, g, o.

    The cell takes its inputs as they are, masked by the caller if at all.
    Its own dropout mask, on the recurrent state, is fixed per sequence
    (variational style): run_batch takes one mask row per sequence and
    applies it to h at every step, or None for no dropout. The state starts at
    zero, so the first step has no recurrent term. The gate nonlinearities
    are one pass over a step's (4H,) row, or over a block of such rows: tanh
    under the per-block scale and shift that make sigmoid(z) = 1/2 +
    tanh(z/2)/2 on i, f and o and leave tanh on g.

    run_batch and backward_batch hold a batch's state as arrays with one row
    per step and do all that is elementwise over rows once per batch: every
    sequence's first step, the factors of backpropagation through time and
    every last-step gradient. Only the recurrence runs one sequence at a
    time (run, backward), in place on that sequence's rows.
    """

    def __init__(self, input_weights: np.ndarray, recurrent_weights: np.ndarray,
                 bias: np.ndarray):
        self.input_weights, self.recurrent_weights, self.bias = (
            input_weights, recurrent_weights, bias)
        self.hidden_dim = hidden_dim = recurrent_weights.shape[1]
        self._scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden_dim)
        self._shift = np.repeat([0.5, 0.5, 0.0, 0.5], hidden_dim)

    def project(self, x_m: np.ndarray) -> np.ndarray:
        """Input projections x_m @ W.T + b of N stacked steps (N, m), as (N, 4H):
        one GEMM for every step of every sequence, ahead of the recurrence
        (Appleyard et al. 2016)."""
        return x_m @ self.input_weights.T + self.bias

    def _activate(self, z: np.ndarray):
        """Turns pre-activations z (..., 4H) into the gates i, f, g, o, in place."""
        z *= self._scale
        np.tanh(z, out=z)
        z *= self._scale
        z += self._shift

    def run_batch(self, gates: np.ndarray, counts, recurrent_masks, reverse: bool):
        """Runs the recurrence of D sequences; returns (each one's final h
        (D, H), cache for backward_batch).

        gates (N, 4H) holds the input projections (project) of the steps,
        counts[d] rows for sequence d after those of the sequences before
        it, and is activated in place; with reverse, each sequence steps
        through its rows last to first. recurrent_masks (D, H) holds each
        sequence's mask on its previous h, or is None for no dropout. The
        cache's (N, .) arrays keep the row order of gates: the gates, the
        cell state c and its tanh that each row's step writes, and h_m, the
        masked previous h that it reads (zero at a first step).
        """
        H, N = self.hidden_dim, len(gates)
        counts = np.asarray(counts)
        ends = np.cumsum(counts)
        c, tanh_c, h_m = np.empty((N, H)), np.empty((N, H)), np.empty((N, H))
        # Views in step order: each sequence's rows run from its first step,
        # at firsts, to its last.
        order = slice(None, None, -1) if reverse else slice(None)
        gates_s, c_s, tanh_s, h_m_s = gates[order], c[order], tanh_c[order], h_m[order]
        firsts = N - ends if reverse else ends - counts
        # Every sequence's first step at once: its previous state is zero.
        first = gates_s[firsts]
        self._activate(first)
        gates_s[firsts] = first
        c_first = first[:, :H] * first[:, 2 * H : 3 * H]
        c_s[firsts] = c_first
        tanh_first = np.tanh(c_first)
        tanh_s[firsts] = tanh_first
        h_first = first[:, 3 * H :] * tanh_first
        if recurrent_masks is not None:
            h_first *= recurrent_masks
        h_m_s[firsts] = 0.0
        more = counts > 1
        h_m_s[firsts[more] + 1] = h_first[more]
        masks = [None] * len(counts) if recurrent_masks is None else recurrent_masks
        for lo, hi, mask in zip(firsts.tolist(), (firsts + counts).tolist(), masks):
            self.run(gates_s[lo:hi], c_s[lo:hi], tanh_s[lo:hi], h_m_s[lo:hi], mask)
        lasts = firsts + counts - 1
        h = gates_s[lasts, 3 * H :] * tanh_s[lasts]
        cache = {"gates": gates, "c": c, "tanh_c": tanh_c, "h_m": h_m, "order": order,
                 "firsts": firsts, "counts": counts, "recurrent_masks": masks}
        return h, cache

    def run(self, gates: np.ndarray, c: np.ndarray, tanh_c: np.ndarray, h_m: np.ndarray,
            recurrent_mask: np.ndarray | None):
        """Steps 1..T-1 of one sequence, in place on its T rows of the
        run_batch arrays, in step order: gates (T, 4H) holds its input
        projections, row 0 already activated, and c, tanh_c and h_m (T, H)
        hold step 0's state. Each step adds the recurrent term to its row,
        activates it and writes its c, tanh(c) and, but for the last step,
        the next step's h_m. recurrent_mask (H,) multiplies each h; None
        means no dropout. With T = 1 there is nothing to do."""
        H = self.hidden_dim
        T = len(gates)
        for t in range(1, T):
            gt = gates[t]
            gt += self.recurrent_weights @ h_m[t]
            self._activate(gt)
            np.multiply(gt[:H], gt[2 * H : 3 * H], out=c[t])
            c[t] += gt[H : 2 * H] * c[t - 1]
            np.tanh(c[t], out=tanh_c[t])
            if t + 1 < T:
                np.multiply(gt[3 * H :], tanh_c[t], out=h_m[t + 1])
                if recurrent_mask is not None:
                    h_m[t + 1] *= recurrent_mask

    def backward_batch(self, grad_h: np.ndarray, cache) -> np.ndarray:
        """Backpropagation through time from gradients grad_h (D, H) on the
        final h of run_batch's sequences.

        Returns the (N, 4H) gradients dz at the gate pre-activations, in the
        row order of gates. The factors that do not depend on the incoming
        gradients, and every sequence's last step, are formed here over all
        rows; backward then carries dh and dc back through the rest of each
        sequence. The caller forms the input gradients (dz @ W under the
        input mask) and the parameter gradients (dz paired with the masked
        inputs and with cache["h_m"]) once for the batch.
        """
        H = self.hidden_dim
        gates, c, tanh_c = cache["gates"], cache["c"], cache["tanh_c"]
        order, firsts, counts = cache["order"], cache["firsts"], cache["counts"]
        N = len(gates)
        i, f, g, o = (gates[:, k * H : (k + 1) * H] for k in range(4))
        dc_dh = o * (1.0 - tanh_c ** 2)
        c_prev = np.empty((N, H))  # the cell state each step reads, zero at a first step
        c_prev[order][1:] = c[order][:-1]
        c_prev[order][firsts] = 0.0
        dz_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                          i * (1.0 - g ** 2)], axis=1)  # (N, 3, H): i, f, g
        dz_dh = tanh_c * o * (1.0 - o)
        dz = np.empty((N, 4, H))
        dz_s, f_s, dc_dh_s, dz_dc_s, dz_dh_s = (a[order] for a in (dz, f, dc_dh, dz_dc, dz_dh))
        # Every sequence's last step at once, where dh is grad_h and dc
        # starts at zero: 0.0 + turns a -0.0 into 0.0, as adding to a zero
        # dc would.
        lasts = firsts + counts - 1
        dc = 0.0 + grad_h * dc_dh_s[lasts]
        dz_s[lasts, :3] = dz_dc_s[lasts] * dc[:, None]
        dz_s[lasts, 3] = grad_h * dz_dh_s[lasts]
        for lo, hi, dc_last, mask in zip(firsts.tolist(), (lasts + 1).tolist(), dc,
                                         cache["recurrent_masks"]):
            self.backward(dz_s[lo:hi], dc_last, f_s[lo:hi], dc_dh_s[lo:hi], dz_dc_s[lo:hi],
                          dz_dh_s[lo:hi], mask)
        return dz.reshape(N, 4 * H)

    def backward(self, dz: np.ndarray, dc: np.ndarray, f: np.ndarray, dc_dh: np.ndarray,
                 dz_dc: np.ndarray, dz_dh: np.ndarray, recurrent_mask: np.ndarray | None):
        """Steps T-2..0 of one sequence's backpropagation through time, in
        place on its T rows of the backward_batch arrays, in step order:
        dz (T, 4, H) holds the last step's gate gradients already, and dc
        (H,) the gradient at that step's cell state. Each step takes dh
        from the next step's dz through the recurrent weights (under
        recurrent_mask, or None for no dropout) and dc through its forget
        gate f (T, H), then writes its dz from the factors dc_dh (T, H),
        dz_dc (T, 3, H) and dz_dh (T, H). The first step's previous state
        is the zero initial state, so nothing reads its dh or dc. With T =
        1 there is nothing to do."""
        for t in range(len(dz) - 2, -1, -1):
            dh = self.recurrent_weights.T @ dz[t + 1].reshape(-1)
            if recurrent_mask is not None:
                dh *= recurrent_mask
            dc = dc * f[t + 1]
            dc = dc + dh * dc_dh[t]
            np.multiply(dz_dc[t], dc, out=dz[t, :3])
            np.multiply(dh, dz_dh[t], out=dz[t, 3])


class SoftmaxHead:
    """Linear layer plus softmax over C classes."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights, self.bias = weights, bias

    def probs(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities (B, C) of each row of x (B, in): one matrix
        product and a softmax per row."""
        return softmax(x @ self.weights.T + self.bias)

    def loss_and_grads(self, probs: np.ndarray, gold):
        """Cross-entropy loss and gradients, given probs = self.probs(x), for
        rows x (B, in) with the sequence gold (B,) of their classes, each in [0, C).

        Returns (loss summed over the rows, grad_x, grad_logits), where
        grad_logits is probs - onehot(gold); the parameter gradients are
        linear_param_grads of grad_logits paired with x.
        """
        gold = np.asarray(gold, dtype=np.intp)[:, None]
        picked = np.take_along_axis(probs, gold, axis=1)
        loss = float(np.sum(-np.log(np.maximum(picked, 1e-300))))
        grad_logits = probs.copy()
        np.put_along_axis(grad_logits, gold, picked - 1.0, axis=1)
        return loss, grad_logits @ self.weights, grad_logits
