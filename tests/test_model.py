import hashlib
import itertools
import json
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    desk_config,
    desk_model,
    desk_names,
    dropout_mask,
    finite_difference_check,
    replace_record,
)
from sentihier import layers
from sentihier import model as model_module
from sentihier.errors import ParseError, SentihierError
from sentihier.model import (
    DENSE_DROPOUT,
    INFERENCE_CHUNK,
    LSTM_DROPOUT,
    MAX_SENTENCES,
    PROJECTION_BYTES,
    PROJECTION_GROUP,
    HiCnnLstmModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from sentihier.textprep import Document
from sentihier.train import AdamState


def random_doc(rng, vocab_size=9, num_sents=None, label=None):
    num_sents = num_sents or int(rng.integers(1, 4))
    sents = tuple(
        tuple(int(t) for t in rng.integers(2, vocab_size, size=rng.integers(1, 6)))
        for _ in range(num_sents)
    )
    return Document(sents, label)


def reference_run(cell, z_in, recurrent_mask):
    """The LSTM recurrence of one sequence from its own zero state, every
    step in one loop: (final h, cache for reference_backward). z_in (T, 4H)
    holds its input projections, in step order."""
    H = cell.hidden_dim
    T = len(z_in)
    h_m = np.zeros((T, H))
    gates = z_in.copy()
    c = np.zeros((T + 1, H))
    tanh_c = np.empty((T, H))
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], H)
    for t in range(T):
        gt = gates[t]
        if t:
            gt += cell.recurrent_weights @ h_m[t]
        gt *= scale
        np.tanh(gt, out=gt)
        gt *= scale
        gt += shift
        np.multiply(gt[:H], gt[2 * H : 3 * H], out=c[t + 1])
        if t:
            c[t + 1] += gt[H : 2 * H] * c[t]
        np.tanh(c[t + 1], out=tanh_c[t])
        h = gt[3 * H :] * tanh_c[t]
        if t + 1 < T:
            if recurrent_mask is None:
                h_m[t + 1] = h
            else:
                np.multiply(h, recurrent_mask, out=h_m[t + 1])
    return h, {"h_m": h_m, "gates": gates, "c_prev": c[:T], "tanh_c": tanh_c,
               "recurrent_mask": recurrent_mask}


def reference_backward(cell, grad_h_final, cache):
    """Backpropagation through time of one reference_run, every step in one
    loop: the (T, 4H) gradients at the gate pre-activations, in step order."""
    H = cell.hidden_dim
    gates, tanh_c = cache["gates"], cache["tanh_c"]
    i, f, g, o = (gates[:, k * H : (k + 1) * H] for k in range(4))
    dc_dh = o * (1.0 - tanh_c ** 2)
    dz_dc = np.stack([g * i * (1.0 - i), cache["c_prev"] * f * (1.0 - f),
                      i * (1.0 - g ** 2)], axis=1)
    dz_dh = tanh_c * o * (1.0 - o)
    T = len(gates)
    dz = np.empty((T, 4, H))
    dh = grad_h_final
    dc = np.zeros(H, dtype=np.float64)
    mask = cache["recurrent_mask"]
    for t in range(T - 1, -1, -1):
        dc = dc + dh * dc_dh[t]
        np.multiply(dz_dc[t], dc, out=dz[t, :3])
        np.multiply(dh, dz_dh[t], out=dz[t, 3])
        if t:
            dh = cell.recurrent_weights.T @ dz[t].reshape(-1)
            if mask is not None:
                dh *= mask
            dc = dc * f[t]
    return dz.reshape(T, 4 * H)


def weakly_recorded_tables(monkeypatch) -> list:
    """Patches ConvLayer.project to record a weak reference to each table it
    returns; returns the list of those references."""
    project, tables = layers.ConvLayer.project, []
    monkeypatch.setattr(layers.ConvLayer, "project", lambda conv, vectors: (
        tables.append(weakref.ref(table := project(conv, vectors))) or table))
    return tables


def probabilities(model, doc):
    """The probabilities of one document, in a forward call of its own."""
    (probs,) = model.probabilities([doc])
    return probs


def predict(model, doc) -> int:
    return int(np.argmax(probabilities(model, doc)))  # ties break toward the lowest index


class TestForward:
    def test_probs_sum_to_one(self, rng):
        model = desk_model()
        for _ in range(10):
            probs = probabilities(model, random_doc(rng))
            assert probs.shape == (2,)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_all_oov_doc_determined_by_biases(self, rng):
        model = desk_model()
        d1 = Document(((0, 0, 0),))
        d2 = Document(((0, 0),))
        p1 = probabilities(model, d1)
        p2 = probabilities(model, d2)
        np.testing.assert_array_equal(p1, p2)

    def test_purity_and_order_sensitivity(self, rng):
        model = desk_model()
        doc = Document(((2, 3, 4), (5, 6, 7), (8, 2, 5)))
        p1 = probabilities(model, doc)
        p2 = probabilities(model, doc)
        np.testing.assert_array_equal(p1, p2)
        permuted = Document((doc.sentences[2], doc.sentences[0], doc.sentences[1]))
        p3 = probabilities(model, permuted)
        assert not np.array_equal(p1, p3)

    def test_truncation_not_rejection(self, rng):
        model = desk_model()
        many = tuple((2, 3) for _ in range(MAX_SENTENCES + 20))
        probs = probabilities(model, Document(many))
        truncated = Document(many[:MAX_SENTENCES])
        probs_t = probabilities(model, truncated)
        np.testing.assert_array_equal(probs, probs_t)

    @pytest.mark.parametrize("train", [False, True], ids=["infer", "train"])
    def test_no_documents_rejected(self, train):
        # The model is the layers' one input boundary: sentence_matrix and
        # ConvLayer.forward would fail on no rows with a bare numpy error.
        with pytest.raises(SentihierError, match="forward needs at least one document"):
            desk_model().forward([], train=train)

    def test_masks_of_a_batch_equal_the_per_document_draws(self):
        # One draw for the batch takes the stream's values in the order of a
        # dense, fwd input, fwd recurrent, bwd input and bwd recurrent mask
        # per document, document by document. The dense and input masks
        # repeat each document's row for each of its sentences.
        cfg = ModelConfig(embedding_dim=2, filter_width=2, num_filters=5, sentence_dim=4,
                          lstm_hidden=3)
        model = HiCnnLstmModel(cfg, np.zeros((9, 2)), *desk_names(9, 2), seed=None)
        batch_rng, doc_rng = np.random.default_rng(3), np.random.default_rng(3)
        counts = [2, 1, 5, 1, 3, 1, 4]
        masks = model._masks(batch_rng, counts)
        rates = (DENSE_DROPOUT, *[LSTM_DROPOUT] * 4)
        per_doc = [[dropout_mask(doc_rng, width, rate)
                    for width, rate in zip((5, 4, 3, 4, 3), rates)] for _ in counts]
        assert len(masks) == 5
        for i, (block, rows) in enumerate(zip(masks, zip(*per_doc))):
            want = np.stack(rows) if i in (2, 4) else np.repeat(rows, counts, axis=0)
            np.testing.assert_array_equal(block.view(np.uint64), want.view(np.uint64))
        assert batch_rng.random() == doc_rng.random()

    def test_masks_keep_each_input_in_expectation(self, rng):
        # Inverted dropout: each mask entry is 0 or 1/(1 - rate), so a
        # masked input equals the input in expectation.
        model = desk_model()
        n = 4000
        for mask in model._masks(rng, [1] * n):
            assert set(np.unique(mask)) <= {0.0, 1.0 / 0.6, 1.0 / 0.8}
            np.testing.assert_allclose(mask.mean(axis=0), 1.0, atol=0.05)


class TestProbabilities:
    def test_one_projection_per_group(self, rng, monkeypatch):
        # The first document alone, then groups of PROJECTION_GROUP and of 7
        # documents, each projected once and run in chunks of INFERENCE_CHUNK.
        model = desk_model()
        docs = [random_doc(rng) for _ in range(1 + PROJECTION_GROUP + 7)]
        groups = [docs[:1], docs[1 : 1 + PROJECTION_GROUP], docs[1 + PROJECTION_GROUP :]]
        forward, chunks = model.forward, []
        monkeypatch.setattr(model, "forward", lambda chunk, *a, **k: (
            chunks.append(len(chunk)) or forward(chunk, *a, **k)))
        project, projected = layers.ConvLayer.project, []

        def recorded_project(conv, vectors):
            # No two tables are ever alive together.
            assert all(table() is None for *_, table in projected)
            table = project(conv, vectors)
            projected.append((vectors.copy(), len(table[0]), weakref.ref(table)))
            return table
        monkeypatch.setattr(layers.ConvLayer, "project", recorded_project)
        results = model.probabilities(iter(docs))
        for g, group in enumerate(groups):
            next(results)  # the group's first document
            assert len(projected) == g + 1
            # Every earlier table is freed; a group's own lives until its last
            # chunk, while the first document's is freed by its forward call.
            assert all(table() is None for *_, table in projected[:g])
            assert (projected[g][2]() is not None) == (g > 0)
            assert len(list(itertools.islice(results, len(group) - 1))) == len(group) - 1
        assert next(results, None) is None
        assert all(table() is None for *_, table in projected)
        assert chunks == [1, *[INFERENCE_CHUNK] * (PROJECTION_GROUP // INFERENCE_CHUNK), 7]
        for group, (vectors, rows, _) in zip(groups, projected, strict=True):
            distinct = sorted({t for doc in group for sent in doc.sentences for t in sent})
            np.testing.assert_array_equal(vectors, model.embedding_matrix[distinct])
            assert rows == 1 + len(distinct) <= 1 + len(model.vocab)

    def test_groups_end_at_the_table_budget(self, rng, monkeypatch):
        # Chunks of 4 documents, and tables of at most 1 + 39 rows: a group
        # takes whole chunks while its distinct tokens stay below 40, and a
        # chunk that alone reads more makes a group of its own.
        model = desk_model(vocab_size=120)
        docs = [random_doc(rng, vocab_size=120) for _ in range(1 + 4 * 30 + 3)]
        docs[42] = random_doc(rng, vocab_size=120, num_sents=30)
        unbounded = list(model.probabilities(docs))
        cfg = model.config
        monkeypatch.setattr(model_module, "INFERENCE_CHUNK", 4)
        monkeypatch.setattr(model_module, "PROJECTION_BYTES",
                            40 * 8 * cfg.filter_width * cfg.num_filters)
        forward, calls = model.forward, []
        monkeypatch.setattr(model, "forward", lambda chunk, *a, **k: (
            calls.append((chunk, k.get("projected"))) or forward(chunk, *a, **k)))
        got = list(model.probabilities(docs))
        assert [len(chunk) for chunk, _ in calls] == [1, *[4] * 30, 3]
        assert calls[0][1] is None
        groups = []  # (chunks, projected); calls keeps every table alive, so ids stay unique
        for _, run in itertools.groupby(calls[1:], key=lambda call: id(call[1])):
            run = list(run)
            groups.append(([chunk for chunk, _ in run], run[0][1]))

        def distinct(chunks):
            return sorted({t for chunk in chunks for doc in chunk
                           for sent in doc.sentences for t in sent})
        for g, (chunks, (ids, table)) in enumerate(groups):
            np.testing.assert_array_equal(ids, distinct(chunks))
            assert len(table[0]) == 1 + len(ids)
            assert len(ids) < 40 or len(chunks) == 1
            if g + 1 < len(groups):  # the next chunk would have taken it to 40
                assert len(distinct(chunks + groups[g + 1][0][:1])) >= 40
        assert max(len(chunks) for chunks, _ in groups) > 1
        assert any(len(distinct(chunks)) >= 40 for chunks, _ in groups)
        np.testing.assert_allclose(got, unbounded, rtol=0, atol=1e-15)

    def test_a_table_that_lacks_a_token_is_refused(self):
        model = desk_model()
        docs = [Document(((2, 3, 5),)), Document(((8,),))]
        for ids in ([2, 3, 8], [2, 3, 5]):  # 5 would take 8's row; 8 is past the end
            with pytest.raises(SentihierError, match="lacks a token"):
                model.forward(docs, projected=model._projection(np.array(ids)))
        ids = np.array([2, 3, 5, 7, 8])  # more tokens than the documents read is fine
        np.testing.assert_allclose(model.forward(docs, projected=model._projection(ids))[0],
                                   model.forward(docs)[0], rtol=0, atol=1e-15)

    def test_no_documents_no_results(self, monkeypatch):
        model = desk_model()
        monkeypatch.setattr(model, "forward", lambda *a, **k: pytest.fail("forward called"))
        assert list(model.probabilities(iter([]))) == []

    def test_chunks_of_one_then_inference_chunk_documents(self, rng, monkeypatch):
        model = desk_model()
        docs = [random_doc(rng) for _ in range(INFERENCE_CHUNK + 8)]
        singles = [probabilities(model, doc) for doc in docs]
        forward, chunks = model.forward, []
        monkeypatch.setattr(model, "forward", lambda chunk, *a, **k: (
            chunks.append(len(chunk)) or forward(chunk, *a, **k)))
        got = list(model.probabilities(iter(docs)))
        assert chunks == [1, INFERENCE_CHUNK, 7]
        for p, q in zip(got, singles, strict=True):
            np.testing.assert_allclose(p, q, rtol=0, atol=1e-15)

    def test_results_do_not_depend_on_the_chunk_size(self, rng, monkeypatch):
        # Up to rounding only: BLAS may round a product of one row, or of a
        # different number of rows, differently in the last bit.
        model = desk_model()
        long_doc = random_doc(rng, num_sents=23)
        docs = [random_doc(rng) for _ in range(70)] + [long_doc, Document(((0,),))]
        by_size = []
        for size in (1, 64, len(docs)):
            for group in (size, PROJECTION_GROUP):  # a table per chunk, or one for all
                monkeypatch.setattr(model_module, "INFERENCE_CHUNK", size)
                monkeypatch.setattr(model_module, "PROJECTION_GROUP", group)
                by_size.append(np.array(list(model.probabilities(docs))))
        for probs in by_size[1:]:
            np.testing.assert_allclose(probs, by_size[0], rtol=0, atol=1e-15)
            np.testing.assert_array_equal(probs.argmax(axis=1), by_size[0].argmax(axis=1))

    def test_inference_builds_no_masks_and_equals_training_without_dropout(self, rng,
                                                                           monkeypatch):
        model = desk_model()
        docs = [random_doc(rng) for _ in range(5)] + [random_doc(rng, num_sents=21)]
        # Training with no dropout_rng builds no mask either.
        monkeypatch.setattr(HiCnnLstmModel, "_masks", lambda *a: pytest.fail("mask built"))
        trained, _ = model.forward(docs, train=True)
        inferred, cache = model.forward(docs)
        assert cache is None
        np.testing.assert_array_equal(inferred.view(np.uint64), trained.view(np.uint64))


class TestPredict:
    def test_argmax(self, rng):
        model = desk_model(num_classes=3)
        model.head.weights[:] = 0.0
        model.head.bias[:] = [0.2, 0.5, 0.3]
        assert predict(model, Document(((0, 0),))) == 1

    def test_tie_breaks_to_lowest(self, rng):
        model = desk_model()
        model.head.weights[:] = 0.0
        model.head.bias[:] = [0.5, 0.5]
        assert predict(model, Document(((0,),))) == 0

    def test_monotone_rescaling_invariance(self, rng):
        model = desk_model(num_classes=3)
        doc = random_doc(rng)
        pred = predict(model, doc)
        model.head.weights *= 2.0
        model.head.bias *= 2.0
        assert predict(model, doc) == pred


class TestConstruction:
    def test_vocabulary_must_index_every_embedding_row(self):
        vocab, labels = desk_names(8, 2)
        with pytest.raises(SentihierError, match="8 tokens"):
            HiCnnLstmModel(desk_config(), np.zeros((9, 4)), vocab, labels, seed=0)

    def test_one_class_per_label_name(self):
        vocab, labels = desk_names(9, 3)
        model = HiCnnLstmModel(desk_config(), np.zeros((9, 4)), vocab, labels, seed=0)
        assert model.head.weights.shape[0] == 3 and model.labels == labels


RAGGED_BATCH = st.lists(
    st.builds(lambda sents, label: Document(tuple(map(tuple, sents)), label),
              st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=6),
                       min_size=1, max_size=4),
              st.integers(0, 1)),
    min_size=1, max_size=5)


class TestLossAndGrads:
    @given(RAGGED_BATCH, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_no_mask_equals_all_ones_masks(self, batch, seed):
        # Training with no dropout_rng multiplies by no mask; all-ones masks
        # through every mask site must give the same loss and gradients.
        model = desk_model()
        loss, grads = model.loss_and_grads(batch)
        cfg = model.config
        widths = (cfg.num_filters, *[cfg.sentence_dim, cfg.lstm_hidden] * 2)
        with pytest.MonkeyPatch.context() as mp:
            # One row per sentence for the dense and input masks, one per
            # document for the recurrent ones.
            mp.setattr(HiCnnLstmModel, "_masks", lambda self, rng, counts: [
                np.ones((len(counts) if i in (2, 4) else sum(counts), w))
                for i, w in enumerate(widths)])
            ones_loss, ones_grads = model.loss_and_grads(
                batch, dropout_rng=np.random.default_rng(seed))
        assert np.float64(loss).view(np.uint64) == np.float64(ones_loss).view(np.uint64)
        np.testing.assert_array_equal(grads.view(np.uint64), ones_grads.view(np.uint64))

    def test_one_softmax_per_training_document(self, rng, monkeypatch):
        model = desk_model()
        calls = []
        probs = layers.SoftmaxHead.probs
        monkeypatch.setattr(layers.SoftmaxHead, "probs",
                            lambda head, x: calls.append(x) or probs(head, x))
        model.loss_and_grads([random_doc(rng, label=i % 2) for i in range(3)])
        assert [x.shape for x in calls] == [(3, 2 * model.config.lstm_hidden)]

    def test_perfect_prediction_zero_loss(self, rng):
        model = desk_model()
        model.head.weights[:] = 0.0
        model.head.bias[:] = [900.0, -900.0]
        loss, grads = model.loss_and_grads([Document(((2, 3),), label=0)])
        assert loss < 1e-12
        assert np.abs(model.views(grads)["head.bias"]).max() < 1e-12

    def test_empty_batch_rejected(self):
        # So the head's softmax never meets an empty matrix in training.
        with pytest.raises(SentihierError, match="forward needs at least one document"):
            desk_model().loss_and_grads([])

    @pytest.mark.parametrize("label", [3, -1, None, 0.5, 1.9, True, "1"],
                             ids=["C", "minus-one", "none", "half", "one-point-nine", "bool",
                                  "str"])
    def test_label_outside_the_classes_rejected(self, label):
        # One check, in the model: -1 would otherwise reach take_along_axis
        # and pick the last class, None would not be an index at all, and
        # the head's cast to an index would train 0.5 as class 0 and 1.9 as
        # class 1. A bool is an int to Python, but not a class.
        model = desk_model(num_classes=3)
        batch = [Document(((2, 3),), label=0), Document(((4, 5),), label=label)]
        with pytest.raises(SentihierError,
                           match=rf"every label in \[0, 3\), got {label!r}$"):
            model.loss_and_grads(batch)

    def test_batch_duplication_preserves_mean(self, rng):
        model = desk_model()
        batch = [random_doc(rng, label=int(rng.integers(0, 2))) for _ in range(3)]
        loss1, grads1 = model.loss_and_grads(batch)
        loss2, grads2 = model.loss_and_grads(batch + batch)
        assert abs(loss1 - loss2) <= 1e-12
        for name, g in model.views(grads1).items():
            np.testing.assert_allclose(g, model.views(grads2)[name], atol=1e-12, err_msg=name)

    def test_mean_loss_equals_mean_of_single_losses(self, rng):
        model = desk_model()
        batch = [random_doc(rng, label=int(rng.integers(0, 2))) for _ in range(4)]
        batch_loss, _ = model.loss_and_grads(batch)
        singles = [model.loss_and_grads([d])[0] for d in batch]
        assert abs(batch_loss - np.mean(singles)) <= 1e-12

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_full_model_gradient_check(self, rng, num_classes):
        model = desk_model(num_classes=num_classes)
        doc = Document(((2, 3, 4), (5, 6, 7)), label=num_classes - 1)

        def loss_fn():
            loss, _ = model.loss_and_grads([doc])
            return loss

        loss, grads = model.loss_and_grads([doc])
        finite_difference_check(loss_fn, model.params(), model.views(grads), rng,
                                coords_per_tensor=30)

    def test_gradient_check_with_dropout_at_larger_shapes(self, rng):
        self.check_with_dropout_at_larger_shapes(rng, batched=False)

    def test_batch_gradient_check_with_dropout_at_larger_shapes(self, rng):
        self.check_with_dropout_at_larger_shapes(rng, batched=True)

    def check_with_dropout_at_larger_shapes(self, rng, batched):
        """Finite-difference check of one four-sentence document, or of it
        and two more, under dropout."""
        cfg = ModelConfig(embedding_dim=6, filter_width=3, num_filters=5, sentence_dim=4,
                          lstm_hidden=3)
        assert DENSE_DROPOUT > 0 and LSTM_DROPOUT > 0
        emb = rng.normal(size=(40, 6))
        emb[:2] = 0.0
        model = HiCnnLstmModel(cfg, emb, *desk_names(40, 3), seed=7)
        batch = [Document(tuple(tuple(int(t) for t in rng.integers(2, 40, size=12))
                                for _ in range(4)), label=1)]
        if batched:
            # Unequal sentence counts, a sentence shorter than the filter
            # width, and tokens shared within and across documents.
            batch += [Document(((5, 9, 9, 12, 30), (7, 5)), label=0),
                      Document(((12, 3, 8, 5, 21, 5, 9),), label=2)]
            # A sentence whose kept features are all 0 meets the dense
            # ReLU at its kink unless the bias moves it off.
            model.conv.bias[:] = rng.normal(scale=0.5, size=5)
            model.dense.bias[:] = rng.normal(scale=0.5, size=4)

        def loss_fn():  # a fresh stream keeps every dropout mask fixed
            loss, _ = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(9))
            return loss

        dropped, _ = model.forward(batch, train=True, dropout_rng=np.random.default_rng(9))
        assert not np.allclose(dropped, [probabilities(model, doc) for doc in batch])
        loss, grads = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(9))
        worst = finite_difference_check(loss_fn, model.params(), model.views(grads), rng,
                                        coords_per_tensor=40, rtol=1e-4)
        assert worst <= 1e-4

    def three_doc_batch(self, rng, extra_tokens=0):
        """A filter-width-3 model and three documents that share tokens, one
        with a sentence shorter than the filter width; with extra_tokens, a
        fourth document holds that many more distinct tokens."""
        cfg = ModelConfig(embedding_dim=5, filter_width=3, num_filters=4, sentence_dim=3,
                          lstm_hidden=2)
        V = 12 + extra_tokens
        emb = rng.normal(size=(V, 5))
        emb[:2] = 0.0
        batch = [Document(((2, 3, 4, 5), (6, 2)), label=0),
                 Document(((3, 3, 7, 8, 9, 2),), label=2),
                 Document(((10, 4, 6), (11, 2, 0, 5), (7,)), label=1)]
        if extra_tokens:
            batch.append(Document((tuple(range(12, V)), (V - 1, 3)), label=2))
        model = HiCnnLstmModel(cfg, emb, *desk_names(V, 3), seed=3)
        # Nonzero biases keep ReLU pre-activations off their kink at 0, where
        # a finite difference straddles two slopes.
        model.conv.bias[:] = rng.normal(scale=0.5, size=4)
        model.dense.bias[:] = rng.normal(scale=0.5, size=3)
        return model, batch

    def check_batch_gradients(self, rng, extra_tokens):
        """Finite-difference check of three_doc_batch(rng, extra_tokens)."""
        model, batch = self.three_doc_batch(rng, extra_tokens)

        def loss_fn():
            loss, _ = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(4))
            return loss

        loss, grads = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(4))
        finite_difference_check(loss_fn, model.params(), model.views(grads), rng,
                                coords_per_tensor=40, rtol=1e-4)

    def test_three_document_batch_gradient_check(self, rng):
        self.check_batch_gradients(rng, extra_tokens=0)

    # A fourth document of 30 more distinct tokens gives a projection table
    # of 42 rows of 12 floats, larger than the whole 190-float gradient block.
    def test_gradient_check_of_a_batch_too_large_for_the_gradient_block(self, rng):
        self.check_batch_gradients(rng, extra_tokens=30)

    def test_one_projection_per_batch(self, rng, monkeypatch):
        model, batch = self.three_doc_batch(rng)
        project, projected = layers.ConvLayer.project, []
        monkeypatch.setattr(layers.ConvLayer, "project", lambda conv, vectors: (
            projected.append(len(vectors)) or project(conv, vectors)))
        model.loss_and_grads(batch)
        assert projected == [11]  # the batch's distinct tokens

    @pytest.mark.parametrize("train", [False, True])
    def test_projection_table_is_freed_when_forward_returns(self, rng, monkeypatch, train):
        model, batch = self.three_doc_batch(rng)
        tables = weakly_recorded_tables(monkeypatch)
        # The results, the training cache among them, hold no reference to it.
        results = model.forward(batch, train=train, dropout_rng=np.random.default_rng(2))
        (table,) = tables
        assert table() is None

    def test_projection_table_and_gradient_block_are_never_alive_together(self, rng,
                                                                         monkeypatch):
        # The gradient block must be allocated after the projection, and
        # find it freed.
        model, batch = self.three_doc_batch(rng)
        tables, freed = weakly_recorded_tables(monkeypatch), []
        new_block = HiCnnLstmModel._new_block
        monkeypatch.setattr(HiCnnLstmModel, "_new_block", lambda model: (
            freed.append(len(tables) == 1 and tables[0]() is None) or new_block(model)))
        model.loss_and_grads(batch)
        assert freed == [True]

    @pytest.mark.parametrize("train", [False, True])
    def test_one_input_projection_per_direction(self, rng, monkeypatch, train):
        # Each direction projects all the call's sentence vectors at once;
        # each run steps through its document's rows of that array in place,
        # reversed for the backward direction.
        model, batch = self.three_doc_batch(rng)
        project, run = layers.LstmCell.project, layers.LstmCell.run
        projected, ran, sent_vecs = [], [], []
        dense = layers.DenseLayer.forward

        def dense_forward(*args):
            out = dense(*args)
            sent_vecs.append(out[0])
            return out
        monkeypatch.setattr(layers.DenseLayer, "forward", dense_forward)
        monkeypatch.setattr(layers.LstmCell, "project", lambda cell, x_m: (
            projected.append((cell, x_m, project(cell, x_m))) or projected[-1][2]))
        monkeypatch.setattr(layers.LstmCell, "run", lambda cell, gates, *state: (
            ran.append((cell, gates)) or run(cell, gates, *state)))
        model.forward(batch, train=train, dropout_rng=np.random.default_rng(2))
        assert [cell for cell, *_ in projected] == [model.lstm_fwd, model.lstm_bwd]
        ends = np.cumsum([len(doc.sentences) for doc in batch])
        (vecs,) = sent_vecs
        for cell, x_m, z in projected:
            assert z.shape == (ends[-1], 4 * model.config.lstm_hidden)
            if not train:  # all-ones masks: the sentence vectors themselves
                assert x_m is vecs
            z_ins = [z_in for c, z_in in ran if c is cell]
            assert len(z_ins) == len(batch)
            for z_in, end, doc in zip(z_ins, ends, batch):
                rows = z[end - len(doc.sentences) : end]
                if cell is model.lstm_bwd:
                    rows = rows[::-1]
                assert z_in.base is z and z_in.strides == rows.strides
                assert z_in.ctypes.data == rows.ctypes.data

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("config", [
        ModelConfig(embedding_dim=4, filter_width=2, num_filters=3, sentence_dim=5,
                    lstm_hidden=7),
        ModelConfig(embedding_dim=8, filter_width=3, num_filters=16, sentence_dim=150,
                    lstm_hidden=128),
    ], ids=["odd", "paper-lstm"])
    def test_lstm_equals_the_per_document_reference(self, rng, config, dropout):
        # A ragged batch of 1, 2, 7 and 53 sentences (read as 50): every
        # direction's encoded rows, h_m and dz are bit for bit those of
        # the recurrence run one document at a time from its own zero state.
        emb = rng.normal(size=(30, config.embedding_dim))
        model = HiCnnLstmModel(config, emb, *desk_names(30, 2), seed=11)
        batch = [Document(tuple(tuple(int(t) for t in rng.integers(1, 30, size=4))
                                for _ in range(T)), label=T % 2) for T in (1, 2, 7, 53)]
        counts = [min(len(doc.sentences), MAX_SENTENCES) for doc in batch]
        assert counts == [1, 2, 7, 50]
        _, cache = model.forward(batch, train=True,
                                 dropout_rng=np.random.default_rng(5) if dropout else None)
        masks = (model._masks(np.random.default_rng(5), counts)[1:] if dropout
                 else [[None] * len(batch)] * 4)
        H, ends = config.lstm_hidden, np.cumsum(counts)
        grad_enc = rng.normal(size=(len(batch), 2 * H))
        for d, (cell, reverse) in enumerate(((model.lstm_fwd, False), (model.lstm_bwd, True))):
            lstm = cache["lstm"][d]
            z = cell.project(lstm["x_m"])
            order = slice(None, None, -1) if reverse else slice(None)
            runs = [reference_run(cell, z[end - T : end][order], mask)
                    for end, T, mask in zip(ends, counts, masks[2 * d + 1])]
            grad_h = grad_enc[:, d * H : (d + 1) * H]
            dz = np.concatenate([reference_backward(cell, g, run)[order]
                                 for g, (_, run) in zip(grad_h, runs)])
            h_m = np.concatenate([run["h_m"][order] for _, run in runs])
            for got, want in ((cache["encoded"][:, d * H : (d + 1) * H], [h for h, _ in runs]),
                              (lstm["run"]["h_m"], h_m),
                              (cell.backward_batch(grad_h, lstm["run"]), dz)):
                assert np.array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))

    def test_batch_gradients_equal_mean_of_single_document_gradients(self, rng):
        model, batch = self.three_doc_batch(rng)
        _, batch_grads = model.loss_and_grads(batch)
        mean = sum(model.loss_and_grads([doc])[1] for doc in batch) / len(batch)
        for name, g in model.views(batch_grads).items():
            np.testing.assert_allclose(g, model.views(mean)[name], rtol=0, atol=1e-12,
                                       err_msg=name)


def drawn_layer_by_layer(cfg, classes, seed):
    """The parameter block as the layers once started it: each weight matrix
    Glorot-uniform from one generator, in the order the layers were built
    (conv, dense, fwd input, fwd recurrent, bwd input, bwd recurrent, head),
    each bias zero but the LSTM forget gates at 1.0, laid out in block order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))

    def glorot(fan_out, fan_in):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    S, H = cfg.sentence_dim, cfg.lstm_hidden
    conv = glorot(cfg.num_filters, cfg.filter_width * cfg.embedding_dim)
    dense = glorot(S, cfg.num_filters)
    cells = [(glorot(4 * H, S), glorot(4 * H, H), np.repeat([0.0, 1.0, 0.0, 0.0], H))
             for _ in ("fwd", "bwd")]
    head = glorot(classes, 2 * H)
    parts = [conv, np.zeros(cfg.num_filters), dense, np.zeros(S), *cells[0], *cells[1],
             head, np.zeros(classes)]
    return np.concatenate([part.ravel() for part in parts])


class TestParameterBlock:
    @pytest.mark.parametrize("config", [
        ModelConfig(),  # the paper's dimensions
        ModelConfig(embedding_dim=7, filter_width=3, num_filters=151, sentence_dim=5,
                    lstm_hidden=3),
    ], ids=["paper", "odd"])
    def test_views_tile_the_block_back_to_back(self, rng, config):
        V = 12
        emb = rng.normal(size=(V, config.embedding_dim))
        model = HiCnnLstmModel(config, emb, *desk_names(V, 3), seed=4)
        batch = [Document(((2, 3, 4, 5), (6, 7)), label=0),
                 Document(((8, 9, 10, 11, 2),), label=2)]
        _, grads = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(1))
        state = AdamState(model.block.size)
        for block in (model.block, grads, state.m, state.v):
            at = block.ctypes.data
            for name, view in model.views(block).items():
                assert view.ctypes.data == at and np.shares_memory(view, block), name
                at += view.nbytes
            assert at == block.ctypes.data + block.nbytes
        assert list(model.params()) == [
            "conv.filters", "conv.bias", "dense.weights", "dense.bias",
            *(f"{cell}.{attr}" for cell in ("lstm_fwd", "lstm_bwd")
              for attr in ("input_weights", "recurrent_weights", "bias")),
            "head.weights", "head.bias"]

    def test_every_parameter_is_a_view_of_the_block(self):
        model = desk_model()
        for name, p in model.params().items():
            layer, attr = name.split(".")
            held = getattr(getattr(model, layer), attr)
            assert np.shares_memory(p, model.block), name
            assert held.ctypes.data == p.ctypes.data and held.shape == p.shape, name
        model.head.bias[:] = 5.0  # a layer's write lands in the block
        np.testing.assert_array_equal(model.params()["head.bias"], 5.0)

    def test_seeded_initial_weights_are_pinned(self):
        # sha256 of the parameters in params() order at the paper's
        # dimensions and seed 7, pinned before the parameters shared a block.
        pinned = {2: "846bfb1578ee5a10270612b59a5db7cd85da5d06dc1e4221cdbc0b7bfecdac75",
                  3: "f731b0de1ec282e01d9d440c156dfb1b269854f4302b12046fcc4800250cd1d1"}
        for classes, digest in pinned.items():
            model = HiCnnLstmModel(ModelConfig(), np.zeros((2, 300)),
                                   *desk_names(2, classes), seed=7)
            sha = hashlib.sha256()
            for p in model.params().values():
                sha.update(p.tobytes())
            assert sha.hexdigest() == digest

    def test_forget_bias_initialized_to_one(self):
        model = desk_model()
        H = model.config.lstm_hidden
        for name, p in model.params().items():
            if name in ("lstm_fwd.bias", "lstm_bwd.bias"):
                np.testing.assert_array_equal(p[H : 2 * H], np.ones(H))
                assert not p[:H].any() and not p[2 * H :].any()
            elif p.ndim == 1:
                assert not p.any(), name

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(1, 4),
           st.integers(1, 4), st.integers(2, 5), st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_initial_weights_equal_each_layer_drawing_its_own(self, k, f, F, S, H, classes,
                                                              seed):
        cfg = ModelConfig(embedding_dim=k, filter_width=f, num_filters=F, sentence_dim=S,
                          lstm_hidden=H)
        model = HiCnnLstmModel(cfg, np.zeros((2, k)), *desk_names(2, classes), seed=seed)
        assert model.block.tobytes() == drawn_layer_by_layer(cfg, classes, seed).tobytes()

    def test_snapshot_restore_round_trip(self, rng):
        model = desk_model()
        before = model.block.copy()
        snap = model.snapshot()
        assert not np.shares_memory(snap, model.block)
        model.head.weights[:] = 3.0
        model.lstm_bwd.bias[:] = -1.0
        model.restore(snap)
        assert model.block.tobytes() == before.tobytes()
        np.testing.assert_array_equal(model.head.weights, model.views(before)["head.weights"])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        model = desk_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for _ in range(10):
            doc = random_doc(rng)
            p1 = probabilities(model, doc)
            p2 = probabilities(loaded, doc)
            np.testing.assert_array_equal(p1, p2)
        assert loaded.vocab == model.vocab and loaded.labels == model.labels

    def test_the_values_follow_the_records_unframed(self, tmp_path):
        model = desk_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data, at = path.read_bytes(), 8
        for _ in range(3):  # the config, token and label records
            at += 8 + struct.unpack_from("<I", data, at)[0]
        assert data[at:] == (model.block.astype("<f8").tobytes()
                             + model.embedding_matrix.astype("<f8").tobytes())

    @pytest.mark.parametrize("kind, old, new", [
        ("config", b'"num_filters": 3', b'"num_filters": 4'),
        ("token", b'"w5"', b'"x5"'),
        ("label", b'"class1"', b'"class2"'),
    ], ids=["config", "token", "label"])
    def test_record_fails_crc(self, tmp_path, kind, old, new):
        path = tmp_path / "model.ckpt"
        save_checkpoint(desk_model(), path)
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))  # same length, still well-formed
        with pytest.raises(ParseError, match=f"{kind} record fails its CRC-32") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("failure", [OSError("No space left on device"),
                                         KeyboardInterrupt()], ids=["oserror", "interrupt"])
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "model.ckpt"
        save_checkpoint(desk_model(seed=1), path)
        old = path.read_bytes()
        replace = model_module.replace_file

        def fail_after_the_header(path, chunks):
            def header_then_failure():
                yield chunks[0]
                raise failure
            replace(path, header_then_failure())
        monkeypatch.setattr(model_module, "replace_file", fail_after_the_header)
        with pytest.raises(type(failure)):
            save_checkpoint(desk_model(seed=2), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_save_leaves_no_partial_file_and_an_ordinary_mode(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(desk_model(), path)
        save_checkpoint(desk_model(seed=2), path)  # over an existing file
        (tmp_path / "plain").write_bytes(b"")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "plain"]
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
        np.testing.assert_array_equal(load_checkpoint(path).block, desk_model(seed=2).block)

    def test_truncated_file(self, rng, tmp_path):
        model = desk_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError, match="truncated at byte"):
            load_checkpoint(path)

    def test_parameter_shape_mismatch(self, tmp_path):
        # A config record that asks for more parameters than the file holds.
        model = desk_model()
        model.config = ModelConfig(**{**model.config.__dict__, "num_filters": 4})
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ParseError, match="truncated at byte") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_byte_after_the_embedding_matrix(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(desk_model(), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ParseError, match=f"ends at byte {size}, but the file has {size + 1} "
                           "bytes") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_load_draws_no_initialisation(self, rng, tmp_path, monkeypatch):
        model = desk_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        # A draw needs a generator or numpy's global one: the first fails
        # here on being made, the second would change its state.
        for name in ("default_rng", "Generator", "SeedSequence"):
            monkeypatch.setattr(np.random, name,
                                lambda *a, name=name, **k: pytest.fail(f"{name} called"))
        _, key, *rest = np.random.get_state()
        loaded = load_checkpoint(path)
        assert loaded.block.tobytes() == model.block.tobytes()
        _, key_after, *rest_after = np.random.get_state()
        assert key_after.tobytes() == key.tobytes() and rest_after == rest

    @pytest.mark.parametrize("record", [
        b'{"unknown_key": 1}',                            # unexpected keyword
        b'[1, 2, 3]',                                     # not a JSON object
        b'{"seed": "\xff"}',                             # not UTF-8
        b'{"embedding_dim": -4}',                         # negative dimension
        b'{"num_filters": 3.0}',                          # a float dimension
    ], ids=["unknown-key", "not-an-object", "bad-utf8", "negative-dimension",
            "float-dimension"])
    def test_malformed_config_record(self, tmp_path, record):
        path = tmp_path / "model.ckpt"
        save_checkpoint(desk_model(), path)
        path.write_bytes(replace_record(path.read_bytes(), 0, record))
        with pytest.raises(ParseError, match="malformed config record") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(ParseError, match="not a sentihier checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("num_filters", 2**31),   # asks for 128 GiB of filters
        ("lstm_hidden", 10**30),  # more than numpy can allocate at all
    ], ids=["num-filters", "lstm-hidden"])
    def test_config_too_large_to_build(self, tmp_path, field, value):
        path = tmp_path / "model.ckpt"
        model = desk_model()
        save_checkpoint(model, path)
        record = json.dumps({**model.config.__dict__, field: value}).encode()
        path.write_bytes(replace_record(path.read_bytes(), 0, record))
        with pytest.raises(ParseError, match="cannot build the model") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_old_version_says_retrain(self, tmp_path, version):
        path = tmp_path / "old.ckpt"
        save_checkpoint(desk_model(), path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", version) + data[8:])
        with pytest.raises(ParseError, match=f"version {version}.*retrain") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("index, record, message", [
        (1, b'{"w2": 2}', "malformed token record"),
        (1, b'["<unk>", "<pad>", "w2", "w2"]', "malformed token record"),
        (1, b'["<unk>", 7]', "malformed token record"),
        (1, b"[]", "malformed token record"),
        (1, b'["\xff"', "malformed token record"),
        (2, b'["negative", "negative"]', "malformed label record"),
        (2, b'["neg\xff"]', "malformed label record"),
        (2, b'["only"]', "not a list of 2 or more distinct label names"),
    ], ids=["tokens-not-a-list", "duplicate-token", "non-string-token", "no-tokens",
            "tokens-bad-json", "duplicate-label", "labels-bad-utf8", "too-few-labels"])
    def test_malformed_name_records(self, tmp_path, index, record, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(desk_model(), path)
        path.write_bytes(replace_record(path.read_bytes(), index, record))
        with pytest.raises(ParseError, match=message) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
