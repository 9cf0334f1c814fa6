"""Span tracing from outside the program, for the benchmark's traced runs.

Each traced name is a public function or method of a `sentihier` module.
A function is replaced in every `sentihier` module that holds it, because
modules import functions by name (`cli` has its own `fit`,
`cross_validate`, `load_checkpoint`, ...); a method is replaced on its class.
Everything is restored when the `Tracer.installed()` block ends.

Spans live in memory as (id, name, start, end, parent, fold, doc) and are
written once, at the end of the run. `fold` is the cross-validation fold the
span ran in; `doc` is the ordinal of the most recent `HiCnnLstmModel.forward`
call, so a document's backward spans carry the id of its forward pass.
"""

import functools
import json
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

# Span name -> (module, attribute, the end-to-end metric it should move).
SPANS = {
    "layers.conv.forward": ("sentihier.layers", "ConvLayer.forward", "docs_per_s: all"),
    "layers.conv.backward": ("sentihier.layers", "ConvLayer.backward",
                             "docs_per_s: train-jira, crossval-apps; none on predict-batch"),
    "layers.dense.forward": ("sentihier.layers", "DenseLayer.forward", "docs_per_s: all"),
    "layers.dense.backward": ("sentihier.layers", "DenseLayer.backward",
                              "docs_per_s: train-jira, crossval-apps; none on predict-batch"),
    "layers.lstm_fwd.run": ("sentihier.layers", "LstmCell.run", "docs_per_s: all"),
    "layers.lstm_bwd.run": ("sentihier.layers", "LstmCell.run", "docs_per_s: all"),
    "layers.lstm_fwd.backward": ("sentihier.layers", "LstmCell.backward",
                                 "docs_per_s: train-jira, crossval-apps; none on predict-batch"),
    "layers.lstm_bwd.backward": ("sentihier.layers", "LstmCell.backward",
                                 "docs_per_s: train-jira, crossval-apps; none on predict-batch"),
    "layers.sentence_matrix": ("sentihier.layers", "sentence_matrix", "docs_per_s: all"),
    "layers.head.probs": ("sentihier.layers", "SoftmaxHead.probs", "docs_per_s: all"),
    "layers.head.loss_and_grads": ("sentihier.layers", "SoftmaxHead.loss_and_grads",
                                   "docs_per_s: train-jira, crossval-apps"),
    "train.adam.step": ("sentihier.train", "AdamState.step",
                        "docs_per_s: train-jira, crossval-apps; none on predict-batch"),
    "train.fit": ("sentihier.train", "fit", "docs_per_s: train-jira, crossval-apps"),
    "model.snapshot": ("sentihier.model", "HiCnnLstmModel.snapshot",
                       "docs_per_s: train-jira, crossval-apps"),
    "model.restore": ("sentihier.model", "HiCnnLstmModel.restore",
                      "docs_per_s: train-jira, crossval-apps"),
    "model.forward.infer": ("sentihier.model", "HiCnnLstmModel.forward", "docs_per_s: all"),
    "model.forward.train": ("sentihier.model", "HiCnnLstmModel.forward",
                            "docs_per_s: train-jira, crossval-apps"),
    "model.loss_and_grads": ("sentihier.model", "HiCnnLstmModel.loss_and_grads",
                             "docs_per_s: train-jira, crossval-apps"),
    "model.load_checkpoint": ("sentihier.model", "load_checkpoint", "setup_s: predict-batch"),
    "model.save_checkpoint": ("sentihier.model", "save_checkpoint", "docs_per_s: train-jira"),
    "textprep.tokenize_document": ("sentihier.textprep", "tokenize_document",
                                   "docs_per_s: predict-batch; setup_s: all"),
    "textprep.index_document": ("sentihier.textprep", "index_document",
                                "docs_per_s: predict-batch; setup_s: all"),
    "textprep.build_vocab": ("sentihier.textprep", "build_vocab",
                             "setup_s: train-jira; docs_per_s: crossval-apps"),
    "embeddings.load_word2vec_binary": ("sentihier.embeddings", "load_word2vec_binary",
                                        "setup_s, peak_rss_mb: crossval-apps"),
    "embeddings.random_table": ("sentihier.embeddings", "random_table", "setup_s: train-jira"),
    "classifiers.embedding_matrix_for": ("sentihier.classifiers", "embedding_matrix_for",
                                         "docs_per_s: crossval-apps; setup_s: train-jira"),
    "evaluation.cross_validate": ("sentihier.evaluation", "cross_validate",
                                  "docs_per_s: crossval-apps"),
    "evaluation.compute_metrics": ("sentihier.evaluation", "compute_metrics",
                                   "docs_per_s: crossval-apps"),
    "baseline.nb_fit": ("sentihier.baseline", "nb_fit", "docs_per_s: crossval-apps"),
    "baseline.nb_predict": ("sentihier.baseline", "nb_predict", "docs_per_s: crossval-apps"),
    "datasets.load_from_config": ("sentihier.datasets", "load_from_config",
                                  "setup_s: train-jira, crossval-apps"),
    # The command itself: its self time is argument parsing, report and
    # manifest writing, and whatever else no traced name covers.
    "cli": ("sentihier.cli", "main", "docs_per_s: crossval-apps"),
}

# Counts and ratios taken at the same boundaries: name -> (unit, better, moves).
COUNTS = {
    "train.epochs": ("count", "lower", "docs_per_s: train-jira, crossval-apps"),
    "train.adam.steps": ("count", "lower", "docs_per_s: train-jira, crossval-apps"),
    "layers.conv.windows": ("count", "lower", "docs_per_s: all"),
    "layers.conv.pad_window_ratio": ("ratio", "lower", "docs_per_s: all"),
    "layers.lstm.steps": ("count", "lower", "docs_per_s: all"),
    "textprep.unk_ratio": ("ratio", "lower", "docs_per_s: predict-batch"),
    "embeddings.rows_used_ratio": ("ratio", "higher", "setup_s, peak_rss_mb: crossval-apps"),
}


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up.
    """
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None and s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.fold = None
        self.doc = None
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._lstm_names = weakref.WeakKeyDictionary()  # LstmCell -> span name prefix
        self._tables = weakref.WeakKeyDictionary()      # loaded table -> ids of rows used

    # -- recording -----------------------------------------------------
    def _wrap(self, name, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack
            span = [tracer._next_id, span_name, 0.0, 0.0,
                    stack[-1][0] if stack else None, tracer.fold, tracer.doc]
            tracer._next_id += 1
            stack.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- hooks that name spans or take counts ---------------------------
    def _lstm_name(self, suffix):
        return lambda args, kwargs: self._lstm_names.get(args[0], "layers.lstm") + suffix

    def _forward_name(self, args, kwargs):
        train = kwargs.get("train", args[2] if len(args) > 2 else False)
        return "model.forward.train" if train else "model.forward.infer"

    def _new_doc(self, args, kwargs):
        self.doc = 0 if self.doc is None else self.doc + 1

    def _model_built(self, args, kwargs, result):
        model = args[0]
        self._lstm_names[model.lstm_fwd] = "layers.lstm_fwd"
        self._lstm_names[model.lstm_bwd] = "layers.lstm_bwd"

    def _count_steps(self, args, kwargs, result):
        self.counts["layers.lstm.steps"] += len(args[1])

    def _count_windows(self, args, kwargs, result):
        self.counts["layers.conv.windows"] += args[1].shape[0] - args[0].filter_width + 1

    def _count_padding(self, args, kwargs, result):
        tokens, min_rows = args[0], args[2]
        if len(tokens) < min_rows:
            self.counts["pad_windows"] += 1

    def _count_unk(self, args, kwargs, result):
        for sent in result:
            self.counts["tokens"] += len(sent)
            self.counts["unk_tokens"] += sum(1 for i in sent if i == 0)

    def _count_epochs(self, args, kwargs, result):
        self.counts["train.epochs"] += len(result[1].epochs)

    def _table_loaded(self, args, kwargs, result):
        self._tables[result] = set()
        self.counts["w2v_rows_loaded"] += len(result)

    # -- installing ----------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sentihier" or name.startswith("sentihier.")}
        hooks = {
            "layers.conv.forward": {"after": self._count_windows},
            "layers.sentence_matrix": {"after": self._count_padding},
            "textprep.index_document": {"after": self._count_unk},
            "train.fit": {"after": self._count_epochs},
            "embeddings.load_word2vec_binary": {"after": self._table_loaded},
        }
        undo = []
        done = set()
        try:
            for span, (module, attr, _) in SPANS.items():
                if (module, attr) in done:
                    continue
                done.add((module, attr))
                kwargs = hooks.get(span, {})
                if attr == "LstmCell.run":
                    span, kwargs = self._lstm_name(".run"), {"after": self._count_steps}
                elif attr == "LstmCell.backward":
                    span = self._lstm_name(".backward")
                elif attr == "HiCnnLstmModel.forward":
                    span, kwargs = self._forward_name, {"before": self._new_doc}
                if not self._patch(modules, module, attr, span, kwargs, undo):
                    self.missing.append(f"{module}.{attr}")
            self._patch_plain(modules, undo)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def _patch(self, modules, module, attr, span, kwargs, undo) -> bool:
        owner = modules.get(module)
        if owner is None:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                return False
            undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span, original, **kwargs))
            return True
        original = getattr(owner, attr, None)
        if original is None:
            return False
        traced = self._wrap(span, original, **kwargs)
        if attr == "cross_validate":
            traced = self._with_folds(traced)
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, traced)
        return True

    def _with_folds(self, traced):
        """Numbers the folds of `cross_validate` through its fit_predict."""
        tracer = self

        @functools.wraps(traced)
        def run(fit_predict, *args, **kwargs):
            def per_fold(*fold_args):
                tracer.fold = 0 if tracer.fold is None else tracer.fold + 1
                return fit_predict(*fold_args)
            try:
                return traced(per_fold, *args, **kwargs)
            finally:
                tracer.fold = None
        return run

    def _patch_plain(self, modules, undo):
        """Hooks that take counts without recording a span."""
        model_mod = modules.get("sentihier.model")
        emb_mod = modules.get("sentihier.embeddings")
        if model_mod is not None and hasattr(model_mod, "HiCnnLstmModel"):
            cls = model_mod.HiCnnLstmModel
            init = cls.__init__

            @functools.wraps(init)
            def built(model, *args, **kwargs):
                init(model, *args, **kwargs)
                self._model_built((model,), {}, None)
            undo.append((cls, "__init__", init))
            cls.__init__ = built
        if emb_mod is not None and hasattr(emb_mod, "EmbeddingTable"):
            cls = emb_mod.EmbeddingTable
            lookup = cls.lookup
            tables, counts = self._tables, self.counts

            @functools.wraps(lookup)
            def counted(table, token):
                vec = lookup(table, token)
                used = tables.get(table)
                if used is not None and vec is not table.oov_vector and id(vec) not in used:
                    used.add(id(vec))
                    counts["w2v_rows_used"] += 1
                return vec
            undo.append((cls, "lookup", lookup))
            cls.lookup = counted

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metric name -> value, for every SPANS and COUNTS name."""
        own = self_times(self.spans)
        calls, self_ms = Counter(), Counter()
        infer_ms = []
        for s in self.spans:
            calls[s[1]] += 1
            self_ms[s[1]] += own[s[0]] * 1e3
            if s[1] == "model.forward.infer":
                infer_ms.append((s[3] - s[2]) * 1e3)
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        out["model.forward.infer.p50_ms"] = percentile(infer_ms, 50) if infer_ms else 0.0
        out["model.forward.infer.p99_ms"] = percentile(infer_ms, 99) if infer_ms else 0.0
        c = self.counts
        out["train.epochs"] = c["train.epochs"]
        out["train.adam.steps"] = calls["train.adam.step"]
        out["layers.conv.windows"] = c["layers.conv.windows"]
        out["layers.conv.pad_window_ratio"] = (c["pad_windows"] / c["layers.conv.windows"]
                                               if c["layers.conv.windows"] else 0.0)
        out["layers.lstm.steps"] = c["layers.lstm.steps"]
        out["textprep.unk_ratio"] = c["unk_tokens"] / c["tokens"] if c["tokens"] else 0.0
        out["embeddings.rows_used_ratio"] = (c["w2v_rows_used"] / c["w2v_rows_loaded"]
                                             if c["w2v_rows_loaded"] else 0.0)
        return out

    def write(self, path):
        """All spans as JSON lines, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                                     "parent": s[4], "fold": s[5], "doc": s[6]}) + "\n")
