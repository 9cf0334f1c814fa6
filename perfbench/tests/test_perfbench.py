"""Tests of the benchmark's own code: input generation, span arithmetic,
tracing and the result line.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import csv
import io
import json
import shutil

import pytest

import corpus
import run
import tracing
import workloads
from conftest import ROOT
from sentihier import cli
from sentihier.datasets import load_dataset_config, load_from_config
from sentihier.embeddings import load_word2vec_binary
from sentihier.textprep import tokenize_document

SMALL_MODEL = ["--override", "embedding_dim=8", "--override", "filter_width=3",
               "--override", "num_filters=4", "--override", "sentence_dim=4",
               "--override", "lstm_hidden=3", "--override", "max_epochs=1",
               "--override", "patience=1"]


def rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def load_through_shipped_config(tmp_path, conf_name, data):
    conf = tmp_path / conf_name
    shutil.copyfile(ROOT / "configs" / conf_name, conf)
    load_dataset_config(conf).path.write_bytes(data)
    return load_from_config(load_dataset_config(conf))


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_generators_depend_on_the_seed_alone(name):
    make = corpus.GENERATORS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_jira_corpus_has_the_paper_shape(tmp_path):
    ds, warnings = load_through_shipped_config(tmp_path, "jira.conf", corpus.jira_csv(5))
    assert warnings == []
    assert len(ds.samples) == 926
    assert ds.class_counts == {"negative": 636, "positive": 290}
    raw = {r["label"] for r in rows(corpus.jira_csv(5))}
    assert raw <= {"Love", "joy", "JOY", "anger", "Sadness", "ANGER"}
    for text in ds.texts():
        sents = tokenize_document(text).sentences
        assert 1 <= len(sents) <= 4
        assert all(5 <= len(s) <= 25 for s in sents)


def test_apps_corpus_has_three_classes_and_short_sentences(tmp_path):
    ds, warnings = load_through_shipped_config(tmp_path, "app_reviews.conf", corpus.apps_csv(5))
    assert warnings == []
    assert ds.class_counts == {"negative": 130, "neutral": 25, "positive": 186}
    lengths = [len(s) for text in ds.texts() for s in tokenize_document(text).sentences]
    assert min(lengths) == 1 and max(lengths) <= 12
    assert sum(n < 5 for n in lengths) > len(lengths) / 5


def test_every_seed_asks_for_the_same_model_work():
    def shape(seed):
        return [tuple(len(s) for s in tokenize_document(r["text"]).sentences)
                for r in rows(corpus.jira_csv(seed))]
    assert shape(1) == shape(2)
    assert sorted(shape(1)) == sorted(tuple(s) for s in corpus._shapes(
        926, [1, 2, 3, 4], [0.35, 0.3, 0.2, 0.15], 5, 25, stream=2))


def test_predict_lines_cover_the_awkward_cases():
    lines = corpus.predict_lines(5).decode("utf-8").splitlines()
    assert len(lines) == 1000
    text = "\n".join(lines)
    assert "https://" in text and "www." in text
    assert any(a in text for a in corpus.ABBREVIATIONS)
    assert sum(line in corpus.PUNCT_ONLY for line in lines) > 10
    sentence_counts = [len(tokenize_document(line).sentences) for line in lines]
    assert max(sentence_counts) >= 20 and sorted(sentence_counts)[len(lines) // 2] <= 2
    assert any(len(s) < 5 for line in lines for s in tokenize_document(line).sentences)


def test_word2vec_table_is_far_larger_than_the_corpus(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(corpus.word2vec_bin(5))
    table = load_word2vec_binary(path)
    assert table.dim == corpus.W2V_DIM
    assert len(table) > corpus.W2V_EXTRA_WORDS
    assert "great" in table
    capitalised = [w for w in corpus.filler_pool() if w not in table and w.capitalize() in table]
    assert capitalised and table.lookup(capitalised[0]) is not table.oov_vector


def test_self_time_subtracts_direct_children_only():
    # id, name, start, end, parent, fold, doc
    spans = [[1, "child", 1.0, 3.0, 0, None, None],
             [2, "grandchild", 1.5, 2.5, 1, None, None],
             [3, "child", 4.0, 5.0, 0, None, None],
             [0, "root", 0.0, 10.0, None, None, None]]
    own = tracing.self_times(spans)
    assert own == {0: 7.0, 1: 1.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == 10.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([7.0], 99) == 7.0


@pytest.fixture
def small_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prep.csv").write_bytes(corpus.prep_csv(1))
    conf = tmp_path / "prep.conf"
    conf.write_bytes(corpus.prep_config("prep.csv"))
    return conf


def test_tracer_wraps_names_where_they_are_looked_up(small_corpus):
    import sentihier.train
    original = sentihier.train.fit
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.fit is not original and sentihier.classifiers.fit is cli.fit
        code = run.run_command(cli, ["train", "--dataset", str(small_corpus),
                                     "--out", "m.ckpt", *SMALL_MODEL]).code
    assert code == 0
    assert cli.fit is original and sentihier.train.fit is original
    assert tracer.missing == []
    m = tracer.metrics()
    assert m["cli.calls"] == 1 and m["train.fit.calls"] == 1
    assert m["train.epochs"] == 1 and m["train.adam.steps"] == m["train.adam.step.calls"] > 0
    assert m["layers.lstm_fwd.run.calls"] == m["layers.lstm_bwd.run.calls"] == 120
    assert m["layers.lstm_fwd.backward.calls"] == 120 - 12   # 10% held out for validation
    by_id = {s[0]: s for s in tracer.spans}
    conv = next(s for s in tracer.spans if s[1] == "layers.conv.backward")
    assert conv[6] is not None                                 # carries its document's id
    chain = []
    while conv is not None:
        chain.append(conv[1])
        conv = by_id.get(conv[4])
    assert chain[-1] == "cli" and "train.fit" in chain


def test_tracer_numbers_folds(small_corpus):
    tracer = tracing.Tracer()
    with tracer.installed():
        code = run.run_command(cli, ["crossval", "--dataset", str(small_corpus), "--folds", "3",
                                     "--classifier", "nb", "--out", "cv"]).code
    assert code == 0
    assert [s[5] for s in tracer.spans if s[1] == "baseline.nb_fit"] == [0, 1, 2]
    assert {s[5] for s in tracer.spans if s[1] == "cli"} == {None}
    m = tracer.metrics()
    assert m["evaluation.cross_validate.calls"] == 1 and m["textprep.unk_ratio"] > 0


def test_work_boundary_splits_setup_from_work(small_corpus):
    setup_only = run.run_command(cli, ["train", "--dataset", str(small_corpus), "--out", "m.ckpt",
                                       *SMALL_MODEL], boundary="fit", stop=True)
    assert setup_only.code is None and setup_only.entered is not None
    assert not (small_corpus.parent / "m.ckpt").exists()
    full = run.run_command(cli, ["train", "--dataset", str(small_corpus), "--out", "m.ckpt",
                                 *SMALL_MODEL], boundary="fit")
    assert full.code == 0 and 0 < full.setup_s < full.end - full.start
    assert cli.fit.__module__ == "sentihier.train"


def test_predict_output_check():
    check = workloads.PredictBatch()
    check.labels = ["negative", "positive"]
    assert check._valid("positive\t0.250000 0.750000")
    assert check._valid("negative\t0.5000005 0.4999995")
    assert not check._valid("positive\t0.750000 0.250000")    # label is not the argmax
    assert not check._valid("neutral\t0.250000 0.750000")
    assert not check._valid("positive\t0.250000 0.760000")
    assert not check._valid("positive\tnan 0.750000")
    assert not check._valid("positive\t0.250000")


def test_result_line_prints_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    line = json.loads(run.result_line(True, 3, 0, {"docs_per_s": 2.5}, e2e))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["docs_per_s"] == {"value": 2.5, "unit": "docs/s"}
    assert set(line["metrics"]) == set(e2e)
    assert set(tracing.Tracer().metrics()) | {"trace.overhead_pct"} == set(layer)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "train-jira", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
