import pytest

from sentihier.datasets import (
    LabeledDataset,
    load_csv,
    load_dataset_config,
    load_from_config,
    verify_distribution,
)
from sentihier.errors import ConfigurationError, ParseError


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_quoted_comma_preserved(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     'text,label\n"works, mostly",positive\nbad,negative\nok,positive\n')
        ds = load_csv(path, "text", "label")
        assert len(ds.samples) == 3
        assert ds.samples[0][0] == "works, mostly"

    def test_embedded_newline_and_doubled_quotes(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     'text,label\n"line one\nline ""two""",negative\nfine,positive\n')
        ds = load_csv(path, "text", "label")
        assert ds.samples[0][0] == 'line one\nline "two"'

    def test_empty_text_rejected_with_row_number(self, tmp_path):
        path = write(tmp_path, "d.csv", "text,label\nhello,positive\n,negative\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path, "text", "label")

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "text,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path, "text", "label")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "body,label\nx,positive\n")
        with pytest.raises(ParseError, match="text"):
            load_csv(path, "text", "label")

    def test_labels_lowercased_and_order_preserved(self, tmp_path):
        path = write(tmp_path, "d.csv", "text,label\na,Positive\nb,NEGATIVE\n")
        ds = load_csv(path, "text", "label")
        assert [lab for _, lab in ds.samples] == ["positive", "negative"]
        assert ds.label_set == ("negative", "positive")

    def test_utf8_byte_order_mark_is_read_past(self, tmp_path):
        # As Excel saves a UTF-8 CSV: the mark would otherwise begin the
        # first column's name.
        path = tmp_path / "d.csv"
        path.write_bytes("\ufefftext,label\na,positive\nb,negative\n".encode("utf-8"))
        ds = load_csv(path, "text", "label")
        assert ds.samples == (("a", "positive"), ("b", "negative"))

    def test_three_class_order(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "text,label\na,neutral\nb,positive\nc,negative\n")
        ds = load_csv(path, "text", "label")
        assert ds.label_set == ("negative", "neutral", "positive")


def mapped_labels(tmp_path, mapping, labels):
    path = write(tmp_path, "d.csv", "text,label\n" + "".join(f"doc,{lab}\n" for lab in labels))
    return [lab for _, lab in load_csv(path, "text", "label", label_mapping=mapping).samples]


class TestJiraMapping:
    def test_emotion_to_polarity_mapping(self, tmp_path):
        assert mapped_labels(tmp_path, "jira_emotions",
                             ["joy", "Love", "sadness", "ANGER", "JOY", "Sadness"]) == [
            "positive", "positive", "negative", "negative", "positive", "negative"]

    def test_excluded_emotion_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"d\.csv: row 3: label 'surprise' is not one of "
                                             r"\['anger', 'joy', 'love', 'sadness'\]"):
            mapped_labels(tmp_path, "jira_emotions", ["joy", "Surprise", "anger"])

    def test_applied_through_load(self, tmp_path):
        path = write(tmp_path, "jira.csv",
                     "text,label\nyay,joy\nugh,anger\nnice,love\n")
        ds = load_csv(path, "text", "label", label_mapping="jira_emotions")
        assert set(lab for _, lab in ds.samples) == {"positive", "negative"}
        assert len(ds.samples) == 3


class TestGerritMapping:
    def test_merge_rule(self, tmp_path):
        assert mapped_labels(tmp_path, "gerrit_merge",
                             ["positive", "neutral", "negative", "Non-Negative"]) == [
            "non-negative", "non-negative", "negative", "non-negative"]
        with pytest.raises(ParseError, match="row 2: label 'joy' is not one of"):
            mapped_labels(tmp_path, "gerrit_merge", ["joy", "negative"])

    def test_two_class_result(self, tmp_path):
        path = write(tmp_path, "g.csv",
                     "text,label\na,positive\nb,neutral\nc,negative\n")
        ds = load_csv(path, "text", "label", label_mapping="gerrit_merge")
        assert ds.label_set == ("negative", "non-negative")


class TestVerifyDistribution:
    def test_balanced_passes(self):
        ds = LabeledDataset("x", (("a", "negative"), ("b", "positive")),
                            ("negative", "positive"))
        assert verify_distribution(ds, {"negative": 50.0, "positive": 50.0}) == []

    def test_deviation_flagged(self):
        ds = LabeledDataset("x", (("a", "negative"), ("b", "negative"), ("c", "positive")),
                            ("negative", "positive"))
        warnings = verify_distribution(ds, {"negative": 50.0, "positive": 50.0})
        assert len(warnings) == 2

    def test_bad_expected_sum(self):
        ds = LabeledDataset("x", (("a", "negative"),), ("negative",))
        with pytest.raises(ConfigurationError):
            verify_distribution(ds, {"negative": 80.0})


class TestDatasetConfig:
    def test_round_trip(self, tmp_path):
        write(tmp_path, "d.csv", "body,sentiment\nhello there,positive\nbad news,negative\n")
        cfg_path = write(tmp_path, "d.conf", "\n".join([
            "name = demo",
            "path = d.csv",
            "text_column = body",
            "label_column = sentiment",
            "expected_samples = 2",
            "expected_distribution = negative:50,positive:50",
        ]))
        cfg = load_dataset_config(cfg_path)
        ds, warnings = load_from_config(cfg)
        assert ds.name == "demo" and len(ds.samples) == 2
        assert warnings == []

    def test_utf8_byte_order_mark_is_read_past(self, tmp_path):
        write(tmp_path, "d.csv", "text,label\na,positive\n")
        cfg_path = tmp_path / "d.conf"
        cfg_path.write_bytes("\ufeffname = demo\npath = d.csv\ntext_column = text\n"
                             "label_column = label\n".encode("utf-8"))
        cfg = load_dataset_config(cfg_path)
        assert cfg.name == "demo" and cfg.text_column == "text"

    def test_a_value_may_hold_a_line_separator(self, tmp_path):
        # str.splitlines would end the line at U+2028 and report "set" as a
        # malformed line 2.
        cfg_path = write(tmp_path, "d.conf", "name = demo\u2028set\npath = d.csv\n"
                         "text_column = text\nlabel_column = label\n")
        assert load_dataset_config(cfg_path).name == "demo\u2028set"

    def test_a_form_feed_in_a_value_keeps_the_line_numbers(self, tmp_path):
        cfg_path = write(tmp_path, "d.conf", "name = demo\fset\npath = d.csv\n"
                         "no equals sign here\ntext_column = text\nlabel_column = label\n")
        with pytest.raises(ConfigurationError, match=r"d\.conf: line 3: expected key=value$"):
            load_dataset_config(cfg_path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_end_a_line(self, tmp_path, newline):
        cfg_path = tmp_path / "d.conf"
        cfg_path.write_bytes(newline.join(["name = demo", "path = d.csv", "text_column = text",
                                           "label_column = label", "oops"]).encode("utf-8"))
        with pytest.raises(ConfigurationError, match=r"line 5: expected key=value$"):
            load_dataset_config(cfg_path)
        cfg_path.write_bytes(newline.join(["name = demo", "path = d.csv", "text_column = text",
                                           "label_column = label"]).encode("utf-8"))
        assert load_dataset_config(cfg_path).label_column == "label"

    def test_missing_key(self, tmp_path):
        cfg_path = write(tmp_path, "d.conf", "name = demo\npath = d.csv\n")
        with pytest.raises(ConfigurationError, match="text_column"):
            load_dataset_config(cfg_path)

    def test_unknown_key_names_file_line_and_key(self, tmp_path):
        # A typo must not switch the sample-count check off unannounced.
        cfg_path = write(tmp_path, "d.conf", "\n".join([
            "name = demo", "path = d.csv", "text_column = text",
            "label_column = label", "expected_sample = 926",
        ]))
        with pytest.raises(ConfigurationError) as info:
            load_dataset_config(cfg_path)
        message = str(info.value)
        assert str(cfg_path) in message and "line 5" in message
        assert "'expected_sample'" in message

    def test_repeated_key_names_file_line_and_key(self, tmp_path):
        cfg_path = write(tmp_path, "d.conf", "\n".join([
            "name = demo", "path = d.csv", "text_column = text",
            "# a comment", "label_column = label", "path = other.csv",
        ]))
        with pytest.raises(ConfigurationError) as info:
            load_dataset_config(cfg_path)
        message = str(info.value)
        assert str(cfg_path) in message and "line 6" in message and "'path'" in message

    def test_expected_samples_that_is_not_an_integer_names_file_and_key(self, tmp_path):
        cfg_path = write(tmp_path, "d.conf", "\n".join([
            "name = demo", "path = d.csv", "text_column = text",
            "label_column = label", "expected_samples = abc",
        ]))
        with pytest.raises(ConfigurationError) as info:
            load_dataset_config(cfg_path)
        assert str(cfg_path) in str(info.value)
        assert "expected_samples" in str(info.value) and "'abc'" in str(info.value)

    def test_sample_count_warning(self, tmp_path):
        write(tmp_path, "d.csv", "text,label\na,positive\nb,negative\n")
        cfg_path = write(tmp_path, "d.conf", "\n".join([
            "name = demo", "path = d.csv", "text_column = text",
            "label_column = label", "expected_samples = 5",
        ]))
        _, warnings = load_from_config(load_dataset_config(cfg_path))
        assert len(warnings) == 1 and "expected 5" in warnings[0]
