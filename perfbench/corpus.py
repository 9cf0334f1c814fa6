"""Seeded inputs for the benchmark workloads.

Every generator returns bytes, so a caller can check that one seed always
gives byte-identical inputs. Document *shapes* (sentence counts and sentence
lengths in tokens) come from a fixed stream that does not depend on the seed,
so every seed asks the model for the same amount of work; the seed chooses
the words, the labels' placement and the order of documents. That keeps run
to run spread down to the machine's own noise.
"""

import csv
import io

import numpy as np

POSITIVE = (
    "great", "thanks", "love", "awesome", "nice", "perfect", "glad", "excellent",
    "happy", "appreciate", "brilliant", "fantastic", "helpful", "smooth", "cool",
    "wonderful", "pleased", "elegant", "solid", "neat", "amazing", "enjoy",
    "superb", "grateful",
)
NEGATIVE = (
    "broken", "fails", "crash", "annoying", "wrong", "terrible", "hate", "slow",
    "ugly", "frustrating", "useless", "stuck", "awful", "sadly", "horrible",
    "worse", "angry", "disappointed", "mess", "painful", "upset",
    "unfortunately", "ridiculous", "garbage",
)
NEUTRAL = (
    "question", "wondering", "maybe", "request", "suggest", "perhaps", "option",
    "setting", "curious", "whether",
)
CUES = {"positive": POSITIVE, "negative": NEGATIVE, "neutral": NEUTRAL}

# Jira emotion labels, written in mixed case: the loader lowercases, then maps.
JIRA_EMOTIONS = {"positive": ("Love", "joy", "JOY"), "negative": ("anger", "Sadness", "ANGER")}
JIRA_COUNTS = {"negative": 636, "positive": 290}                     # 926 docs, 68.7/31.3
APPS_COUNTS = {"negative": 130, "neutral": 25, "positive": 186}      # 341 docs, 38.2/7.3/54.5
PREP_COUNTS = {"negative": 80, "positive": 40}

ABBREVIATIONS = ("e.g.", "i.e.", "etc.", "vs.", "approx.")
URLS = ("https://issues.example.org/browse/PRJ-{n}", "www.example.com/docs/{n}",
        "http://ci.example.net/job/{n}/console")
PUNCT_ONLY = ("...", "?!", "!!!", "--", "(?)", ":-)")

_SYLLABLES = ("ba", "ke", "lo", "mi", "nu", "ra", "se", "ti", "vo", "za", "pre",
              "con", "dis", "ter", "ion", "ent", "al", "or", "ex", "un")
_SHAPE_SEED = 0x5EED5  # fixed: shapes never depend on the workload seed
FILLER_WORDS = 1500
W2V_EXTRA_WORDS = 30000
W2V_DIM = 300


def _unique_words(rng, count: int, exclude, lo: int, hi: int) -> list:
    """`count` distinct made-up words of lo..hi syllables, none in `exclude`."""
    seen = set(exclude)
    words = []
    while len(words) < count:
        n = count - len(words)
        lengths = rng.integers(lo, hi + 1, n).tolist()
        syllables = rng.integers(0, len(_SYLLABLES), (n, hi)).tolist()
        for length, row in zip(lengths, syllables):
            w = "".join(_SYLLABLES[i] for i in row[:length])
            if w not in seen:
                seen.add(w)
                words.append(w)
    return words


def filler_pool() -> tuple:
    """The fixed 'language' that documents draw their neutral words from."""
    rng = np.random.default_rng([_SHAPE_SEED, 1])
    reserved = set(POSITIVE) | set(NEGATIVE) | set(NEUTRAL)
    return tuple(_unique_words(rng, FILLER_WORDS, reserved, 1, 3))


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** 0.9
    return w / w.sum()


def _shapes(count: int, sent_choices, sent_probs, len_lo: int, len_hi: int, stream: int):
    """Fixed per-document lists of sentence lengths."""
    rng = np.random.default_rng([_SHAPE_SEED, stream])
    shapes = []
    for _ in range(count):
        n_sents = int(rng.choice(sent_choices, p=sent_probs))
        shapes.append([int(x) for x in rng.integers(len_lo, len_hi + 1, n_sents)])
    return shapes


class _Writer:
    """Turns sentence shapes into text; every generated piece is one token."""

    def __init__(self, rng):
        self.rng = rng
        self.filler = filler_pool()
        self.cdf = np.cumsum(_zipf_weights(len(self.filler)))

    def pick(self, options):
        return options[int(self.rng.integers(0, len(options)))]

    def sentence(self, length: int, cues=()) -> str:
        rng = self.rng
        ranks = np.minimum(np.searchsorted(self.cdf, rng.random(length)), len(self.filler) - 1)
        words = [self.filler[i] for i in ranks]
        if length >= 4:
            roll = rng.random()
            pos = int(rng.integers(1, length - 1))  # never last: an abbreviation must not end a sentence
            if roll < 0.06:
                words[pos] = self.pick(ABBREVIATIONS)
            elif roll < 0.10:
                words[pos] = self.pick(URLS).format(n=int(rng.integers(1, 9999)))
            elif roll < 0.25:
                words[pos] = words[pos] + ","
        for cue in cues:
            words[int(rng.integers(0, length))] = cue
        words[0] = words[0].capitalize()
        return " ".join(words) + self.pick(".!?.")

    def document(self, shape, label: str, noise: float) -> str:
        """A labelled document: one or two cue words of its class, and with
        probability `noise` one cue of another class."""
        rng = self.rng
        cues = [[] for _ in shape]
        for _ in range(1 + int(rng.random() < 0.5)):
            cues[int(rng.integers(0, len(shape)))].append(self.pick(CUES[label]))
        if rng.random() < noise:
            other = [c for c in ("positive", "negative") if c != label]
            cues[int(rng.integers(0, len(shape)))].append(self.pick(CUES[self.pick(other)]))
        sents = []
        for length, sent_cues in zip(shape, cues):
            # A cue list longer than the sentence would overwrite itself.
            sents.append(self.sentence(length, sent_cues[:length]))
        return " ".join(sents)


def _labelled_csv(seed: int, stream: int, counts: dict, shapes, noise: float,
                  label_text=lambda lab, writer: lab) -> bytes:
    rng = np.random.default_rng([seed, stream])
    writer = _Writer(rng)
    labels = [lab for lab in sorted(counts) for _ in range(counts[lab])]
    order = rng.permutation(len(labels))
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["id", "text", "label"])
    for row, (doc_ix, shape) in enumerate(zip(order, shapes)):
        label = labels[doc_ix]
        out.writerow([row + 1, writer.document(shape, label, noise), label_text(label, writer)])
    return buf.getvalue().encode("utf-8")


def jira_csv(seed: int) -> bytes:
    """926 Jira-shaped comments: 1-4 sentences of 5-25 tokens, emotion labels."""
    shapes = _shapes(sum(JIRA_COUNTS.values()), [1, 2, 3, 4], [0.35, 0.3, 0.2, 0.15],
                     5, 25, stream=2)
    return _labelled_csv(seed, 2, JIRA_COUNTS, shapes, noise=0.15,
                         label_text=lambda lab, writer: writer.pick(JIRA_EMOTIONS[lab]))


def apps_csv(seed: int) -> bytes:
    """341 app reviews, three classes, short sentences (many below width 5)."""
    shapes = _shapes(sum(APPS_COUNTS.values()), [1, 2, 3], [0.5, 0.35, 0.15],
                     1, 12, stream=3)
    return _labelled_csv(seed, 3, APPS_COUNTS, shapes, noise=0.1)


def prep_csv(seed: int) -> bytes:
    """Small two-class corpus that trains the checkpoint predict-batch uses."""
    shapes = _shapes(sum(PREP_COUNTS.values()), [1, 2, 3], [0.4, 0.4, 0.2], 4, 20, stream=4)
    return _labelled_csv(seed, 4, PREP_COUNTS, shapes, noise=0.1)


def predict_lines(seed: int, count: int = 1000) -> bytes:
    """Raw lines with long-tailed lengths, URLs, guarded abbreviations,
    punctuation-only lines, sentences shorter than the filter width and
    out-of-vocabulary words."""
    shape_rng = np.random.default_rng([_SHAPE_SEED, 5])
    rng = np.random.default_rng([seed, 5])
    writer = _Writer(rng)
    oov = _unique_words(rng, 200, writer.filler, 4, 5)
    lines = []
    for _ in range(count):
        kind = shape_rng.random()
        if kind < 0.04:
            lines.append(writer.pick(PUNCT_ONLY))
            continue
        # Pareto tail: most lines have 1-3 sentences, a few have dozens.
        n_sents = min(1 + int(shape_rng.pareto(1.6)), 60)
        lengths = shape_rng.integers(1, 26, n_sents)
        sents = []
        for length in lengths:
            cues = [writer.pick(CUES[writer.pick(("positive", "negative"))])]
            if length >= 3 and rng.random() < 0.3:
                cues.append(writer.pick(oov))
            sents.append(writer.sentence(int(length), cues[:int(length)]))
        lines.append(" ".join(sents))
    return ("\n".join(lines) + "\n").encode("utf-8")


def word2vec_bin(seed: int) -> bytes:
    """Binary word2vec table whose vocabulary is far larger than any corpus's.

    Cue words share a direction per class, as sentiment words tend to in
    pretrained vectors. Some filler words are stored capitalised only, so the
    loader's case fallback is used; a few are missing, so some corpus words
    are out of vocabulary.
    """
    rng = np.random.default_rng([seed, 6])
    filler = filler_pool()
    direction = {c: rng.normal(0.0, 1.0, W2V_DIM) for c in CUES}
    words, vecs = [], []
    for cls, cues in CUES.items():
        for w in cues:
            words.append(w)
            vecs.append(rng.normal(0.0, 0.1, W2V_DIM) + 0.15 * direction[cls])
    for i, w in enumerate(filler):
        if i % 50 == 49:
            continue
        words.append(w.capitalize() if i % 7 == 3 else w)
        vecs.append(rng.normal(0.0, 0.1, W2V_DIM))
    extra = _unique_words(rng, W2V_EXTRA_WORDS, set(filler) | set(words), 3, 5)
    matrix = np.vstack([np.array(vecs), rng.normal(0.0, 0.1, (len(extra), W2V_DIM))])
    words += extra
    order = rng.permutation(len(words))
    rows = matrix.astype("<f4")
    records = (words[i].encode("utf-8") + b" " + rows[i].tobytes() + b"\n" for i in order)
    return f"{len(words)} {W2V_DIM}\n".encode("ascii") + b"".join(records)


def prep_config(csv_name: str) -> bytes:
    return (f"name = prep\npath = {csv_name}\ntext_column = text\nlabel_column = label\n"
            f"expected_samples = {sum(PREP_COUNTS.values())}\n").encode("utf-8")



GENERATORS = {"jira_csv": jira_csv, "apps_csv": apps_csv, "prep_csv": prep_csv,
              "predict_lines": predict_lines, "word2vec_bin": word2vec_bin}


def main(argv) -> int:
    """`corpus.py SEED GENERATOR=PATH ...`: writes each input, generating it
    twice to check that the seed alone decides its bytes."""
    seed = int(argv[0])
    for spec in argv[1:]:
        name, _, path = spec.partition("=")
        data = GENERATORS[name](seed)
        if GENERATORS[name](seed) != data:
            print(f"{name}: seed {seed} gave different bytes on a second call")
            return 1
        with open(path, "wb") as fh:
            fh.write(data)
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main(sys.argv[1:]))
