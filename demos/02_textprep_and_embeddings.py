"""Walk a raw developer comment through sentence splitting, tokenization,
vocabulary construction, and embedding lookup.
"""

from sentihier.classifiers import embedding_matrix_for
from sentihier.embeddings import random_table
from sentihier.textprep import build_vocab, index_document, tokenize_document

text = ("The build is broken again, e.g. the CI fails on every commit! "
        "See https://ci.example.com/job/42 for logs. Can someone take a look?")

doc = tokenize_document(text)
for i, sentence in enumerate(doc.sentences):
    print(f"sentence {i}: {sentence}")

vocab = build_vocab([doc])
print(f"\nvocabulary size (incl. <unk>): {len(vocab)}")

indexed = index_document(doc, vocab)
print(f"indexed first sentence: {indexed[0]}")

# With no pretrained file at hand, the vocabulary's vectors are hashed as one
# matrix, but each row depends only on (seed, token): the same no matter
# what else is in the vocabulary, which makes per-fold vocabularies
# reproducible.
vectors = random_table(["broken", "build"], dim=8, seed=3)  # row i for token i
print(f"\nrandom vector for 'broken': {vectors[0][:4]} ...")

matrix = embedding_matrix_for(vocab, None, 8, embedding_seed=3)
print(f"embedding matrix shape: {matrix.shape}; UNK row is all zero: "
      f"{not matrix[0].any()}")
