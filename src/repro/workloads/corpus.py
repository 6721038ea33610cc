"""Synthetic text corpus standing in for the Alvis collection (Sec. 5.1).

The paper indexes keyword keys extracted from a proprietary information-
retrieval corpus (project Alvis).  We reproduce its statistically relevant
properties instead of its content:

* a vocabulary whose term frequencies follow Zipf's law,
* word shapes with realistic length distribution and letter bias, so the
  order-preserving key encoding produces the clustered key-space skew an
  inverted file over natural language exhibits,
* documents as bags of words, with a keyword-extraction step (stopword
  and frequency filtering) mirroring the paper's "text extraction
  function" whose replacement forces re-indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from .._util import RngLike, make_rng
from ..exceptions import DomainError
from ..pgrid.keyspace import string_to_key

__all__ = ["SyntheticCorpus", "Document", "extract_keywords"]

#: Letter frequencies loosely following English, so generated words cluster
#: in the key space like natural terms do (e.g. many words starting with
#: 's', 't', 'c' -- visible skew under order-preserving encoding).
_LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
_LETTER_WEIGHTS = [
    12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8, 2.4,
    2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.2, 0.1, 0.1,
]


@dataclass
class Document:
    """A document: an id and its term sequence."""

    doc_id: int
    terms: List[str]

    def term_set(self) -> Set[str]:
        """Distinct terms."""
        return set(self.terms)


@dataclass
class SyntheticCorpus:
    """Generator for an Alvis-like document collection.

    The vocabulary is fixed at construction (deterministically from the
    RNG), term draws follow ``rank^-zipf_exponent``, and helper methods
    expose exactly what the experiments need: per-peer key sets for
    overlay construction and keyword postings for the IR example.
    """

    vocabulary_size: int = 2000
    zipf_exponent: float = 1.0
    min_word_length: int = 3
    max_word_length: int = 10
    rng: RngLike = None
    vocabulary: List[str] = field(init=False)

    def __post_init__(self):
        if self.vocabulary_size < 10:
            raise DomainError("vocabulary_size must be at least 10")
        if not self.min_word_length <= self.max_word_length:
            raise DomainError("min_word_length must not exceed max_word_length")
        rand = make_rng(self.rng)
        words: Set[str] = set()
        while len(words) < self.vocabulary_size:
            length = rand.randint(self.min_word_length, self.max_word_length)
            word = "".join(
                rand.choices(_LETTERS, weights=_LETTER_WEIGHTS, k=length)
            )
            words.add(word)
        self.vocabulary = sorted(words)
        rand.shuffle(self.vocabulary)  # rank != alphabetical order
        self._weights = [
            1.0 / (rank + 1) ** self.zipf_exponent
            for rank in range(self.vocabulary_size)
        ]

    # -- sampling ---------------------------------------------------------

    def sample_term(self, rng: RngLike = None) -> str:
        """Draw one term with Zipf probability."""
        rand = make_rng(rng)
        return rand.choices(self.vocabulary, weights=self._weights, k=1)[0]

    def sample_term_key(self, rng: RngLike = None) -> int:
        """Draw one term and return its order-preserving integer key."""
        return string_to_key(self.sample_term(rng))

    def generate_documents(
        self, n_docs: int, terms_per_doc: int = 50, rng: RngLike = None
    ) -> List[Document]:
        """Generate ``n_docs`` bag-of-words documents."""
        rand = make_rng(rng)
        docs = []
        for doc_id in range(n_docs):
            terms = rand.choices(self.vocabulary, weights=self._weights, k=terms_per_doc)
            docs.append(Document(doc_id=doc_id, terms=terms))
        return docs

    def postings(self, documents: Sequence[Document]) -> Dict[str, Set[int]]:
        """Inverted file: term -> set of doc ids containing it."""
        index: Dict[str, Set[int]] = {}
        for doc in documents:
            for term in doc.term_set():
                index.setdefault(term, set()).add(doc.doc_id)
        return index


def extract_keywords(
    document: Document,
    *,
    max_keywords: int = 10,
    stopword_rank_fraction: float = 0.01,
    corpus: SyntheticCorpus | None = None,
) -> List[str]:
    """A simple "text extraction function" (Sec. 1's re-indexing trigger).

    Filters the document's most frequent terms, dropping corpus-global
    stopwords (the top ``stopword_rank_fraction`` of the vocabulary by
    Zipf rank when a corpus is supplied).  Swapping this function for a
    different one changes the key set and therefore forces overlay
    re-construction -- the scenario motivating the paper.
    """
    if max_keywords < 1:
        raise DomainError("max_keywords must be >= 1")
    stop: Set[str] = set()
    if corpus is not None:
        n_stop = max(1, int(len(corpus.vocabulary) * stopword_rank_fraction))
        stop = set(corpus.vocabulary[:n_stop])
    counts: Dict[str, int] = {}
    for term in document.terms:
        if term not in stop:
            counts[term] = counts.get(term, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [term for term, _ in ranked[:max_keywords]]
