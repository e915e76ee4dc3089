"""Transcript ingestion, cleaning, dedup filtering, vocabulary and encoding.

Input records arrive as JSON Lines (one utterance per line with keys
video_id, start_s, end_s, speaker, text). The cleaning/filter chain mirrors
an ASR post-processing pipeline: lowercase + strip punctuation, collapse
repeated phrases within an utterance, drop adjacent same-text utterances.
The vocabulary keeps the words of the kept utterances that occur more than
``MIN_FREQUENCY`` times; an utterance encodes to its word ids and an <eos>.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

from .errors import DataError

PAD, UNK, EOS = "<pad>", "<unk>", "<eos>"
PAD_ID, UNK_ID, EOS_ID = 0, 1, 2
_RESERVED = [PAD, UNK, EOS]

# Repeated-phrase collapse: a phrase of up to MAX_PHRASE_LEN tokens repeated
# at least MIN_REPEATS times consecutively collapses to one instance. The
# threshold of 3 keeps natural doubles ("no no") intact.
MAX_PHRASE_LEN = 8
MIN_REPEATS = 3
# A vocabulary word occurs more than MIN_FREQUENCY times in the build corpus.
MIN_FREQUENCY = 2


@dataclass
class UtteranceRecord:
    video_id: str
    start_s: float
    end_s: float
    speaker: str
    text: str

    def validate(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise DataError(f"non-finite time ({self.start_s}, {self.end_s}) "
                            f"in {self.video_id}")
        if self.start_s < 0:
            raise DataError(f"negative start time {self.start_s} in {self.video_id}")
        if self.end_s < self.start_s:
            raise DataError(
                f"end {self.end_s} before start {self.start_s} in {self.video_id}")


def load_records(path: str | Path) -> list[UtteranceRecord]:
    """Read UtteranceRecords from a JSONL file, validating each line: the
    three text fields must be JSON strings and the two times JSON numbers
    (not booleans). A bad line raises DataError naming the file and line,
    with the error that `json.loads` gives for it."""
    decode = json.JSONDecoder().raw_decode  # json.loads without its per-call checks
    records = []
    with open(path, "rb") as fh:  # bytes, so that each line decodes on its own
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                obj, end = (None, 0) if line[0] == "\ufeff" else decode(line)
                if end != len(line):  # extra data, or a byte order mark
                    json.loads(line)  # raises the error json.loads gives
                for key in ("video_id", "speaker", "text"):
                    if type(obj[key]) is not str:
                        raise DataError(f"{key} must be a string, got {obj[key]!r}")
                for key in ("start_s", "end_s"):
                    if type(obj[key]) not in (int, float):
                        raise DataError(f"{key} must be a number, got {obj[key]!r}")
                rec = UtteranceRecord(obj["video_id"], float(obj["start_s"]),
                                      float(obj["end_s"]), obj["speaker"], obj["text"])
                rec.validate()
            except (KeyError, ValueError, TypeError, OverflowError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: bad record ({exc})") from exc
            records.append(rec)
    return records


def save_records(records: list[UtteranceRecord], path: str | Path) -> None:
    """Write one line per record, `json.dumps(vars(r), sort_keys=True)`, in
    the bytes that call gives."""
    # The C encoder that `JSONEncoder(sort_keys=True).encode` builds on each
    # call, built once; `markers` keeps its circular-reference check.
    opts = json.JSONEncoder(sort_keys=True)
    encode = json.encoder.c_make_encoder(
        {}, opts.default, json.encoder.encode_basestring_ascii, opts.indent,
        opts.key_separator, opts.item_separator, opts.sort_keys, opts.skipkeys,
        opts.allow_nan)
    with open(path, "w", encoding="utf-8") as fh:
        # vars, not dataclasses.asdict: asdict deep-copies every field
        # and took 36 ms against 15 ms per 5,000 records (2-core Xeon).
        fh.writelines(f"{''.join(encode(vars(r), 0))}\n" for r in records)


def _read_json_object(path: str | Path, what: str, keys: tuple[str, ...]) -> list:
    """The values of `keys`, in order, in the JSON object that file `path`
    holds. Text that is not JSON, JSON that is not an object, or a missing
    key raises DataError naming the path and `what` the file is."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: {what} is not JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    try:
        return [obj[key] for key in keys]
    except KeyError as exc:
        raise DataError(f"{path}: {what} missing key {exc}") from None


class _PunctuationTable(dict):
    """A ``str.translate`` table that deletes the code points in a Unicode
    punctuation category (P*) and keeps every other one, looking a code
    point's category up once, on first use. Not ``string.punctuation``: nine
    of its characters, $ + < = > ^ ` | ~, are symbols (S*) and stay."""

    def __missing__(self, code: int) -> int | None:
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = kept
        return kept


_PUNCTUATION = _PunctuationTable()


def clean_text(raw: str) -> str:
    """Lowercase, remove Unicode punctuation, collapse whitespace."""
    return " ".join(raw.lower().translate(_PUNCTUATION).split())


def _find_run(tokens: list[str]) -> tuple[int, int, int] | None:
    """Leftmost position with the shortest phrase repeated >= MIN_REPEATS
    times; returns (start, phrase_len, repetitions) or None."""
    n_tokens = len(tokens)
    for i in range(n_tokens):
        for n in range(1, MAX_PHRASE_LEN + 1):
            if i + n * MIN_REPEATS > n_tokens:
                break
            phrase = tokens[i:i + n]
            reps = 1
            while tokens[i + reps * n:i + (reps + 1) * n] == phrase:
                reps += 1
            if reps >= MIN_REPEATS:
                return i, n, reps
    return None


def collapse_repeated_phrases(text: str) -> str:
    """Collapse phrases repeated >= MIN_REPEATS times in a row to one copy.

    Collapse order matters for overlapping runs, so the rule is canonical:
    repeatedly rewrite the leftmost, shortest-phrase run until none remain.
    Idempotent by construction.
    """
    tokens = text.split()
    # A run needs some token MIN_REPEATS times (so MIN_REPEATS - 1 repeats); most texts have none.
    if (len(tokens) - len(set(tokens)) < MIN_REPEATS - 1
            or max(Counter(tokens).values()) < MIN_REPEATS):
        return " ".join(tokens)
    while True:
        hit = _find_run(tokens)
        if hit is None:
            return " ".join(tokens)
        i, n, reps = hit
        tokens = tokens[:i + n] + tokens[i + reps * n:]


@dataclass
class DedupReport:
    adjacent_duplicates_dropped: int = 0
    phrase_collapsed_utterances: int = 0
    empty_after_clean_dropped: int = 0

    def total_dropped(self) -> int:
        return self.adjacent_duplicates_dropped + self.empty_after_clean_dropped

    def as_dict(self) -> dict:
        return asdict(self)


def dedup_filter(records: list[UtteranceRecord]) -> tuple[list[UtteranceRecord], DedupReport]:
    """Clean each utterance, collapse in-utterance repeats, and keep only the
    first of adjacent same-video utterances with identical cleaned text.

    Records must arrive ordered by (video_id, start_s); one out of order
    raises DataError naming it. Every drop is counted in the report; nothing
    disappears silently. A kept record whose text cleaning and collapsing
    leave unchanged is the caller's own object, not a copy.
    """
    report = DedupReport()
    kept: list[UtteranceRecord] = []
    prev_video = None
    prev_text = None
    prev_key = ("", -math.inf)
    for i, rec in enumerate(records):
        key = (rec.video_id, rec.start_s)
        if key < prev_key:
            raise DataError(f"record {i} {key} comes after {prev_key}: records "
                            f"must be ordered by (video_id, start_s)")
        prev_key = key
        cleaned = clean_text(rec.text)
        if not cleaned:
            report.empty_after_clean_dropped += 1
            continue
        collapsed = collapse_repeated_phrases(cleaned)
        if collapsed != cleaned:
            report.phrase_collapsed_utterances += 1
        if rec.video_id == prev_video and collapsed == prev_text:
            report.adjacent_duplicates_dropped += 1
            continue
        kept.append(rec if collapsed == rec.text else
                    UtteranceRecord(rec.video_id, rec.start_s, rec.end_s, rec.speaker, collapsed))
        prev_video, prev_text = rec.video_id, collapsed
    return kept, report


@dataclass
class Vocabulary:
    """Id -> token list, ids 0..2 reserved for <pad>, <unk>, <eos>, and a
    word -> id map of the words alone (ids >= 3), without the specials.

    Words occurred strictly more than ``MIN_FREQUENCY`` times in the build
    corpus; ids follow descending count with lexicographic tie-break.
    """

    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, word: str) -> bool:
        return word in self.token_to_id

    def id_of(self, word: str) -> int:
        """The word's id; UNK_ID for a word outside the vocabulary, which
        includes a word that spells a reserved token."""
        return self.token_to_id.get(word, UNK_ID)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tokens": self.id_to_token}, fh)

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a vocabulary that ``save`` wrote. Text that is not a JSON
        object, a missing ``tokens`` key, or tokens that are not a list of
        distinct strings starting with the reserved specials raise DataError
        naming the path."""
        (tokens,) = _read_json_object(path, "vocabulary", ("tokens",))
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError(f"{path}: tokens must be a list of strings")
        if tokens[:3] != _RESERVED:
            raise DataError(f"{path}: vocabulary missing reserved specials")
        if len(set(tokens)) != len(tokens):
            dup = next(t for i, t in enumerate(tokens) if t in tokens[i + 1:])
            raise DataError(f"{path}: token {dup!r} appears more than once")
        return cls({t: i for i, t in enumerate(tokens[3:], 3)}, tokens)


def build_vocabulary(utterances: list[str]) -> Vocabulary:
    """Count whitespace tokens and keep words with count > ``MIN_FREQUENCY``.
    A word that spells a reserved token is never kept: it encodes as UNK_ID."""
    counts = Counter(chain.from_iterable(map(str.split, utterances)))
    if not counts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    surviving = sorted((w for w, c in counts.items()
                        if c > MIN_FREQUENCY and w not in _RESERVED),
                       key=lambda w: (-counts[w], w))
    return Vocabulary({w: i for i, w in enumerate(surviving, 3)}, _RESERVED + surviving)


def encode(utterance: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Word ids plus a trailing <eos>, truncated to max_len keeping the <eos>.
    A max_len that is not an integer (a bool included) raises ValueError."""
    if type(max_len) is not int:
        raise ValueError(f"max_len must be an integer, got {max_len!r}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1 to hold the <eos>, got {max_len}")
    get = vocab.token_to_id.get  # Vocabulary.id_of, bound once
    ids = [get(w, UNK_ID) for w in utterance.split()[:max_len - 1]]
    ids.append(EOS_ID)
    return ids


def pad_batch(sequences: list[list[int]]) -> list[list[int]]:
    width = max(len(s) for s in sequences)
    return [s + [PAD_ID] * (width - len(s)) for s in sequences]


@dataclass
class SplitManifest:
    """Disjoint train/val/test partitions of video ids for one dataset split,
    read once, at construction: a changed partition needs a new manifest."""

    split_name: str
    train: list[str] = field(default_factory=list)
    val: list[str] = field(default_factory=list)
    test: list[str] = field(default_factory=list)

    PARTITIONS = ("train", "val", "test")

    def __post_init__(self):
        # Video id -> its partition; a video listed twice raises.
        self._partition: dict[str, str] = {}
        for part in self.PARTITIONS:
            for vid in getattr(self, part):
                if vid in self._partition:
                    raise DataError(f"video {vid!r} appears in both "
                                    f"{self._partition[vid]} and {part}")
                self._partition[vid] = part

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"split_name": self.split_name, "train": self.train,
                       "val": self.val, "test": self.test}, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        """Read a manifest that ``save`` wrote. Text that is not a JSON object,
        a missing key, a split name that is not a string, or a partition that
        is not a list of video id strings raises DataError naming the path."""
        name, *parts = _read_json_object(path, "manifest", ("split_name", *cls.PARTITIONS))
        if not isinstance(name, str):
            raise DataError(f"{path}: manifest 'split_name' must be a string, got {name!r}")
        for part, ids in zip(cls.PARTITIONS, parts):
            if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
                raise DataError(f"{path}: manifest {part!r} must be a list of "
                                f"video id strings, got {ids!r}")
        return cls(name, *parts)


def split_stats(manifest: SplitManifest, records: list[UtteranceRecord]) -> dict:
    """Per-partition descriptive statistics: {"split_name", "partitions"}.
    A record whose video the manifest does not list raises DataError."""
    part_records: dict[str, list[UtteranceRecord]] = {p: [] for p in manifest.PARTITIONS}
    for rec in records:
        part = manifest._partition.get(rec.video_id)
        if part is None:
            raise DataError(f"video {rec.video_id!r} not in manifest "
                            f"{manifest.split_name!r}")
        part_records[part].append(rec)

    stats: dict = {"split_name": manifest.split_name, "partitions": {}}
    for part in manifest.PARTITIONS:
        recs = part_records[part]
        word_counts = [len(r.text.split()) for r in recs]
        total_words = sum(word_counts)
        stats["partitions"][part] = {
            "videos": len(getattr(manifest, part)),
            "utterances": len(recs),
            "avg_utterance_length": (total_words / len(recs)) if recs else 0.0,
            "total_words": total_words,
        }
    return stats
