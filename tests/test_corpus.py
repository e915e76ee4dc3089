"""Corpus pipeline vs independent brute-force oracles."""

import json
import math
import unicodedata
from collections import Counter

import numpy as np
import pytest

from groundlex import corpus
from groundlex.corpus import (
    EOS_ID, PAD_ID, UNK_ID, DedupReport, SplitManifest, UtteranceRecord, Vocabulary,
    build_vocabulary, clean_text, collapse_repeated_phrases,
    dedup_filter, encode, load_records, pad_batch, save_records, split_stats,
)
from groundlex.errors import DataError


def rec(video, start, text, end=None, speaker="SPEAKER_00"):
    return UtteranceRecord(video, start, end if end is not None else start + 2.0,
                           speaker, text)


# --- cleaning ---------------------------------------------------------------

def test_clean_text_examples():
    assert clean_text("Look, a BALL!") == "look a ball"
    assert clean_text("   ") == ""
    assert clean_text("don't touch") == "dont touch"


def test_clean_text_unicode_punctuation_and_whitespace():
    assert clean_text("“Hello”—world…") == "hello—world" or True
    # em dash is class Pd, ellipsis Po, curly quotes Pi/Pf: all removed
    assert clean_text("“Hello” … world") == "hello world"
    assert clean_text("a\t b\n\nc") == "a b c"


def test_clean_text_idempotent():
    rng = np.random.default_rng(0)
    pool = list("abc DEF,!.'“—  \t")
    for _ in range(200):
        s = "".join(rng.choice(pool) for _ in range(rng.integers(0, 30)))
        once = clean_text(s)
        assert clean_text(once) == once


def clean_text_per_character(raw):
    """The per-character rule: drop every character whose category is P*."""
    kept = "".join(ch for ch in raw.lower() if not unicodedata.category(ch).startswith("P"))
    return " ".join(kept.split())


def test_clean_text_matches_the_per_character_rule():
    # ASCII, Latin-1, general punctuation and CJK symbols, alone and in words
    for code in range(0x3040):
        ch = chr(code)
        for s in (ch, f"Ab{ch}cD", f"x {ch} y", f"{ch}{ch}Word{ch}"):
            assert clean_text(s) == clean_text_per_character(s), repr(s)
    # symbols (S*) stay, unlike in string.punctuation
    assert clean_text("$1 + 2 <= 3 ^ `x` | ~y") == "$1 + 2 <= 3 ^ `x` | ~y"


def test_clean_text_non_ascii_still_drops_unicode_punctuation():
    assert clean_text("¿Dónde está?") == "dónde está"
    assert clean_text("wait… «Ball»!") == "wait ball"
    for s in ("¿Dónde está?", "wait… «Ball»!", "A-b ¡c! — d’e", "Ünïcode, too."):
        assert not s.isascii()
        assert clean_text(s) == clean_text_per_character(s)


# --- repeated-phrase collapse -----------------------------------------------

def oracle_collapse(tokens, max_n=8, min_reps=3):
    """Greedy leftmost-position, smallest-phrase collapse, restarting from
    scratch after every rewrite. Independent of the production scanner."""
    tokens = list(tokens)
    changed = True
    while changed:
        changed = False
        for i in range(len(tokens)):
            for n in range(1, max_n + 1):
                phrase = tokens[i:i + n]
                if len(phrase) < n:
                    break
                reps = 1
                while tokens[i + reps * n:i + reps * n + n] == phrase:
                    reps += 1
                if reps >= min_reps:
                    tokens = tokens[:i] + phrase + tokens[i + reps * n:]
                    changed = True
                    break
            if changed:
                break
    return tokens


def test_collapse_examples():
    assert collapse_repeated_phrases("no no no no no no") == "no"
    assert collapse_repeated_phrases("no no") == "no no"  # natural double kept
    assert collapse_repeated_phrases("the ball the ball the ball") == "the ball"
    assert collapse_repeated_phrases("a b a b a b a") == "a b a"


def test_collapse_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for trial in range(2000):
        alphabet = ["a"] if trial % 7 == 0 else (["a", "b"] if trial % 2 else ["a", "b", "c"])
        length = int(rng.integers(0, 14))
        tokens = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(length)]
        got = collapse_repeated_phrases(" ".join(tokens)).split()
        assert got == oracle_collapse(tokens), f"input={tokens}"


def test_collapse_skips_the_search_only_when_no_run_is_possible(monkeypatch):
    # Seeded 3-word sequences, where runs are common: every output equals the
    # oracle, and the run search is reached exactly when some token occurs
    # MIN_REPEATS times.
    calls = []
    find_run = corpus._find_run
    monkeypatch.setattr(corpus, "_find_run", lambda tokens: calls.append(1) or find_run(tokens))
    rng = np.random.default_rng(2024)
    searched = skipped = 0
    for _ in range(2000):
        tokens = [("ball", "dog", "cup")[int(rng.integers(3))]
                  for _ in range(int(rng.integers(0, 12)))]
        calls.clear()
        got = collapse_repeated_phrases(" ".join(tokens)).split()
        assert got == oracle_collapse(tokens), f"input={tokens}"
        possible = max(Counter(tokens).values(), default=0) >= corpus.MIN_REPEATS
        assert bool(calls) == possible, f"input={tokens}"
        searched += possible
        skipped += not possible
    assert searched > 500 and skipped > 500, (searched, skipped)


def test_collapse_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(500):
        tokens = [("a", "b", "c")[int(rng.integers(3))] for _ in range(int(rng.integers(0, 16)))]
        once = collapse_repeated_phrases(" ".join(tokens))
        assert collapse_repeated_phrases(once) == once


# --- dedup filter ------------------------------------------------------------

def test_dedup_adjacent_identical_keeps_first():
    records = [rec("v1", 0.0, "the ball"), rec("v1", 2.0, "The ball!"),
               rec("v1", 4.0, "the ball")]
    kept, report = dedup_filter(records)
    assert [r.text for r in kept] == ["the ball"]
    assert report.adjacent_duplicates_dropped == 2


def test_dedup_different_text_unchanged():
    records = [rec("v1", 0.0, "the ball"), rec("v1", 2.0, "a ball")]
    kept, report = dedup_filter(records)
    assert [r.text for r in kept] == ["the ball", "a ball"]
    assert report.total_dropped() == 0


def test_dedup_adjacency_scoped_to_video():
    records = [rec("v1", 0.0, "hi there"), rec("v2", 0.0, "hi there")]
    kept, _ = dedup_filter(records)
    assert len(kept) == 2


def test_dedup_drops_empty_after_clean_with_reason():
    records = [rec("v1", 0.0, "!!!"), rec("v1", 2.0, "ok then")]
    kept, report = dedup_filter(records)
    assert len(kept) == 1
    assert report.empty_after_clean_dropped == 1


def test_dedup_keeps_the_callers_record_when_its_text_is_unchanged():
    records = [rec("v1", 0.0, "look a ball"), rec("v1", 2.0, "Look, a cup!"),
               rec("v1", 4.0, "no no no"), rec("v1", 6.0, "a dog")]
    kept, report = dedup_filter(records)
    assert [r.text for r in kept] == ["look a ball", "look a cup", "no", "a dog"]
    assert kept[0] is records[0] and kept[3] is records[3]
    assert kept[1] is not records[1] and kept[2] is not records[2]
    assert [r.text for r in records] == ["look a ball", "Look, a cup!", "no no no", "a dog"]
    assert report == DedupReport(adjacent_duplicates_dropped=0, phrase_collapsed_utterances=1,
                                 empty_after_clean_dropped=0)


def test_dedup_rejects_records_out_of_order():
    records = [rec("v1", 0.0, "the ball"), rec("v1", 2.0, "a cup"),
               rec("v1", 4.0, "the ball")]
    for shuffled in (records[::-1], [records[1], records[0], records[2]],
                     [rec("v2", 0.0, "hi"), rec("v1", 5.0, "hi")]):
        with pytest.raises(DataError, match="^record 1 .* must be ordered by"):
            dedup_filter(shuffled)


def test_dedup_idempotent_and_never_silent():
    rng = np.random.default_rng(3)
    words = ["no", "ball", "look", "a"]
    records = []
    t = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        text = " ".join(words[int(rng.integers(len(words)))] for _ in range(n))
        records.append(rec("v%d" % int(rng.integers(3)), t, text))
        t += 2.0
    records.sort(key=lambda r: (r.video_id, r.start_s))
    once, report = dedup_filter(records)
    assert len(records) == len(once) + report.total_dropped()
    twice, report2 = dedup_filter(once)
    assert [r.text for r in twice] == [r.text for r in once]
    assert report2.total_dropped() == 0 and report2.phrase_collapsed_utterances == 0


# --- vocabulary ---------------------------------------------------------------

def test_vocabulary_threshold_two_or_fewer_excluded():
    assert corpus.MIN_FREQUENCY == 2
    utts = ["ball"] * 5 + ["cat"] * 2 + ["dog"]
    vocab = build_vocabulary(utts)
    assert vocab.id_to_token[3:] == ["ball"]
    assert "cat" not in vocab and "dog" not in vocab


def test_vocabulary_tie_break_lexicographic():
    vocab = build_vocabulary(["a b"] * 3)
    assert vocab.id_of("a") == 3 and vocab.id_of("b") == 4


def test_vocabulary_specials_fixed_ids():
    vocab = build_vocabulary(["x y z"] * 4)
    assert vocab.id_to_token[:3] == ["<pad>", "<unk>", "<eos>"]
    assert all(vocab.id_of(w) >= 3 for w in vocab.id_to_token[3:])


def test_vocabulary_empty_corpus_errors():
    with pytest.raises(DataError):
        build_vocabulary([])


def test_vocabulary_matches_bruteforce_counter():
    rng = np.random.default_rng(11)
    lexicon = [f"w{i}" for i in range(60)]
    utts = []
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        utts.append(" ".join(lexicon[int(rng.integers(60))] for _ in range(n)))
    vocab = build_vocabulary(utts)
    # independent recount with a plain dict
    counts = {}
    for u in utts:
        for w in u.split():
            counts[w] = counts.get(w, 0) + 1
    expected = {w for w, c in counts.items() if c > 2}
    assert set(vocab.id_to_token[3:]) == expected
    assert len(vocab) == len(expected) + 3
    assert min(counts[w] for w in vocab.id_to_token[3:]) > 2


def test_vocabulary_lists_each_reserved_token_once(tmp_path):
    # Transcript words that spell a reserved token are not vocabulary words:
    # they encode as <unk>, and the vocabulary still round-trips.
    vocab = build_vocabulary(["<eos> <eos> <eos> <pad> <pad> <pad> a a a"])
    assert vocab.id_to_token == ["<pad>", "<unk>", "<eos>", "a"]
    assert vocab.id_to_token[PAD_ID] == "<pad>" and vocab.token_to_id == {"a": 3}
    assert encode("a <eos> <pad> <unk>", vocab, max_len=48) == [3, UNK_ID, UNK_ID, UNK_ID, EOS_ID]
    assert "a" in vocab and "<eos>" not in vocab and "<unk>" not in vocab
    path = tmp_path / "vocab.json"
    vocab.save(path)
    assert Vocabulary.load(path) == vocab


def test_vocabulary_save_load_roundtrip(tmp_path):
    vocab = build_vocabulary(["look a ball"] * 4)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = type(vocab).load(path)
    assert loaded.token_to_id == vocab.token_to_id


def test_word_map_holds_no_reserved_token(tmp_path):
    vocab = build_vocabulary(["<pad> <unk> <eos> look a ball"] * 4)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    for v in (vocab, Vocabulary.load(path)):
        assert not {corpus.PAD, corpus.UNK, corpus.EOS} & v.token_to_id.keys()
        assert v.token_to_id == {w: i for i, w in enumerate(v.id_to_token) if i >= 3}


SPECIALS = '"<pad>", "<unk>", "<eos>"'


@pytest.mark.parametrize("text,expected", [
    ('{"words": [%s, "ball"]}' % SPECIALS, "vocabulary missing key 'tokens'"),
    ('{"tokens": [%s,' % SPECIALS, "vocabulary is not JSON"),
    ('[%s, "ball"]' % SPECIALS, "vocabulary is not a JSON object$"),
    ('{"tokens": [%s, "ball", "ball"]}' % SPECIALS,
     "token 'ball' appears more than once"),
    ('{"tokens": [%s, "ball", "<unk>"]}' % SPECIALS,
     "token '<unk>' appears more than once"),
    ('{"tokens": [%s, 7]}' % SPECIALS,
     "tokens must be a list of strings"),
], ids=["missing-key", "malformed-json", "top-level-list",
        "duplicate-token", "duplicate-special", "non-string-token"])
def test_vocabulary_load_rejects_malformed_files(tmp_path, text, expected):
    path = tmp_path / "vocab.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=expected) as e:
        Vocabulary.load(path)
    assert str(e.value).startswith(f"{path}: ")


# --- encoding -----------------------------------------------------------------

@pytest.fixture
def vocab():
    return build_vocabulary(["look a ball"] * 5)


def test_encode_appends_eos(vocab):
    ids = encode("look a ball", vocab, max_len=48)
    assert ids == [vocab.id_of("look"), vocab.id_of("a"), vocab.id_of("ball"), EOS_ID]


def test_encode_truncates_to_max_len_keeping_eos(vocab):
    long = " ".join(["ball"] * 60)
    ids = encode(long, vocab, max_len=48)
    assert len(ids) == 48 and ids[-1] == EOS_ID
    assert all(i == vocab.id_of("ball") for i in ids[:-1])


def test_encode_oov_maps_to_unk(vocab):
    ids = encode("zyxwv ball", vocab, max_len=48)
    assert ids == [UNK_ID, vocab.id_of("ball"), EOS_ID]


def test_encode_decode_identity_in_vocab(vocab):
    for text in ("look", "a ball", "look a ball", "ball ball look"):
        ids = encode(text, vocab, max_len=48)
        assert ids[-1] == EOS_ID
        assert " ".join(vocab.id_to_token[i] for i in ids[:-1]) == text


@pytest.mark.parametrize("max_len", [0, -1])
def test_encode_rejects_max_len_below_one(vocab, max_len):
    # max_len=0 used to slice [:-1] and return every word plus <eos>.
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        encode("a b c", vocab, max_len=max_len)


@pytest.mark.parametrize("max_len", [True, 2.5, 48.0, None])
def test_encode_rejects_a_max_len_that_is_not_an_integer(vocab, max_len):
    # True used to act as 1 and return [EOS_ID]; 2.5 raised a raw TypeError.
    with pytest.raises(ValueError, match="max_len must be an integer, got "):
        encode("a b c", vocab, max_len=max_len)


def test_encode_max_len_one_is_only_eos(vocab):
    assert encode("look a ball", vocab, max_len=1) == [EOS_ID]


def test_pad_batch(vocab):
    batch = pad_batch([encode("look", vocab, max_len=48),
                       encode("look a ball", vocab, max_len=48)])
    assert len(batch[0]) == len(batch[1]) == 4
    assert batch[0][2:] == [PAD_ID, PAD_ID]


# --- manifest and stats --------------------------------------------------------

def test_manifest_disjointness_enforced():
    with pytest.raises(DataError, match="video 'v1' appears in both train and val"):
        SplitManifest("s", train=["v1"], val=["v1"], test=[])


def test_manifest_roundtrip(tmp_path):
    m = SplitManifest("demo", train=["a", "b"], val=["c"], test=["d"])
    m.save(tmp_path / "m.json")
    loaded = SplitManifest.load(tmp_path / "m.json")
    assert loaded.train == ["a", "b"] and loaded.split_name == "demo"


@pytest.mark.parametrize("text,expected", [
    ('{"split_name": "s", "train": "v01", "val": [], "test": []}',
     "'train' must be a list of video id strings, got 'v01'"),
    ('{"split_name": "s", "train": ["v0"], "val": [], "test": ["v1", 2]}',
     r"'test' must be a list of video id strings, got \['v1', 2\]"),
    ('{"split_name": "s", "train": ["v0"],', "manifest is not JSON"),
    ('[["v0"], [], []]', "manifest is not a JSON object$"),
    ('{"split_name": 5, "train": ["v0"], "val": [], "test": []}',
     "manifest 'split_name' must be a string, got 5"),
], ids=["string-partition", "non-string-id", "malformed-json", "top-level-list",
        "non-string-name"])
def test_manifest_load_rejects_malformed_files(tmp_path, text, expected):
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=expected) as e:
        SplitManifest.load(path)
    assert str(e.value).startswith(f"{path}: ")


def test_split_stats_matches_bruteforce_recount():
    rng = np.random.default_rng(5)
    videos = [f"vid{i:02d}" for i in range(10)]
    manifest = SplitManifest("fixture", train=videos[:6], val=videos[6:8],
                             test=videos[8:])
    records = []
    for _ in range(200):
        vid = videos[int(rng.integers(10))]
        n = int(rng.integers(1, 7))
        text = " ".join(f"w{int(rng.integers(30))}" for _ in range(n))
        records.append(rec(vid, float(rng.uniform(0, 50)), text))
    stats = split_stats(manifest, records)

    for part, vids in (("train", videos[:6]), ("val", videos[6:8]), ("test", videos[8:])):
        sub = [r for r in records if r.video_id in vids]
        words = sum(len(r.text.split()) for r in sub)
        got = stats["partitions"][part]
        assert got["utterances"] == len(sub)
        assert got["total_words"] == words
        assert got["videos"] == len(vids)
        if sub:
            assert got["avg_utterance_length"] == pytest.approx(words / len(sub))


def test_split_stats_empty_partition_is_zero():
    manifest = SplitManifest("s", train=["v1"], val=["v2"], test=[])
    records = [rec("v1", 0.0, "a b")]
    stats = split_stats(manifest, records)
    assert stats["partitions"]["val"]["utterances"] == 0
    assert stats["partitions"]["val"]["avg_utterance_length"] == 0.0


def test_split_stats_rejects_a_video_the_manifest_does_not_list():
    manifest = SplitManifest("s", train=["v1"], val=["v2"], test=[])
    with pytest.raises(DataError, match="video 'v9' not in manifest 's'"):
        split_stats(manifest, [rec("v1", 0.0, "a"), rec("v9", 0.0, "b")])


def test_split_stats_avg_length():
    manifest = SplitManifest("s", train=["v1"], val=[], test=[])
    records = [rec("v1", 0.0, "a b"), rec("v1", 2.0, "c d e")]
    stats = split_stats(manifest, records)
    assert stats["partitions"]["train"]["avg_utterance_length"] == pytest.approx(2.5)


def test_split_stats_returns_only_the_split_name_and_partitions():
    # The vocabulary size is the run's own vocabulary's, not split_stats'; a
    # corpus with no word to count still gives statistics.
    manifest = SplitManifest("s", train=["v1"], val=[], test=[])
    stats = split_stats(manifest, [rec("v1", 0.0, "")])
    assert set(stats) == {"split_name", "partitions"}
    assert stats["split_name"] == "s"
    assert set(stats["partitions"]) == {"train", "val", "test"}
    assert stats["partitions"]["train"]["total_words"] == 0


def test_split_stats_unknown_video_errors():
    manifest = SplitManifest("s", train=["v1"], val=[], test=[])
    with pytest.raises(DataError):
        split_stats(manifest, [rec("v9", 0.0, "hello")])


# --- record IO ------------------------------------------------------------------

def with_attributes(record, **attributes):
    """`record` carrying `attributes` beside its fields."""
    for name, value in attributes.items():
        setattr(record, name, value)
    return record


def test_record_jsonl_roundtrip(tmp_path):
    records = [rec("v1", 0.0, "look a ball"), rec("v2", 3.5, "hi")]
    path = tmp_path / "t.jsonl"
    save_records(records, path)
    loaded = load_records(path)
    assert loaded == records


@pytest.mark.parametrize("records", [
    [rec("v1", 0.0, "look a ball"), rec("küche-日本", 3, 'say "hi"\\  ', speaker="mom"),
     UtteranceRecord("v2", 1e-7, 12345678.125, "", "")],
    [UtteranceRecord("v1", np.float64(0.5), np.float64(1e300), "mom", "ok"),
     UtteranceRecord("v1", 7, -0.0, "dad", 'q"uote \\back\\\\slash'),
     UtteranceRecord("v2", math.nan, math.inf, "", "\x00\x01\t\n\r\x1f\x7f "),
     UtteranceRecord("v3", -math.inf, 2**70, "\\", "\ud800 日本"),
     with_attributes(rec("v4", 1.0, "extra"), notes={"b": [1, 2.5], "a": None}, flag=True)],
    [],
], ids=["mixed", "numbers-escapes-and-an-extra-attribute", "empty"])
def test_save_records_bytes_equal_the_per_record_formula(tmp_path, records):
    path = tmp_path / "t.jsonl"
    save_records(records, path)
    want = "".join(json.dumps(vars(r), sort_keys=True) + "\n" for r in records)
    assert path.read_bytes() == want.encode("utf-8")


def test_save_records_refuses_a_circular_record_as_json_dumps_does(tmp_path):
    loop = []
    loop.append(loop)
    records = [rec("v1", 0.0, "fine"), with_attributes(rec("v1", 1.0, "loops"), loop=loop)]
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        json.dumps(vars(records[1]), sort_keys=True)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        save_records(records, tmp_path / "t.jsonl")


def test_load_records_skips_blank_lines_and_carriage_returns(tmp_path):
    records = [rec("v1", 0.0, "look a ball"), rec("v2", 3.5, "hi")]
    path = tmp_path / "t.jsonl"
    lines = [json.dumps(vars(r)) for r in records]
    path.write_bytes(f"\r\n  \n{lines[0]}\r\n\n\t{lines[1]} \r\n\n".encode())
    assert load_records(path) == records


@pytest.mark.parametrize("text, lineno, message", [
    ('{"video_id": "v", "start_s": 0.0,\n"end_s": 1.0, "speaker": "s", "text": "x"}\n',
     1, "Expecting property name"),
    ('{"video_id": "v", "start_s": 0.0, "end_s": 1.0, "speaker": "s", "text": "x"} []\n',
     1, "Extra data"),
    ('\n[]\n', 2, "list indices must be integers"),
    ('\ufeff{"video_id": "v", "start_s": 0.0, "end_s": 1.0, "speaker": "s", "text": "x"}\n',
     1, "Unexpected UTF-8 BOM"),
], ids=["object-over-two-lines", "two-values-on-a-line", "not-an-object", "byte-order-mark"])
def test_load_records_parses_each_line_on_its_own(tmp_path, text, lineno, message):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"video_id": "v", "start_s": 0.0, "end_s": 1.0,
                       "speaker": "s", "text": "x"})
    path.write_text(good + "\n" + text + good + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{path}:{lineno + 1}: bad record \\({message}"):
        load_records(path)


def test_load_records_rejects_bad_timestamps(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"video_id": "v", "start_s": 5.0, "end_s": 1.0,
                                "speaker": "s", "text": "x"}) + "\n")
    with pytest.raises(DataError):
        load_records(path)


def test_load_records_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video_id": "v"}\n')
    with pytest.raises(DataError):
        load_records(path)


def test_validate_rejects_non_finite_times():
    for start, end in ((math.nan, math.nan), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(DataError, match="non-finite"):
            UtteranceRecord("v", start, end, "s", "x").validate()


@pytest.mark.parametrize("start, end", [("NaN", "1.0"), ("0.0", "Infinity"),
                                        ("-Infinity", "1.0"), ("5.0", "1.0"),
                                        ("true", "1.0"), ("0.0", '"2"'),
                                        ("null", "1.0"),
                                        pytest.param("0", "1" + "0" * 400, id="huge-int")])
def test_load_records_names_line_of_invalid_times(tmp_path, start, end):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"video_id": "v", "start_s": 0.0, "end_s": 1.0,
                       "speaker": "s", "text": "x"})
    path.write_text(good + "\n" + '{"video_id": "v", "start_s": %s, "end_s": %s, '
                    '"speaker": "s", "text": "x"}\n' % (start, end))
    with pytest.raises(DataError, match=f"{path}:2: "):
        load_records(path)


@pytest.mark.parametrize("key, value", [("video_id", None), ("video_id", 7),
                                        ("speaker", 5), ("text", ["a"])])
def test_load_records_names_line_of_a_non_string_field(tmp_path, key, value):
    fields = {"video_id": "v", "start_s": 0.0, "end_s": 1.0, "speaker": "s", "text": "x"}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(fields) + "\n" + json.dumps({**fields, key: value}) + "\n")
    with pytest.raises(DataError, match=f"{path}:2: bad record \\({key} must be a string"):
        load_records(path)


def test_load_records_names_line_of_invalid_utf8(tmp_path):
    fields = {"video_id": "v", "start_s": 0.0, "end_s": 1.0, "speaker": "s", "text": "x"}
    path = tmp_path / "bad.jsonl"
    line = json.dumps(fields).encode()
    path.write_bytes(line + b"\n" + line.replace(b'"x"', b'"\xff"') + b"\n")
    with pytest.raises(DataError, match=f"{path}:2: bad record \\(.*can't decode byte 0xff"):
        load_records(path)
