"""The synthetic directory generator and its paper-shape calibration."""

from collections import Counter

import pytest

from repro.analysis.ngrams import ngram_counts
from repro.data.corpus import NAME_FIELD_WIDTH
from repro.data.phonebook import generate_directory


class TestGeneration:
    def test_deterministic(self):
        a = generate_directory(500, seed=1)
        b = generate_directory(500, seed=1)
        assert [e.name for e in a] == [e.name for e in b]

    def test_seed_sensitivity(self):
        a = generate_directory(500, seed=1)
        b = generate_directory(500, seed=2)
        assert [e.name for e in a] != [e.name for e in b]

    def test_size(self):
        assert len(generate_directory(123)) == 123

    def test_rids_unique(self):
        directory = generate_directory(25_000)
        rids = [e.rid for e in directory]
        assert len(set(rids)) == len(rids)

    def test_names_fit_field(self):
        directory = generate_directory(3000)
        assert all(len(e.name) <= NAME_FIELD_WIDTH for e in directory)

    def test_record_text_shape(self):
        entry = generate_directory(1).entries[0]
        assert entry.record_text.endswith("$$")
        assert entry.phone in entry.record_text

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_directory(0)

    def test_phone_wraps_to_new_exchange(self):
        directory = generate_directory(10_001)
        assert directory.entries[10_000].phone.startswith("415-410-")


class TestDirectoryApi:
    def test_sample_deterministic(self, directory):
        a = directory.sample(50, seed=3)
        b = directory.sample(50, seed=3)
        assert [e.rid for e in a] == [e.rid for e in b]

    def test_sample_too_large(self, directory):
        with pytest.raises(ValueError):
            directory.sample(len(directory) + 1)

    def test_last_names(self, directory):
        names = directory.last_names()
        assert all(" " not in n for n in names)


class TestCalibration:
    """The paper-shape guarantees the benches rely on (DESIGN.md)."""

    @pytest.fixture(scope="class")
    def letters(self):
        directory = generate_directory(30_000, seed=2006)
        counts = ngram_counts([e.name for e in directory], 1)
        return Counter({k: v for k, v in counts.items() if k.isalpha()})

    def test_top_letters_match_paper_set(self, letters):
        top6 = {gram for gram, __ in letters.most_common(6)}
        assert top6 == {"A", "E", "N", "R", "I", "O"}

    def test_a_is_most_frequent(self, letters):
        assert letters.most_common(1)[0][0] == "A"

    def test_digram_shape(self):
        directory = generate_directory(30_000, seed=2006)
        counts = ngram_counts([e.name for e in directory], 2)
        alpha = Counter({k: v for k, v in counts.items() if k.isalpha()})
        top5 = {gram for gram, __ in alpha.most_common(5)}
        # Paper's top digrams: AN, ER, AR, ON, IN — require the core 4.
        assert {"AN", "ER", "AR", "ON"} <= top5 | {
            gram for gram, __ in alpha.most_common(8)
        }

    def test_trigram_shape(self):
        directory = generate_directory(30_000, seed=2006)
        counts = ngram_counts([e.name for e in directory], 3)
        alpha = Counter({k: v for k, v in counts.items() if k.isalpha()})
        top8 = {gram for gram, __ in alpha.most_common(8)}
        # Paper's top trigrams: CHA, MAR, SON, ONG, ANG.
        assert {"MAR", "SON", "CHA", "ANG"} <= top8

    def test_short_asian_names_present(self):
        """The false-positive drivers the paper names must exist."""
        directory = generate_directory(30_000, seed=2006)
        surnames = Counter(directory.last_names())
        for name in ("YU", "WU", "LI", "LE", "OU", "IP", "BA",
                     "WOO", "KIM", "LEE", "LIM", "MAI", "MAK", "LEW"):
            assert surnames[name] > 0, f"missing short surname {name}"


class TestWarsawStyle:
    def test_style_validated(self):
        with pytest.raises(ValueError):
            generate_directory(10, style="paris")

    def test_deterministic(self):
        a = generate_directory(300, seed=3, style="warsaw")
        b = generate_directory(300, seed=3, style="warsaw")
        assert [e.name for e in a] == [e.name for e in b]

    def test_surnames_are_long(self):
        directory = generate_directory(5000, seed=2006, style="warsaw")
        surnames = directory.last_names()
        short = sum(1 for s in surnames if len(s) <= 3)
        # The counterfactual's whole point: almost no short surnames.
        assert short / len(surnames) < 0.03

    def test_distinct_from_sf(self):
        sf = generate_directory(300, seed=1, style="sf")
        warsaw = generate_directory(300, seed=1, style="warsaw")
        assert set(sf.last_names()) != set(warsaw.last_names())

    def test_mean_surname_length_higher(self):
        sf = generate_directory(5000, seed=2006, style="sf")
        warsaw = generate_directory(5000, seed=2006, style="warsaw")
        mean = lambda names: sum(map(len, names)) / len(names)
        assert mean(warsaw.last_names()) > mean(sf.last_names()) + 2
