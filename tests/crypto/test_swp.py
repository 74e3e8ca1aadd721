"""The Song-Wagner-Perrig word-search cipher."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.extensions.swp import CHECK_BYTES, WORD_BYTES, SwpCipher, Trapdoor

KEY = b"swp-test-master"


@pytest.fixture
def swp():
    return SwpCipher(KEY)


class TestEncryptDecrypt:
    def test_cells_fixed_width(self, swp):
        cells = swp.encrypt_words(1, ["A", "LONGERWORD"])
        assert all(len(c) == WORD_BYTES for c in cells)

    def test_same_word_different_positions_differ(self, swp):
        """Positional masking: no ECB-style repetition leak."""
        cells = swp.encrypt_words(1, ["SAME", "SAME"])
        assert cells[0] != cells[1]

    def test_same_word_different_documents_differ(self, swp):
        a = swp.encrypt_word(1, 0, "WORD")
        b = swp.encrypt_word(2, 0, "WORD")
        assert a != b

    def test_overlong_word_hashed(self, swp):
        word = "X" * 40
        cell = swp.encrypt_word(1, 0, word)
        assert len(cell) == WORD_BYTES  # digest form
        assert SwpCipher.match(cell, swp.trapdoor(word))
        assert not SwpCipher.match(cell, swp.trapdoor("X" * 39))

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            SwpCipher(b"")


class TestSearch:
    def test_trapdoor_matches_own_word(self, swp):
        cells = swp.encrypt_words(9, ["ALPHA", "BETA", "ALPHA"])
        trapdoor = swp.trapdoor("ALPHA")
        hits = [i for i, c in enumerate(cells)
                if SwpCipher.match(c, trapdoor)]
        assert hits == [0, 2]

    def test_trapdoor_rejects_other_words(self, swp):
        cells = swp.encrypt_words(9, ["ALPHA", "BETA"])
        trapdoor = swp.trapdoor("GAMMA")
        assert not any(SwpCipher.match(c, trapdoor) for c in cells)

    def test_no_substring_matching(self, swp):
        """SWP is word-level only — the paper's reason to build the
        chunk scheme instead."""
        cells = swp.encrypt_words(9, ["SCHWARZ"])
        assert not SwpCipher.match(cells[0], swp.trapdoor("SCHWAR"))

    def test_match_needs_only_the_trapdoor(self, swp):
        """The server-side check is a static method with no keys."""
        cell = swp.encrypt_word(3, 0, "WORD")
        trapdoor = swp.trapdoor("WORD")
        clone = Trapdoor(trapdoor.pre_encrypted, trapdoor.word_key)
        assert SwpCipher.match(cell, clone)

    def test_malformed_cell(self, swp):
        with pytest.raises(ValueError):
            SwpCipher.match(b"short", swp.trapdoor("X"))

    def test_keys_separate_instances(self):
        a, b = SwpCipher(b"k1"), SwpCipher(b"k2")
        cell = a.encrypt_word(1, 0, "WORD")
        assert not SwpCipher.match(cell, b.trapdoor("WORD"))

    def test_false_positive_probability_is_tiny(self, swp):
        """2^-32 per cell: 10,000 foreign cells should never match."""
        cells = swp.encrypt_words(5, [f"W{i}" for i in range(10_000)])
        trapdoor = swp.trapdoor("ABSENT")
        assert not any(SwpCipher.match(c, trapdoor) for c in cells)

    def test_check_width(self):
        assert CHECK_BYTES * 8 == 32


@given(
    st.lists(
        st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
                min_size=1, max_size=14),
        min_size=1, max_size=12,
    ),
    st.integers(0, 2 ** 32),
)
def test_property_search(words, doc_id):
    swp = SwpCipher(KEY)
    cells = swp.encrypt_words(doc_id, words)
    for target in set(words):
        trapdoor = swp.trapdoor(target)
        hits = {i for i, c in enumerate(cells)
                if SwpCipher.match(c, trapdoor)}
        expected = {i for i, w in enumerate(words) if w == target}
        assert hits == expected
