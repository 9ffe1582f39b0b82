"""Unit tests for the tagged-memory storage layer."""

import pytest

from repro.core.errors import AlignmentError, MemoryAccessError
from repro.core.memory import TaggedMemory


@pytest.fixture
def mem():
    return TaggedMemory(4096)


class TestConstruction:
    def test_size_rounds_up_to_words(self):
        mem = TaggedMemory(13)
        assert mem.size == 16
        assert mem.word_count == 2

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            TaggedMemory(0)

    def test_tag_overhead_is_one_bit_per_word(self):
        mem = TaggedMemory(1 << 20)
        # 1 bit per 64 bits: the paper's 1.5% overhead.
        overhead = mem.tag_overhead_bits() / (mem.size * 8)
        assert overhead == pytest.approx(1 / 64)

    def test_initial_state_zeroed(self, mem):
        assert mem.read_word(0) == 0
        assert mem.read_fbit(0) == 0
        assert mem.forwarded_word_count() == 0


class TestWordAccess:
    def test_write_read_roundtrip(self, mem):
        mem.write_word(64, 0xDEADBEEF)
        assert mem.read_word(64) == 0xDEADBEEF
        mem.write_word(72, 2**64 - 1)
        assert mem.read_word(72) == 2**64 - 1

    def test_write_masks_to_64_bits(self, mem):
        mem.write_word(0, 1 << 70 | 5)
        assert mem.read_word(0) == 5

    def test_unaligned_word_access_rejected(self, mem):
        with pytest.raises(AlignmentError):
            mem.read_word(4)
        with pytest.raises(AlignmentError):
            mem.write_word(12, 1)

    def test_out_of_range_rejected(self, mem):
        with pytest.raises(MemoryAccessError):
            mem.read_word(mem.size)
        with pytest.raises(MemoryAccessError):
            mem.read_word(-8)
        for address in (mem.size, -8):
            with pytest.raises(MemoryAccessError):
                mem.write_word(address, 1)
            with pytest.raises(MemoryAccessError):
                mem.read_fbit(address)
            with pytest.raises(MemoryAccessError):
                mem.write_word_tagged(address, 1, 1)
        with pytest.raises(MemoryAccessError):
            mem.read_data(mem.size + 4, 4)

    def test_plain_write_preserves_fbit(self, mem):
        mem.write_word_tagged(8, 100, 1)
        mem.write_word(8, 200)
        assert mem.read_fbit(8) == 1
        assert mem.read_word(8) == 200


class TestTaggedWrite:
    def test_sets_word_and_bit_atomically(self, mem):
        mem.write_word_tagged(16, 0x5800, 1)
        assert mem.read_word(16) == 0x5800
        assert mem.read_fbit(16) == 1

    def test_clears_bit(self, mem):
        mem.write_word_tagged(16, 1, 1)
        mem.write_word_tagged(16, 2, 0)
        assert mem.read_fbit(16) == 0

    def test_truthy_fbit_normalised(self, mem):
        mem.write_word_tagged(16, 1, 7)
        assert mem.read_fbit(16) == 1

    def test_forwarded_word_count_tracks_bits(self, mem):
        mem.write_word_tagged(0, 8, 1)
        mem.write_word_tagged(8, 16, 1)
        assert mem.forwarded_word_count() == 2
        mem.write_word_tagged(0, 0, 0)
        assert mem.forwarded_word_count() == 1


class TestSubWordAccess:
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_roundtrip_each_size(self, mem, size):
        value = (1 << (size * 8)) - 3
        mem.write_data(size, value, size)  # offset == size keeps alignment
        assert mem.read_data(size, size) == value & ((1 << (size * 8)) - 1)

    def test_little_endian_packing(self, mem):
        mem.write_word(0, 0x0807060504030201)
        assert mem.read_data(0, 1) == 0x01
        assert mem.read_data(1, 1) == 0x02
        assert mem.read_data(0, 2) == 0x0201
        assert mem.read_data(4, 4) == 0x08070605

    def test_subword_write_preserves_neighbours(self, mem):
        mem.write_word(0, 0xFFFFFFFFFFFFFFFF)
        mem.write_data(2, 0, 2)
        assert mem.read_word(0) == 0xFFFFFFFF0000FFFF

    def test_subword_write_reaches_the_top_byte(self, mem):
        mem.write_data(7, 0xFF, 1)
        assert mem.read_word(0) == 0xFF << 56
        mem.write_data(4, 0xFFFFFFFF, 4)
        assert mem.read_word(0) == 0xFFFFFFFF << 32
        assert mem.read_data(0, 4) == 0

    def test_unaligned_subword_rejected(self, mem):
        with pytest.raises(AlignmentError):
            mem.read_data(1, 2)
        with pytest.raises(AlignmentError):
            mem.write_data(2, 0, 4)

    def test_unsupported_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.read_data(0, 3)


class TestClearRegion:
    def test_clears_words_and_bits(self, mem):
        mem.write_word_tagged(32, 99, 1)
        mem.write_word_tagged(40, 98, 1)
        mem.clear_region(32, 16)
        assert mem.read_word(32) == 0
        assert mem.read_fbit(32) == 0
        assert mem.read_fbit(40) == 0

    def test_does_not_touch_outside(self, mem):
        mem.write_word_tagged(24, 7, 1)
        mem.write_word_tagged(48, 9, 1)
        mem.clear_region(32, 16)
        assert mem.read_word(24) == 7
        assert mem.read_fbit(48) == 1

    def test_requires_word_alignment(self, mem):
        with pytest.raises(AlignmentError):
            mem.clear_region(4, 8)
        with pytest.raises(AlignmentError):
            mem.clear_region(8, 12)

    def test_range_checked(self, mem):
        with pytest.raises(MemoryAccessError):
            mem.clear_region(mem.size - 8, 16)
