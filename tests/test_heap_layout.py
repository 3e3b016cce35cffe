"""Unit tests for heap layout constants and helpers."""

import pytest

from repro.heap import layout


class TestAlignment:
    def test_align_up_zero(self):
        assert layout.align_up(0) == 0

    def test_align_up_already_aligned(self):
        assert layout.align_up(16) == 16

    def test_align_up_rounds(self):
        assert layout.align_up(1) == layout.WORD_BYTES
        assert layout.align_up(9) == 16

    def test_align_up_idempotent(self):
        for n in range(0, 100):
            a = layout.align_up(n)
            assert layout.align_up(a) == a

    def test_is_aligned(self):
        assert layout.is_aligned(0)
        assert layout.is_aligned(layout.WORD_BYTES)
        assert not layout.is_aligned(1)
        assert not layout.is_aligned(layout.WORD_BYTES + 3)

    def test_word_shift_consistent(self):
        assert 1 << layout.WORD_SHIFT == layout.WORD_BYTES


class TestAddressTagging:
    """Aligned addresses leave their low bits free, and every one is truthy:
    the mark loops skip a null slot by its truth."""

    def test_aligned_addresses_are_untagged(self):
        for addr in (layout.HEAP_BASE_ADDRESS, 0x2000, 0x10 * 7):
            assert addr & layout.ALIGN_MASK == 0

    def test_every_address_is_truthy_and_null_is_not(self):
        assert not layout.NULL
        assert all(addr for addr in (layout.HEAP_BASE_ADDRESS, layout.HEAP_BASE_ADDRESS + layout.WORD_BYTES))

    def test_null_is_zero(self):
        assert layout.NULL == 0

    def test_heap_base_above_null(self):
        assert layout.HEAP_BASE_ADDRESS > 0
        assert layout.is_aligned(layout.HEAP_BASE_ADDRESS)


class TestObjectSizes:
    def test_header_is_two_words(self):
        assert layout.HEADER_BYTES == 2 * layout.WORD_BYTES

    def test_scalar_size_is_word(self):
        assert layout.scalar_size("int") == layout.WORD_BYTES
