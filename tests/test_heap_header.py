"""Unit tests for object-header bit manipulation."""

from repro.heap import header as hdr


class TestBits:
    def test_all_flag_bits_distinct(self):
        bits = [
            hdr.MARK_BIT,
            hdr.DEAD_BIT,
            hdr.UNSHARED_BIT,
            hdr.OWNEE_BIT,
            hdr.OWNER_BIT,
            hdr.FREED_BIT,
            hdr.HASHED_BIT,
        ]
        assert len(set(bits)) == len(bits)
        for a in bits:
            for b in bits:
                if a is not b:
                    assert a & b == 0

    def test_flags_fit_in_flag_mask(self):
        combined = (
            hdr.MARK_BIT
            | hdr.DEAD_BIT
            | hdr.UNSHARED_BIT
            | hdr.OWNEE_BIT
            | hdr.OWNER_BIT
            | hdr.FREED_BIT
            | hdr.HASHED_BIT
        )
        assert combined & ~hdr.FLAG_MASK == 0

    def test_set_and_test(self):
        status = hdr.new_status()
        assert not hdr.test(status, hdr.DEAD_BIT)
        status = hdr.set_bit(status, hdr.DEAD_BIT)
        assert hdr.test(status, hdr.DEAD_BIT)

    def test_clear(self):
        status = hdr.set_bit(hdr.new_status(), hdr.MARK_BIT)
        status = hdr.clear_bit(status, hdr.MARK_BIT)
        assert not hdr.test(status, hdr.MARK_BIT)

    def test_set_is_idempotent(self):
        status = hdr.set_bit(hdr.new_status(), hdr.UNSHARED_BIT)
        assert hdr.set_bit(status, hdr.UNSHARED_BIT) == status

    def test_flags_do_not_clobber_hash(self):
        status = hdr.new_status(hash_code=12345)
        status = hdr.set_bit(status, hdr.MARK_BIT | hdr.DEAD_BIT)
        assert hdr.hash_of(status) == 12345
        status = hdr.clear_bit(status, hdr.MARK_BIT)
        assert hdr.hash_of(status) == 12345


class TestDescribe:
    def test_empty(self):
        assert hdr.describe(0) == "-"

    def test_single(self):
        assert hdr.describe(hdr.DEAD_BIT) == "DEAD"

    def test_multiple(self):
        text = hdr.describe(hdr.DEAD_BIT | hdr.OWNEE_BIT)
        assert "DEAD" in text
        assert "OWNEE" in text

    def test_reserved_mark_bit_has_no_name(self):
        # The mark lives in ObjectHeap.marks; bit 0x01 is reserved, never
        # set, and so never rendered.
        assert hdr.describe(hdr.MARK_BIT) == "-"
