import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochlab.fieldio import HEADER_BYTES, MAGIC, read_field_dump, write_field_dump


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    vals = rng.standard_normal(24)
    p = tmp_path / "f.blf"
    write_field_dump(p, vals, (4, 6))
    back, n = read_field_dump(p)
    assert n == (4, 6)
    assert np.array_equal(back, vals)  # bitwise, not approximate


def test_roundtrip_all_dimensions(tmp_path):
    for n in [(5,), (3, 4), (2, 3, 4)]:
        vals = np.arange(float(np.prod(n)))
        p = tmp_path / "f.blf"
        write_field_dump(p, vals, n)
        back, shape = read_field_dump(p)
        assert shape == n
        assert_allclose(back, vals)
        assert p.stat().st_size == HEADER_BYTES + 8 * vals.size


def test_write_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError, match="does not match shape"):
        write_field_dump(tmp_path / "f.blf", np.ones(5), (2, 3))
    with pytest.raises(ValueError, match="does not match shape"):  # 2^64 cells, not 0
        write_field_dump(tmp_path / "f.blf", np.ones(0), (2**31, 2**31, 4))
    with pytest.raises(ValueError, match="dimension"):
        write_field_dump(tmp_path / "f.blf", np.ones(16), (2, 2, 2, 2))


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "f.blf"
    p.write_bytes(b"NOTMAGIC" + bytes(24) + np.ones(4).tobytes())
    with pytest.raises(ValueError, match="bad magic"):
        read_field_dump(p)


def test_read_rejects_truncation(tmp_path):
    p = tmp_path / "f.blf"
    p.write_bytes(MAGIC[:4])
    with pytest.raises(ValueError, match="truncated"):
        read_field_dump(p)


def test_read_rejects_size_mismatch(tmp_path):
    p = tmp_path / "f.blf"
    write_field_dump(p, np.ones(6), (2, 3))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError, match="size mismatch"):
        read_field_dump(p)
    # a header alone whose cell count is 2^64: an int64 product wraps it to 0
    p.write_bytes(struct.pack("<8s4I8x", MAGIC, 3, 2**31, 2**31, 4))
    with pytest.raises(ValueError, match="size mismatch"):
        read_field_dump(p)


def test_read_rejects_nonfinite(tmp_path):
    p = tmp_path / "f.blf"
    vals = np.ones(4)
    vals[1] = np.nan
    write_field_dump(p, vals, (4,))
    with pytest.raises(ValueError, match="non-finite"):
        read_field_dump(p)


def test_read_rejects_bad_dimension(tmp_path):
    p = tmp_path / "f.blf"
    header = struct.pack("<8s4I8x", MAGIC, 5, 2, 2, 1)
    p.write_bytes(header + np.ones(4).tobytes())
    with pytest.raises(ValueError, match="bad dimension"):
        read_field_dump(p)


def test_read_rejects_zero_count(tmp_path):
    p = tmp_path / "f.blf"
    header = struct.pack("<8s4I8x", MAGIC, 2, 0, 4, 1)
    p.write_bytes(header)
    with pytest.raises(ValueError, match="bad cell counts"):
        read_field_dump(p)
