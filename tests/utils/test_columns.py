"""The index-column width rule: two bytes while every value fits."""

from array import array

import pytest

from repro.utils.columns import index_typecode


@pytest.mark.parametrize("limit, itemsize", [
    (1, 2), (13_609, 2), (65_535, 2), (65_536, 2),
    (65_537, 4), (101_000, 4), (200_000, 4), (2**32, 4),
])
def test_width_follows_the_bound(limit, itemsize):
    assert array(index_typecode(limit)).itemsize == itemsize


@pytest.mark.parametrize("limit", [65_536, 65_537, 2**32])
def test_every_value_below_the_bound_fits_and_one_past_the_width_raises(limit):
    column = array(index_typecode(limit), [0, limit - 1])
    assert column.tolist() == [0, limit - 1]
    with pytest.raises(OverflowError):
        column.append(1 << 8 * column.itemsize)
