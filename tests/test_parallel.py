import pytest

from rissim.channel import MeasurementFloorError
from rissim.parallel import parallel_map


def _cube(n):
    return n**3


def _floor_at_three(n):
    if n == 3:
        raise MeasurementFloorError(f"item {n} has no measurable power")
    return n


def test_results_come_back_in_input_order():
    items = range(7)
    serial = parallel_map(_cube, items)
    assert serial == [n**3 for n in items]
    assert parallel_map(_cube, items, parallel=2) == serial
    assert parallel_map(_cube, [], parallel=2) == []


@pytest.mark.parametrize("parallel", [1, 2])
def test_worker_exception_reaches_caller_with_its_own_type(parallel):
    with pytest.raises(MeasurementFloorError, match="item 3 has no measurable power") as err:
        parallel_map(_floor_at_three, range(6), parallel)
    assert type(err.value) is MeasurementFloorError
