import numpy as np
import pytest


@pytest.fixture
def worked_table() -> tuple[float, ...]:
    """The symmetric regression table used across the suite."""
    return (10, 20, 30, 30, 20, 10)


def assert_bit_identical(got, want) -> None:
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def random_tables(n: int, seed: int, max_count: int = 60, corrected: bool = True) -> np.ndarray:
    """(n, 6) batch of random nondegenerate tables.

    Cell counts are uniform integers; the +1/2 shift keeps every margin
    positive so all statistics are defined.
    """
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, max_count + 1, size=(n, 6)).astype(float)
    if corrected:
        cells += 0.5
    return cells


def random_interior_simplex(n: int, seed: int, floor: float = 1e-4) -> np.ndarray:
    """(n, 3) strictly interior probability triples."""
    rng = np.random.default_rng(seed)
    props = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    keep = props.min(axis=1) > floor
    return props[keep]


def count_kernel_passes(monkeypatch) -> list[int]:
    """Rows of each kernel pass that :func:`~trendmax.battery.evaluate_battery` makes, from now on."""
    import trendmax.battery

    passes = []
    original = trendmax.battery._parts

    def counting(cells, *args, **kwargs):
        passes.append(len(cells))
        return original(cells, *args, **kwargs)

    monkeypatch.setattr(trendmax.battery, "_parts", counting)
    return passes


def max_of(scores) -> str:
    """The statistic name MAX[x1:...:xk] of the maximum over ``scores``; each float's str reads back exactly."""
    return f"MAX[{':'.join(str(float(x)) for x in scores)}]"
