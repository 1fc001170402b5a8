import numpy as np
import pytest

from flmlab.benchmarks import (
    build_long_k_path,
    long_k_path_length,
    make_benchmark,
    pack_words,
    verify_long_k_path,
)


def strings(path):
    return ["".join(str(int(b)) for b in pt) for pt in path.points]


def test_base_path_n2_k2():
    path = build_long_k_path(2, 2)
    assert strings(path) == ["00", "01", "11"]
    assert len(path) == 2 * 2 - 2 + 1


def test_path_n4_k2_matches_hand_recursion():
    path = build_long_k_path(4, 2)
    assert len(path) == 7
    assert strings(path)[0] == "0000"
    assert strings(path)[-1] == "1100"
    verify_long_k_path(path)


def test_path_n6_k3_length():
    assert len(build_long_k_path(6, 3)) == 3 * 2**2 - 3 + 1 == 10


@pytest.mark.parametrize(
    "n,k",
    [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (12, 3), (12, 4), (16, 4), (18, 2)],
)
def test_distance_properties_exhaustive(n, k):
    # (18, 2) has 1023 points, well inside the all-pairs checking regime
    path = build_long_k_path(n, k)
    assert len(path) == long_k_path_length(n, k)
    verify_long_k_path(path)


def test_verify_rejects_a_repeated_point():
    path = build_long_k_path(6, 2)
    path.points[5] = path.points[1].copy()
    with pytest.raises(AssertionError, match="not distinct"):
        verify_long_k_path(path)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        build_long_k_path(5, 2)  # k does not divide n
    with pytest.raises(ValueError):
        build_long_k_path(4, 1)  # k too small
    for n in (0, -3):
        with pytest.raises(ValueError):
            build_long_k_path(n, 3)  # k divides n, but n < k
    with pytest.raises(ValueError, match="2097151 points, exceeding the cap 1000000"):
        build_long_k_path(40, 2)  # memory cap


def test_long_path_fitness_values():
    fitness = make_benchmark("longpath", 4, 2).fitness
    strings = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.uint8)
    assert fitness(pack_words(strings)).tolist() == [0, 6, -1]


def test_on_path_fitness_distinct_and_increasing():
    bm = make_benchmark("longpath", 8, 2)
    values = bm.fitness(pack_words(np.array(bm.path.points)))
    assert values.tolist() == list(range(len(bm.path)))
