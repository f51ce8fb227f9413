import numpy as np
import pytest

from flashopt.synth import make_synthetic

from conftest import reference_synthetic


class TestTablesAgainstReference:
    @pytest.mark.parametrize("name", ["line", "sphere2", "step"])
    def test_same_bytes_as_the_list_tables(self, name):
        # tobytes, not ==, so that a -0.0 against a 0.0 would show; at
        # 10,000 rows sphere2 shows where numpy's ** 2 and Python's differ.
        for n in [*range(4, 300), 1000, 4000, 10000]:
            got, want = make_synthetic(name, n), reference_synthetic(name, n)
            assert (got.name, got.decision_names, got.schema) == (
                want.name, want.decision_names, want.schema
            )
            assert got.x.shape == want.x.shape and got.y.shape == want.y.shape
            assert got.x.tobytes() == want.x.tobytes(), n
            assert got.y.tobytes() == want.y.tobytes(), n

    def test_two_point_line(self):
        got = make_synthetic("line", 2)
        assert np.array_equal(got.x, [[0.0], [1.0]])
        assert got.y.tobytes() == reference_synthetic("line", 2).y.tobytes()
