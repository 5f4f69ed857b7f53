import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdepca.brownian import (
    _MIN_STREAMED_BLOCK,
    block_increment,
    coarsen,
    coarsen_array,
    generate_increments,
    generate_path,
    increment_blocks,
    read_path,
    write_path,
)


class TestGeneratePath:
    def test_shape_and_determinism(self):
        grid = generate_path(7, 0, 1.0, 2.0**-3, 1)
        assert grid.increments.shape == (8, 1)
        again = generate_path(7, 0, 1.0, 2.0**-3, 1)
        assert np.array_equal(grid.increments, again.increments)

    def test_distinct_indices_differ(self):
        a = generate_path(7, 0, 1.0, 2.0**-3, 1)
        b = generate_path(7, 1, 1.0, 2.0**-3, 1)
        assert not np.array_equal(a.increments, b.increments)

    def test_rejects_non_integral_ratio(self):
        with pytest.raises(ValueError):
            generate_path(0, 0, 1.1, 2.0**-3, 1)

    def test_rejects_non_power_of_two_step(self):
        with pytest.raises(ValueError):
            generate_path(0, 0, 1.0, 0.3, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            generate_path(-1, 0, 1.0, 0.5, 1)

    def test_increment_moments(self):
        # Monte Carlo oracle on the generator itself: per-position mean ~ 0
        # within 4 sigma / sqrt(N), variance within 5% of the step size.
        n_paths, step = 100_000, 2.0**-1
        data = np.empty((n_paths, 2))
        for i in range(n_paths):
            data[i] = generate_increments(123, i, 1.0, step, 1)[:, 0]
        for j in range(2):
            assert abs(data[:, j].mean()) < 4.0 * np.sqrt(step) / np.sqrt(n_paths)
            assert abs(data[:, j].var(ddof=1) - step) / step < 0.05

    def test_cross_path_independence(self):
        # near-zero correlation between increments of adjacent path indices
        n = 100_000
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            a[i] = generate_increments(9, 2 * i, 0.5, 2.0**-1, 1)[0, 0]
            b[i] = generate_increments(9, 2 * i + 1, 0.5, 2.0**-1, 1)[0, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_multidimensional_noise(self):
        grid = generate_path(4, 2, 2.0, 2.0**-2, 3)
        assert grid.increments.shape == (8, 3)

    @pytest.mark.parametrize("fine_step", [2.0**-4, 2.0**-11], ids=["whole", "streamed"])
    def test_unit_blocks_join_to_the_whole_draw(self, fine_step):
        # 2^4 steps of 2 normals are cut from one whole draw per path; 2^11
        # are drawn one block at a time and must continue each path's stream
        assert 2**4 * 2 < _MIN_STREAMED_BLOCK <= 2**11 * 2
        blocks = list(increment_blocks(9, 3, 7, 3, fine_step, 2))
        assert [b.shape for b in blocks] == [(4, round(1 / fine_step), 2)] * 3
        whole = np.stack([generate_increments(9, i, 3.0, fine_step, 2) for i in range(3, 7)])
        assert np.concatenate(blocks, axis=1).tobytes() == whole.tobytes()
        assert list(increment_blocks(9, 3, 7, 0, fine_step, 2)) == []


class TestCoarsen:
    def test_pairwise_example(self):
        incs = np.array([[0.1], [-0.2], [0.3], [0.05]])
        out = coarsen_array(incs, 2)
        assert out[0, 0] == pytest.approx(-0.1, abs=1e-15)
        assert out[1, 0] == pytest.approx(0.35, abs=1e-15)

    def test_factor_one_is_identity(self):
        grid = generate_path(1, 1, 1.0, 2.0**-4, 1)
        out = coarsen(grid, 1)
        assert np.array_equal(out, grid.increments)
        assert out is not grid.increments

    def test_full_factor_matches_left_to_right_sum(self):
        grid = generate_path(2, 5, 1.0, 2.0**-5, 1)
        out = coarsen(grid, 32)
        total = 0.0
        for v in grid.increments[:, 0]:
            total += v
        assert out.shape == (1, 1)
        assert out[0, 0] == total

    def test_rejects_non_divisor(self):
        grid = generate_path(3, 0, 1.0, 2.0**-3, 1)
        with pytest.raises(ValueError):
            coarsen(grid, 3)

    def test_group_sums_match_per_group_oracle(self):
        grid = generate_path(11, 4, 2.0, 2.0**-4, 2)
        out = coarsen(grid, 4)
        for j in range(out.shape[0]):
            for c in range(2):
                acc = 0.0
                for i in range(4 * j, 4 * j + 4):
                    acc += grid.increments[i, c]
                assert out[j, c] == acc

    @given(
        log2n=st.integers(2, 6),
        a=st.integers(1, 3),
        b=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_nested_coarsening_near_associative(self, log2n, a, b, seed):
        # left-to-right group sums are not exactly associative in IEEE-754;
        # nested and direct coarsening agree to a few ulp
        n = 2**log2n
        fa, fb = 2**a, 2**b
        if fa * fb > n:
            return
        rng = np.random.default_rng(seed)
        incs = rng.standard_normal((n, 1))
        nested = coarsen_array(coarsen_array(incs, fa), fb)
        direct = coarsen_array(incs, fa * fb)
        np.testing.assert_allclose(nested, direct, rtol=1e-12, atol=1e-15)


class TestBlockIncrement:
    def test_indexing(self):
        coarse = np.arange(10, dtype=float).reshape(10, 1)
        assert block_increment(coarse, 2, 1, 0)[0] == 2.0
        assert block_increment(coarse, 4, 0, 3)[0] == 3.0

    def test_out_of_range(self):
        coarse = np.arange(5, dtype=float).reshape(5, 1)
        with pytest.raises(IndexError):
            block_increment(coarse, 2, 2, 1)
        with pytest.raises(IndexError):
            block_increment(coarse, 2, 0, 2)  # l must stay below m


class TestBinaryDump:
    def test_round_trip(self, tmp_path):
        grid = generate_path(21, 3, 2.0, 2.0**-6, 2)
        target = tmp_path / "path.spca"
        write_path(grid, target)
        fine_step, increments = read_path(target)
        assert fine_step == grid.fine_step
        assert np.array_equal(increments, grid.increments)

    def test_header_layout(self, tmp_path):
        grid = generate_path(0, 0, 1.0, 2.0**-2, 1)
        target = tmp_path / "path.spca"
        write_path(grid, target)
        raw = target.read_bytes()
        assert raw[:4] == b"SPCA"
        assert len(raw) == 28 + 4 * 8

    def test_rejects_foreign_file(self, tmp_path):
        target = tmp_path / "bogus.bin"
        target.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError):
            read_path(target)
