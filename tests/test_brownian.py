import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdepca import brownian
from sdepca.brownian import (
    _DRAW_TILE,
    _PIECE_STEPS,
    BrownianGrid,
    coarsen_array,
    generate_increments,
    generate_path,
    increment_pieces,
    path_rng,
    read_path,
    steps_per_unit,
    write_path,
)


class TestStepsPerUnit:
    @given(st.integers(min_value=0, max_value=1023))
    def test_dyadic_steps_give_their_power_of_two(self, k):
        assert steps_per_unit(2.0**-k) == 2**k

    @pytest.mark.parametrize(
        "step", [0.0, -0.5, float("nan"), float("inf"), -float("inf"), 2.0, 3 * 2.0**-8, 2.0**-1074]
    )
    def test_other_steps_raise_naming_the_argument(self, step):
        # 2^-1074 is subnormal: its 1/step overflows, so it is rejected
        # rather than raising OverflowError further on
        with pytest.raises(ValueError, match="^fine_step must be a power of two"):
            steps_per_unit(step)
        with pytest.raises(ValueError, match="^step size must be a power of two"):
            steps_per_unit(step, "step size")

    def test_lattices_above_a_unit_step_are_rejected(self):
        with pytest.raises(ValueError, match="fine_step"):
            generate_path(0, 0, 4.0, 2.0, 1)


class TestPathRng:
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_keys_outside_two_words_raise_naming_the_argument(self, value):
        # these raised OverflowError from numpy's uint64 conversion
        with pytest.raises(ValueError, match=rf"^master_seed must be a nonnegative integer below 2\^64, got {value}$"):
            path_rng(value, 0)
        with pytest.raises(ValueError, match=rf"^path_index must be a nonnegative integer below 2\^64, got {value}$"):
            path_rng(0, value)

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**32, 2**63, 2**64 - 1])
    def test_index_zero_is_the_stream_of_a_one_word_key(self, seed):
        # the dissipativity probe used Philox(key=np.uint64(seed)) and now
        # draws from path_rng(seed, 0); its reports depend on these agreeing
        one_word = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        assert np.array_equal(path_rng(seed, 0).random(64), one_word.random(64))


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
    def test_pieces_join_to_the_whole_draw(self, fine_step):
        # 3 unit blocks of 2^4 steps of 2 normals: one draw of the whole
        # lattice; 2^11: pieces of 256 steps, which must continue each
        # path's stream
        m = round(1 / fine_step)
        pieces = list(increment_pieces(9, 3, 7, 3 * m, fine_step, 2))
        # step-major: row l of a piece is its step l of every path
        shapes = [(48, 4, 2)] if m == 16 else [(_PIECE_STEPS, 4, 2)] * (3 * m // _PIECE_STEPS)
        assert [p.shape for p in pieces] == shapes
        whole = np.stack([generate_increments(9, i, 3.0, fine_step, 2) for i in range(3, 7)], axis=1)
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        assert list(increment_pieces(9, 3, 7, 0, fine_step, 2)) == []

    def test_piece_arguments_are_checked_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(brownian, "_FREE_RNGS", [])
        for args, message in [
            ((9, 0, 2, 8, 0.3), "power of two"),
            ((9, 0, 2, 8, 0.5, 0), "dim_noise must be positive"),
            ((-1, 0, 2, 8, 0.5), "^master_seed must be a nonnegative"),
            ((2**64, 0, 2, 8, 0.5), "^master_seed must be a nonnegative"),
            ((9, -1, 2, 8, 0.5), "^path_index must be a nonnegative integer below 2\\^64, got -1$"),
            ((9, 2**64 - 1, 2**64 + 1, 8, 0.5), "^path_index must be a nonnegative integer below 2\\^64, got 18446744073709551616$"),
        ]:
            with pytest.raises(ValueError, match=message):
                increment_pieces(*args)
        # a rejected call takes no generator from the free list
        brownian._FREE_RNGS.append(path_rng(0, 0))
        with pytest.raises(ValueError):
            increment_pieces(9, 2**64 - 1, 2**64 + 1, 8, 0.5)
        assert len(brownian._FREE_RNGS) == 1

    @pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 130])
    def test_streamed_blocks_straddle_the_draw_tile(self, n_paths):
        # the draw fills path-major tiles of _DRAW_TILE paths; the path
        # counts fall short of, fill, and spill over one and two tiles
        assert _DRAW_TILE == 64 and _PIECE_STEPS == 256
        # (m, K, widest lane factor, r, piece lengths): at m = 16 a draw of
        # 256 steps covers 16 unit blocks and the last draw, of 128 steps,
        # is short; at m = 2048 every draw is 256 steps, or a multiple of a
        # wider lane factor
        cases = [
            (16, 40, 1, 1, [256, 256, 128]),
            (16, 40, 8, 2, [256, 256, 128]),
            (2048, 2, 1, 1, [256] * 16),
            (2048, 2, 4, 2, [256] * 16),
            (2048, 2, 512, 1, [512] * 8),
            (2048, 1, 1024, 2, [1024] * 2),
        ]
        for m, K, factor, r, lengths in cases:
            pieces = list(increment_pieces(4, 10, 10 + n_paths, K * m, 1.0 / m, r, factor))
            assert [p.shape for p in pieces] == [(s, n_paths, r) for s in lengths]
            joined = np.concatenate(pieces)
            for j in range(n_paths):
                path = generate_increments(4, 10 + j, float(K), 1.0 / m, r)
                assert joined[:, j].tobytes() == path.tobytes()


def path_increments(master_seed, lo, hi, n_steps, fine_step, r=1):
    """Paths lo..hi-1 over n_steps, each from a Philox generator built on
    its key, step-major like a piece."""
    paths = [
        np.random.Generator(np.random.Philox(key=np.array([master_seed, i], dtype=np.uint64)))
        .standard_normal((n_steps, r)) * math.sqrt(fine_step)
        for i in range(lo, hi)
    ]
    return np.stack(paths, axis=1)


class TestGeneratorPool:
    """increment_pieces keys its paths' generators from a free list; every
    piece must still equal each path's own stream."""

    @pytest.fixture(autouse=True)
    def empty_pool(self, monkeypatch):
        monkeypatch.setattr(brownian, "_FREE_RNGS", [])

    def test_generators_go_back_once_the_last_piece_is_drawn(self):
        pieces = increment_pieces(5, 0, 3, 600, 2.0**-11)
        assert brownian._FREE_RNGS == []
        drawn = [next(pieces), next(pieces)]
        assert brownian._FREE_RNGS == []
        drawn.append(next(pieces))  # 600 = 256 + 256 + 88 steps
        assert len(brownian._FREE_RNGS) == 3
        assert np.concatenate(drawn).tobytes() == path_increments(5, 0, 3, 600, 2.0**-11).tobytes()
        increment_pieces(6, 10, 12, 8, 0.5)
        assert len(brownian._FREE_RNGS) == 1  # the next span took two

    def test_a_piece_let_go_of_is_freed_before_the_next_draw(self):
        # the runner frees each piece before it takes the next, so that a
        # span holds one piece of noise; the iterator must not keep one
        pieces = increment_pieces(1, 0, 4, 3 * _PIECE_STEPS, 2.0**-11)
        first = weakref.ref(next(pieces))
        assert first() is None
        last = weakref.ref(list(pieces)[-1])
        assert last() is None

    def test_two_live_iterators_interleaved(self):
        # two spans drawn in turn, each on generators of its own, over
        # overlapping paths; a third span takes the seven they gave back
        fine_step, n = 2.0**-11, 3 * _PIECE_STEPS
        a = increment_pieces(7, 0, 4, n, fine_step, 2)
        b = increment_pieces(8, 2, 5, n, fine_step, 2)
        got_a, got_b = [], []
        for piece_a, piece_b in zip(a, b):
            got_a.append(piece_a)
            got_b.append(piece_b)
        assert len(brownian._FREE_RNGS) == 7
        c = list(increment_pieces(9, 0, 7, n, fine_step, 2))
        assert len(brownian._FREE_RNGS) == 7
        assert np.concatenate(got_a).tobytes() == path_increments(7, 0, 4, n, fine_step, 2).tobytes()
        assert np.concatenate(got_b).tobytes() == path_increments(8, 2, 5, n, fine_step, 2).tobytes()
        assert np.concatenate(c).tobytes() == path_increments(9, 0, 7, n, fine_step, 2).tobytes()

    def test_an_iterator_left_before_its_last_piece_keeps_its_generators(self):
        fine_step, n = 2.0**-11, 2 * _PIECE_STEPS
        left = increment_pieces(3, 0, 5, n, fine_step)
        first = next(left)
        # spans that run to the end in the meantime, before and after the
        # pool holds generators
        for seed in (4, 5, 6):
            whole = list(increment_pieces(seed, 0, 8, n, fine_step))
            assert np.concatenate(whole).tobytes() == path_increments(seed, 0, 8, n, fine_step).tobytes()
        assert len(brownian._FREE_RNGS) == 8
        rest = list(left)
        assert np.concatenate([first, *rest]).tobytes() == path_increments(3, 0, 5, n, fine_step).tobytes()
        assert len(brownian._FREE_RNGS) == 13

    def test_a_pooled_generator_is_rekeyed_from_any_state(self):
        # a span of another seed leaves its generators mid-stream; 32-bit
        # and uniform draws also leave a half-used word and buffer behind
        list(increment_pieces(11, 0, 4, 300, 2.0**-11))
        for rng in brownian._FREE_RNGS[:2]:
            rng.integers(0, 10, size=3, dtype=np.uint32)
            rng.random(5)
        pool = list(brownian._FREE_RNGS)
        pieces = list(increment_pieces(12, 100, 104, 300, 2.0**-11))
        assert brownian._FREE_RNGS and all(any(g is h for h in pool) for g in brownian._FREE_RNGS)
        assert np.concatenate(pieces).tobytes() == path_increments(12, 100, 104, 300, 2.0**-11).tobytes()

    def test_keys_at_the_ends_of_two_words(self):
        top = 2**64 - 1
        pieces = list(increment_pieces(top, top - 2, top + 1, 4, 0.25))
        assert np.concatenate(pieces).tobytes() == path_increments(top, top - 2, top + 1, 4, 0.25).tobytes()
        # path_rng keys a generator from the free list too, and keeps it
        assert path_rng(top, top).random(8).tobytes() == np.random.Generator(np.random.Philox(key=[top, top])).random(8).tobytes()
        assert len(brownian._FREE_RNGS) == 2


class TestCoarsen:
    def test_pairwise_example(self):
        incs = np.array([[0.1], [-0.2], [0.3], [0.05]])
        out = coarsen_array(incs, 2)
        assert out[0, 0] == pytest.approx(-0.1, abs=1e-15)
        assert out[1, 0] == pytest.approx(0.35, abs=1e-15)

    def test_factor_one_is_identity(self):
        grid = generate_path(1, 1, 1.0, 2.0**-4, 1)
        out = coarsen_array(grid.increments, 1)
        assert np.array_equal(out, grid.increments)
        assert out is not grid.increments

    def test_full_factor_matches_left_to_right_sum(self):
        grid = generate_path(2, 5, 1.0, 2.0**-5, 1)
        out = coarsen_array(grid.increments, 32)
        total = 0.0
        for v in grid.increments[:, 0]:
            total += v
        assert out.shape == (1, 1)
        assert out[0, 0] == total

    def test_rejects_non_divisor(self):
        grid = generate_path(3, 0, 1.0, 2.0**-3, 1)
        with pytest.raises(ValueError):
            coarsen_array(grid.increments, 3)

    def test_group_sums_match_per_group_oracle(self):
        grid = generate_path(11, 4, 2.0, 2.0**-4, 2)
        out = coarsen_array(grid.increments, 4)
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


class TestBinaryDump:
    def test_round_trip(self, tmp_path):
        grid = generate_path(21, 3, 2.0, 2.0**-6, 2)
        target = tmp_path / "path.spca"
        write_path(grid, target)
        fine_step, increments = read_path(target)
        assert fine_step == grid.fine_step
        assert np.array_equal(increments, grid.increments)

    def test_a_grid_reads_dim_noise_from_its_increments(self, tmp_path):
        # dim_noise is the width of the increments, not a field that can
        # disagree with it, so a dump's header always matches its payload
        grid = BrownianGrid(fine_step=0.5, increments=np.array([[0.25], [-0.5]]), path_index=0)
        with pytest.raises(TypeError):
            dataclasses.replace(grid, dim_noise=2)
        target = tmp_path / "path.spca"
        write_path(grid, target)
        fine_step, increments = read_path(target)
        assert fine_step == 0.5
        assert increments.tolist() == [[0.25], [-0.5]]
        wide = generate_path(21, 3, 1.0, 0.5, 2)
        write_path(wide, target)
        assert read_path(target)[1].tobytes() == wide.increments.tobytes()
        assert read_path(target)[1].shape == (2, 2)

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
