"""Block-seeded substreams: the same draws as one `spawn_rng` per realization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislink.geometry import azimuth_rotation_frame, rotate
from rislink.propagation import component_norm
from rislink.rng import LinkTag, block_rngs, spawn_rng

LAST_INDEX = 2**32 - 1


def draws(rng: np.random.Generator) -> list:
    """A mixed read of the stream, the kinds of draws the channel engine makes."""
    return [rng.uniform(size=3), rng.normal(size=2), rng.poisson(1.8, size=2),
            rng.integers(1, 30, size=4), rng.uniform(0.0, 2.0 * np.pi)]


@st.composite
def blocks(draw):
    start = draw(st.integers(0, LAST_INDEX))
    step = draw(st.integers(1, 3))
    count = draw(st.integers(0, 12))
    return range(start, min(start + step * count, LAST_INDEX + 1), step)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**140), realizations=blocks(),
       tag=st.sampled_from(list(LinkTag)),
       extra=st.lists(st.integers(0, 2**70), max_size=3))
def test_block_streams_equal_spawned_streams(seed, realizations, tag, extra):
    got = block_rngs(seed, realizations, tag, *extra)
    assert len(got) == len(realizations)
    for r, rng in zip(realizations, got):
        expected = spawn_rng(seed, r, tag, *extra)
        for a, b in zip(draws(rng), draws(expected)):
            assert np.array_equal(a, b)
        assert rng.bit_generator.state == expected.bit_generator.state


def test_streams_are_independent_objects():
    first, second = block_rngs(7, range(2), LinkTag.TX_RIS, 0)
    assert first is not second and first.bit_generator is not second.bit_generator
    assert first.uniform() != second.uniform()


@pytest.mark.parametrize("realizations", [range(LAST_INDEX, LAST_INDEX + 2),
                                          range(2**40, 2**40 + 1), range(-1, 1)])
def test_indices_outside_one_word_are_refused(realizations):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        block_rngs(1, realizations, LinkTag.DIRECT)


def test_negative_keys_are_refused():
    with pytest.raises(ValueError):
        block_rngs(-1, range(2), LinkTag.DIRECT)
    with pytest.raises(ValueError):
        block_rngs(1, range(2), LinkTag.RIS_RX, -3)


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_unit_draws_map_to_the_direct_calls(seed):
    """The numpy behaviour behind drawing unit variates per stream and mapping
    them once per block (`propagation.stack_cluster_variates`): each mapped
    draw equals the direct call bit for bit, and splitting or joining a
    draw of one kind changes nothing.  Were a numpy release to break one,
    every substream's values would shift; this fails first."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    low, high = -np.deg2rad(40.0), np.deg2rad(40.0)
    for n in (1, 5, 64):
        assert a.uniform(low, high, n).tobytes() == (low + (high - low) * b.random(n)).tobytes()
    assert a.uniform() == b.random()
    assert a.uniform(0.0, 2.0 * np.pi) == 2.0 * np.pi * b.random()
    assert float(a.standard_normal(())) == b.standard_normal()
    for n in (1, 9):
        split = np.concatenate([a.standard_normal(n) for _ in range(3)])
        assert split.tobytes() == b.standard_normal(3 * n).tobytes()
        split = np.concatenate([a.random(n) for _ in range(3)])
        assert split.tobytes() == b.random(3 * n).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 17])
@pytest.mark.parametrize("low,high", [(1, 2), (2, 11), (3, 31), (0, 2**31 + 5)])
def test_scalar_integer_draws_equal_one_sized_draw(seed, low, high):
    """The numpy behaviour behind drawing a link's scatterer counts as scalar
    calls (`propagation.draw_cluster_units`): k scalar `integers` calls read
    the values and leave the stream as one call of size k, so the uniforms
    and normals drawn next match too."""
    for k in range(1, 9):
        a, b = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
        scalars = [a.integers(low, high) for _ in range(k)]
        assert np.array_equal(scalars, b.integers(low, high, size=k))
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random(3).tobytes() == b.random(3).tobytes()
        assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


def rows_with_edge_entries(seed: int) -> np.ndarray:
    """Random (P, 3) rows over many magnitudes, plus rows of zeros, subnormals
    and 1e150 entries (whose squares overflow), mixed with ordinary ones."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((4000, 3)) * 10.0 ** rng.uniform(-8, 8, (4000, 1))
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, 1.0], [tiny, 0.0, 0.0], [3 * tiny, -tiny, 2.0],
                     [1e150, 0.0, 0.0], [1e150, -1e150, 3.0], [5e-324, 1e150, 0.0]])
    return np.concatenate([rows, edge])


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_component_norm_equals_the_row_norm(seed):
    """The numpy behaviour behind taking path lengths on (3, P) components
    (`propagation.component_norm`): `np.linalg.norm` over the component axis
    sums x*x + y*y + z*z left to right, as `np.linalg.norm(axis=-1)` does on
    the (P, 3) rows, bit for bit; and a negated delta has the same length and
    the negated unit vector.  Were a numpy release to sum either in another
    order, every path weight would move by rounding; this fails first."""
    rows = rows_with_edge_entries(seed)
    components = np.ascontiguousarray(rows.T)
    norm = np.linalg.norm(rows, axis=-1)
    x, y, z = components
    assert np.linalg.norm(components, axis=0).tobytes() == norm.tobytes()
    assert np.sqrt(x * x + y * y + z * z).tobytes() == norm.tobytes()
    assert component_norm(components).tobytes() == norm.tobytes()
    assert np.linalg.norm(-components, axis=0).tobytes() == norm.tobytes()
    assert np.linalg.norm(-rows, axis=-1).tobytes() == norm.tobytes()
    live = norm > 0
    unit = components[:, live] / norm[live]
    assert ((-components[:, live]) / norm[live]).tobytes() == (-unit).tobytes()
    assert (unit.T.copy()).tobytes() == (rows[live] / norm[live, None]).tobytes()


@pytest.mark.parametrize("seed", [1, 8])
def test_repeated_frames_rotate_as_gathered_frames(seed):
    """The numpy behaviour behind rotating a leg's terms by their receiver
    frames (`channel._path_terms`): each frame entry repeated over its
    realization's terms by `np.repeat` equals that entry of `frames[index]`,
    and `geometry.rotate` of (3, P) components with `repeats` equals the
    three products per component summed on (P, 3) rows with the gathered
    frames, and `rotate` of those rows."""
    rng = np.random.default_rng(seed)
    frames = azimuth_rotation_frame(rng.uniform(0, 2 * np.pi, 7))
    frames[2] = rng.standard_normal((3, 3))   # any matrix, not only a level rotation
    reps = rng.integers(0, 40, len(frames))
    index = np.repeat(np.arange(len(frames)), reps)
    gathered = frames[index]
    assert np.repeat(frames, reps, axis=0).tobytes() == gathered.tobytes()
    for k in range(3):
        for j in range(3):
            assert np.repeat(frames[:, k, j], reps).tobytes() == gathered[:, k, j].tobytes()
    rows = rows_with_edge_entries(seed)[:len(index)]
    components = np.ascontiguousarray(rows.T)
    by_component = rotate(components.T, frames, reps).T
    by_row = np.stack([rows[:, 0] * gathered[:, k, 0] + rows[:, 1] * gathered[:, k, 1]
                       + rows[:, 2] * gathered[:, k, 2] for k in range(3)], axis=-1)
    assert by_component.T.copy().tobytes() == by_row.tobytes()
    assert rotate(rows, gathered).tobytes() == by_row.tobytes()
    assert rotate(components.T, frames[3]).copy().tobytes() == rotate(rows, frames[3]).tobytes()


def test_each_far_points_length_equals_each_paths():
    """The numpy behaviour behind taking each path's link length from its far
    point's (`channel._place_links`): the per-point row norm repeated per
    path is the norm of the gathered rows, by row or by component, bit for bit."""
    rng = np.random.default_rng(4)
    near = np.array([40.0, 50.0, 2.0])
    far = rng.uniform(-80, 80, (24, 3)) + [0.0, 0.0, 81.0]
    per_point = rng.integers(0, 90, 24)
    at = np.repeat(np.arange(24), per_point)
    each = np.repeat(np.linalg.norm(far - near, axis=-1), per_point)
    assert each.tobytes() == np.linalg.norm(far[at] - near, axis=-1).tobytes()
    assert each.tobytes() == np.linalg.norm(far.T[:, at] - near[:, None], axis=0).tobytes()
