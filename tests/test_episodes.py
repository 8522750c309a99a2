"""Episode generator and the WARM-EP1 container format."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import (
    GeneratorConfig,
    derive_rng,
    episodes,
    gen_episode,
    load_episode,
    save_episode,
    split_fg_bg,
)
from warmproto.episodes import EpisodeBatch, EpisodeHeader, PointCloud, class_center, read_header
from warmproto.errors import ArgumentError, ConfigError, EmptyClassError, FormatError
from warmproto.metrics import dispersion_metrics, fg_summaries

SMALL = GeneratorConfig(feature_dim=8, points_per_cloud=128, min_fg_points=16)
TWO_WAY = GeneratorConfig(feature_dim=8, points_per_cloud=128, min_fg_points=16, n_way=2, k_shot=2)


class TestGeneratorConfig:
    def test_default_valid(self):
        GeneratorConfig()

    def test_rejects_overlapping_splits(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(base_classes=(0, 1, 2), novel_classes=(2, 3, 4))

    def test_rejects_negative_scale(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(instance_spread=-1.0)

    def test_rejects_full_correlation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(channel_corr_strength=1.0)

    def test_rejects_too_few_classes_for_distractors(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_way=2, base_classes=(0, 1), novel_classes=(2, 3))
        # three ids but two distinct ones: no class would be left for the background
        with pytest.raises(ConfigError, match="novel_classes must hold distinct class ids"):
            GeneratorConfig(n_way=2, novel_classes=(8, 8, 9))

    def test_rejects_tiny_clouds(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(points_per_cloud=64)


class TestGenEpisode:
    def test_shape_contract(self):
        cfg = SMALL
        ep = gen_episode(cfg, derive_rng(0))
        assert ep.n_way == 1 and ep.k_shot == 1
        assert len(ep.support) == 1 and len(ep.query) == 1
        assert ep.support[0].features.shape == (128, 8)
        assert np.any(ep.support[0].labels == 1)
        assert np.any(ep.query[0].labels == 1)
        assert ep.class_ids[0] in cfg.base_classes

    def test_degenerate_scales_collapse_points(self):
        cfg = GeneratorConfig(
            feature_dim=8, points_per_cloud=128, min_fg_points=16,
            intra_class_scale=0.0, instance_spread=0.0,
        )
        ep = gen_episode(cfg, derive_rng(3))
        fg_s, _ = split_fg_bg(ep.support[0], 1)
        fg_q, _ = split_fg_bg(ep.query[0], 1)
        center = class_center(cfg, ep.class_ids[0])
        np.testing.assert_allclose(fg_s, np.broadcast_to(center, fg_s.shape), atol=1e-12)
        np.testing.assert_allclose(fg_q, np.broadcast_to(center, fg_q.shape), atol=1e-12)

    def test_cached_centers_give_uncached_bytes(self, tmp_path, monkeypatch):
        def uncached(cfg, class_id):
            g = derive_rng(cfg.seed, episodes._CENTER_STREAM, class_id)
            return cfg.inter_class_scale * g.standard_normal(cfg.feature_dim)

        # each config differs from the previous in one key field, so a
        # key without that field would hand back the previous centers
        configs = [
            TWO_WAY,
            replace(TWO_WAY, seed=5),
            replace(TWO_WAY, seed=5, inter_class_scale=3.0),
            replace(TWO_WAY, seed=5, inter_class_scale=3.0, feature_dim=16),
            GeneratorConfig(),
        ]
        for cfg in configs:
            for split in ("base", "novel"):
                save_episode(gen_episode(cfg, derive_rng(21), split), tmp_path / "cached.warmep")
                with monkeypatch.context() as patch:
                    patch.setattr(episodes, "class_center", uncached)
                    save_episode(gen_episode(cfg, derive_rng(21), split), tmp_path / "uncached.warmep")
                assert (tmp_path / "cached.warmep").read_bytes() == (tmp_path / "uncached.warmep").read_bytes()

    def test_cached_center_is_read_only(self):
        center = class_center(TWO_WAY, 3)
        assert not center.flags.writeable
        assert class_center(TWO_WAY, np.int64(3)) is center
        with pytest.raises(ValueError):
            center[0] = 0.0
        np.testing.assert_array_equal(class_center(TWO_WAY, 3), center)

    def test_deterministic(self):
        ep1 = gen_episode(SMALL, derive_rng(11))
        ep2 = gen_episode(SMALL, derive_rng(11))
        assert ep1.class_ids == ep2.class_ids
        for a, b in zip(ep1.support + ep1.query, ep2.support + ep2.query):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_novel_split(self):
        cfg = SMALL
        ep = gen_episode(cfg, derive_rng(5), split="novel")
        assert ep.class_ids[0] in cfg.novel_classes

    def test_rejects_unknown_split(self):
        with pytest.raises(ArgumentError):
            gen_episode(SMALL, derive_rng(0), split="test")

    def test_two_way_five_shot(self):
        cfg = GeneratorConfig(
            feature_dim=8, points_per_cloud=256, n_way=2, k_shot=5, num_query=2, min_fg_points=16
        )
        ep = gen_episode(cfg, derive_rng(7))
        assert len(ep.support) == 10 and len(ep.query) == 2
        assert len(set(ep.class_ids)) == 2
        for way in range(2):
            for shot in range(5):
                cloud = ep.support_cloud(way, shot)
                assert np.sum(cloud.labels == way + 1) >= 16
                assert not np.any(cloud.labels == 2 - way)  # the other way never leaks in
        for q in ep.query:
            assert {0, 1, 2} <= set(q.labels.tolist())

    def test_min_fg_guarantee_over_many_seeds(self):
        # training trusts a base-split episode to draw only base classes; tight
        # leaves the background 4-8 points over 6 distractors, so some draw none
        tight = GeneratorConfig(feature_dim=4, points_per_cloud=12, min_fg_points=2, n_way=2, bg_components=6)
        for cfg in (SMALL, TWO_WAY, tight):
            for seed in range(1000):
                ep = gen_episode(cfg, derive_rng(seed), split="base")
                assert set(ep.class_ids) <= set(cfg.base_classes)
                for way in range(cfg.n_way):
                    for shot in range(cfg.k_shot):
                        fg, _ = split_fg_bg(ep.support_cloud(way, shot), way + 1)
                        assert fg.shape[0] >= cfg.min_fg_points
                # the background floor: every cloud keeps min_fg_points background points
                for cloud in ep.support + ep.query:
                    assert np.count_nonzero(cloud.labels == 0) >= cfg.min_fg_points

    def test_dispersion_ordering_at_documented_scales(self):
        # inter=10, intra=3, spread=2, corr=0.8 over 100 episodes
        cfg = GeneratorConfig(
            inter_class_scale=10.0, intra_class_scale=3.0, instance_spread=2.0,
            channel_corr_strength=0.8,
        )
        summaries = []
        for i in range(100):
            ep = gen_episode(cfg, derive_rng(i))
            summaries.extend(fg_summaries(ep.pooled_support_by_class(), ep.class_ids))
        rep = dispersion_metrics(summaries)
        assert rep["d_inter"] is not None and rep["d_intra"] is not None
        assert rep["d_inter"] > rep["d_intra"] > 0
        assert rep["d_instance"] > 0

    def test_dispersion_calibration_at_defaults(self):
        # token spread for a fresh init is ~std*sqrt(2D); instances must dwarf it
        cfg = GeneratorConfig()
        summaries = []
        for i in range(100):
            ep = gen_episode(cfg, derive_rng(i))
            summaries.extend(fg_summaries(ep.pooled_support_by_class(), ep.class_ids))
        rep = dispersion_metrics(summaries)
        assert rep["d_inter"] > rep["d_intra"] > 0
        token_dispersion = 0.02 * np.sqrt(2 * cfg.feature_dim)
        assert rep["d_instance"] > 10 * token_dispersion


class TestSplitFgBg:
    def test_hand_case(self):
        cloud = PointCloud(np.arange(6).reshape(3, 2).astype(float), [1, 0, 1])
        fg, bg = split_fg_bg(cloud, 1)
        np.testing.assert_array_equal(fg, [[0, 1], [4, 5]])
        np.testing.assert_array_equal(bg, [[2, 3]])

    def test_all_foreground(self):
        cloud = PointCloud(np.ones((3, 2)), [1, 1, 1])
        fg, bg = split_fg_bg(cloud, 1)
        assert fg.shape == (3, 2) and bg.shape == (0, 2)

    def test_empty_class_raises(self):
        cloud = PointCloud(np.ones((3, 2)), [0, 0, 0])
        with pytest.raises(EmptyClassError):
            split_fg_bg(cloud, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30))
    def test_partition_property(self, seed, n):
        rng = derive_rng(seed)
        feats = rng.standard_normal((n, 3))
        labels = rng.integers(0, 2, n)
        labels[rng.integers(n)] = 1
        cloud = PointCloud(feats, labels)
        fg, bg = split_fg_bg(cloud, 1)
        assert fg.shape[0] + bg.shape[0] == n
        assert not np.shares_memory(fg, cloud.features) and not np.shares_memory(bg, cloud.features)
        merged = sorted(map(tuple, np.vstack([fg, bg])))
        assert merged == sorted(map(tuple, feats))


class TestEpisodeFile:
    def test_round_trip_bit_identical(self, tmp_path):
        ep = gen_episode(SMALL, derive_rng(21))
        path = tmp_path / "ep.warmep"
        save_episode(ep, path)
        loaded = load_episode(path)
        assert loaded.n_way == ep.n_way and loaded.k_shot == ep.k_shot
        assert loaded.class_ids == ep.class_ids
        for a, b in zip(loaded.support + loaded.query, ep.support + ep.query):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_save_deterministic_bytes(self, tmp_path):
        ep = gen_episode(SMALL, derive_rng(22))
        p1, p2 = tmp_path / "a.warmep", tmp_path / "b.warmep"
        save_episode(ep, p1)
        save_episode(ep, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        ep = gen_episode(SMALL, derive_rng(23))
        path = tmp_path / "ep.warmep"
        save_episode(ep, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_episode(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "ep.warmep"
        path.write_bytes(b"WARM-EP1\x01")
        with pytest.raises(FormatError) as err:
            load_episode(path)
        assert "truncated header" in str(err.value)

    def test_bad_magic(self, tmp_path):
        ep = gen_episode(SMALL, derive_rng(24))
        path = tmp_path / "ep.warmep"
        save_episode(ep, path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as err:
            load_episode(path)
        assert err.value.offset == 0

    def test_dimension_mismatch_names_both_values(self, tmp_path):
        ep = gen_episode(SMALL, derive_rng(25))
        path = tmp_path / "ep.warmep"
        save_episode(ep, path)
        data = bytearray(path.read_bytes())
        # corrupt D in the header (offset 26) to 9
        data[26:30] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as err:
            load_episode(path)
        msg = str(err.value)
        assert "D=9" in msg and str(len(data)) in msg

    def test_no_partial_episode_on_error(self, tmp_path):
        path = tmp_path / "missing_then_bad.warmep"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_episode(path)

    def test_duplicate_class_ids_is_format_error(self, tmp_path):
        ep = gen_episode(TWO_WAY, derive_rng(26))
        path = tmp_path / "ep.warmep"
        ep.class_ids = [ep.class_ids[0]] * 2  # bypasses Episode's own check
        save_episode(ep, path)
        with pytest.raises(FormatError) as err:
            load_episode(path)
        assert "distinct" in str(err.value)
        assert err.value.offset == 30  # class ids follow the 30-byte header

    def test_support_without_foreground_is_format_error(self, tmp_path):
        ep = gen_episode(TWO_WAY, derive_rng(27))
        ep.support[3].labels[:] = 0  # way 1, shot 1
        path = tmp_path / "ep.warmep"
        save_episode(ep, path)
        with pytest.raises(FormatError) as err:
            load_episode(path)
        assert "support cloud 3 (way=1, shot=1) has no foreground" in str(err.value)
        l, d = TWO_WAY.points_per_cloud, TWO_WAY.feature_dim
        assert err.value.offset == 30 + 4 * 2 + 3 * (8 * l * d + 4 * l) + 8 * l * d

    def test_header_is_read_without_the_body(self, tmp_path):
        ep = gen_episode(TWO_WAY, derive_rng(30))
        ep.query[0].features[5, 2] = np.inf  # bypasses PointCloud's own check
        path = tmp_path / "ep.warmep"
        save_episode(ep, path)
        assert read_header(path) == EpisodeHeader(n_way=2, k_shot=2, num_query=1, points=128, feature_dim=8)
        with pytest.raises(FormatError) as err:
            load_episode(path)
        assert "non-finite feature value in cloud 4" in str(err.value)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ep.warmep"
        save_episode(gen_episode(SMALL, derive_rng(28)), path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            save_episode(gen_episode(SMALL, derive_rng(29)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ep.warmep"]


FUZZ_CFG = GeneratorConfig(feature_dim=3, points_per_cloud=16, min_fg_points=2, n_way=2)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """A small valid 2-way container: (path to overwrite, its bytes)."""
    path = tmp_path_factory.mktemp("fuzz") / "ep.warmep"
    save_episode(gen_episode(FUZZ_CFG, derive_rng(40)), path)
    return path, path.read_bytes()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` cut short, or with a few bytes XOR-flipped."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    buf = bytearray(data)
    for pos, mask in draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)), min_size=1, max_size=8)):
        buf[pos] ^= mask
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_container_is_format_error_or_valid_episode(fuzz_file, data):
    path, valid = fuzz_file
    path.write_bytes(data.draw(mutated(valid)))
    try:
        episode = load_episode(path)
    except FormatError:
        return
    # Episode validates itself on construction; check the shapes it holds too
    assert len(episode.support) == episode.n_way * episode.k_shot
    assert all(c.feature_dim == episode.support[0].feature_dim for c in episode.support + episode.query)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_header_checks_are_load_episodes(fuzz_file, data):
    # read_header fails with load_episode's error, or passes a file whose body load_episode parses
    path, valid = fuzz_file
    path.write_bytes(data.draw(mutated(valid)))
    try:
        header = read_header(path)
    except FormatError as err:
        with pytest.raises(FormatError) as loaded:
            load_episode(path)
        assert str(loaded.value) == str(err) and loaded.value.offset == err.offset
        return
    try:
        episode = load_episode(path)
    except FormatError as err:
        assert err.offset >= 30  # a body defect
        return
    assert header == (episode.n_way, episode.k_shot, len(episode.query), *episode.support[0].features.shape)


class TestEpisodeBatch:
    def test_items_are_made_when_read(self):
        made = []

        def make(key):
            made.append(key)
            return gen_episode(SMALL, derive_rng(key))

        batch = EpisodeBatch(make, range(3, 7))
        assert len(batch) == 4 and made == []
        assert batch[1].class_ids == gen_episode(SMALL, derive_rng(4)).class_ids
        assert [e.class_ids for e in batch] == [gen_episode(SMALL, derive_rng(k)).class_ids for k in range(3, 7)]
        assert made == [4, 3, 4, 5, 6]  # nothing is kept
        with pytest.raises(IndexError):
            batch[4]
