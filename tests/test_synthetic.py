import pytest

from flowtrack.errors import DataError
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from reference import detections_to_gt_map


class TestDeterminism:
    def test_same_seed_identical_output(self):
        cfg = SyntheticConfig(n_frames=20, miss_rate=0.2, fp_rate=0.2,
                              spawn_prob=0.1, death_prob=0.05)
        d1, g1 = generate_synthetic(cfg, 42)
        d2, g2 = generate_synthetic(cfg, 42)
        assert d1 == d2
        assert g1.frames == g2.frames

    def test_different_seeds_differ(self):
        cfg = SyntheticConfig(n_frames=20)
        d1, _ = generate_synthetic(cfg, 1)
        d2, _ = generate_synthetic(cfg, 2)
        assert d1 != d2


class TestNoiseFreeBijection:
    def test_detections_biject_with_gt(self):
        cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, miss_rate=0.0,
                              fp_rate=0.0, spawn_prob=0.1, death_prob=0.05,
                              observation_noise=0.0)
        dets, gt = generate_synthetic(cfg, 9)
        for f, frame_dets in dets.items():
            gt_objs = gt.frames.get(f, [])
            assert len(frame_dets) == len(gt_objs)
            gt_boxes = sorted(tuple(b) for _, b in gt_objs)
            det_boxes = sorted(d.box for d in frame_dets)
            assert det_boxes == gt_boxes

    def test_gt_mapping_covers_everything_when_clean(self):
        cfg = SyntheticConfig(n_frames=15, miss_rate=0.0, fp_rate=0.0,
                              observation_noise=0.0)
        dets, gt = generate_synthetic(cfg, 4)
        mapping = detections_to_gt_map(dets, gt)
        assert all(v is not None for v in mapping.values())


class TestFalsePositiveRate:
    def test_fp_fraction_statistical(self):
        cfg = SyntheticConfig(n_frames=150, n_initial_tracks=6, fp_rate=0.5,
                              miss_rate=0.0, spawn_prob=0.0, death_prob=0.0)
        dets, gt = generate_synthetic(cfg, 13)
        mapping = detections_to_gt_map(dets, gt)
        total = len(mapping)
        fps = sum(1 for v in mapping.values() if v is None)
        assert total >= 1000
        assert fps / total == pytest.approx(0.5, abs=0.10)

    def test_fp_scores_lower_than_true_scores(self):
        cfg = SyntheticConfig(n_frames=60, n_initial_tracks=4, fp_rate=0.4)
        dets, gt = generate_synthetic(cfg, 8)
        mapping = detections_to_gt_map(dets, gt)
        true_scores, fp_scores = [], []
        for frame_dets in dets.values():
            for d in frame_dets:
                (true_scores if mapping[d.key] is not None
                 else fp_scores).append(d.score)
        assert sum(true_scores) / len(true_scores) > \
            sum(fp_scores) / len(fp_scores)


class TestValidation:
    def test_invalid_probabilities_rejected(self):
        with pytest.raises(DataError):
            SyntheticConfig(miss_rate=1.5)
        with pytest.raises(DataError):
            SyntheticConfig(fp_rate=1.0)
        with pytest.raises(DataError):
            SyntheticConfig(spawn_prob=-0.1)
        with pytest.raises(DataError):
            SyntheticConfig(n_frames=0)

    def test_crossing_mode_produces_frames(self):
        cfg = SyntheticConfig(n_frames=25, n_initial_tracks=4, crossing=True)
        dets, gt = generate_synthetic(cfg, 0)
        assert len(dets) == 25
        assert sum(len(v) for v in dets.values()) > 0
