import math

import pytest
from hypothesis import given, strategies as st

from flowtrack.cost_model import CostModel, Detection, iou, pairwise_features
from flowtrack.errors import DataError
from reference import detection_probability


def box_det(frame, box, score=1.0, idx=0, extras=()):
    return Detection(frame=frame, box=box, score=score, local_index=idx,
                     extras=extras)


class TestDetection:
    def test_rejects_nonpositive_box(self):
        with pytest.raises(DataError):
            box_det(0, (0, 0, 0, 10))
        with pytest.raises(DataError):
            box_det(0, (0, 0, 10, -1))

    def test_rejects_negative_frame_and_nonfinite(self):
        with pytest.raises(DataError):
            box_det(-1, (0, 0, 1, 1))
        with pytest.raises(DataError):
            box_det(0, (math.nan, 0, 1, 1))
        with pytest.raises(DataError):
            box_det(0, (0, 0, 1, 1), score=math.inf)

    def test_derived_properties(self):
        d = box_det(3, (10, 20, 30, 40))
        assert d.key == (3, 0)
        assert d.center == (25.0, 40.0)
        assert d.area == 1200.0
        assert d.diagonal == pytest.approx(50.0)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (100, 100, 10, 10)) == 0.0

    def test_half_shift(self):
        # intersection 5*10 = 50, union 100 + 100 - 50 = 150
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    @given(st.tuples(*[st.floats(-50, 50) for _ in range(2)]),
           st.floats(1, 30), st.floats(1, 30))
    def test_symmetric_and_bounded(self, xy, w, h):
        a = (xy[0], xy[1], w, h)
        b = (xy[1], xy[0], h, w)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


class TestPairwiseFeatures:
    def test_identical_boxes(self):
        a = box_det(0, (5, 5, 20, 10))
        b = box_det(1, (5, 5, 20, 10))
        assert pairwise_features(a, b) == (1.0, 1.0, 1.0)

    def test_far_apart_equal_size(self):
        a = box_det(0, (0, 0, 10, 10))
        b = box_det(1, (5000, 5000, 10, 10))
        ov, loc, size = pairwise_features(a, b)
        assert ov == 0.0
        assert loc == pytest.approx(0.0, abs=1e-9)
        assert size == 1.0

    def test_all_components_in_unit_interval(self):
        a = box_det(0, (0, 0, 3, 3))
        b = box_det(1, (1, 1, 50, 2))
        assert all(0.0 <= v <= 1.0 for v in pairwise_features(a, b))


class TestDetectionCost:
    def test_logistic_midpoint(self):
        model = CostModel(beta=1.0, det_offset=-1.0, det_weight=2.0)
        assert model.detection_cost(0.0) == pytest.approx(0.0)

    def test_saturation_at_high_score(self):
        model = CostModel(beta=1.0, det_offset=-1.0, det_weight=2.0)
        assert model.detection_cost(60.0) == pytest.approx(-1.0)

    def test_hand_value(self):
        model = CostModel(beta=2.0, det_offset=-1.0, det_weight=2.0)
        expected = -1.0 + 2.0 / (1.0 + math.exp(2.0))
        assert model.detection_cost(1.0) == pytest.approx(expected, abs=1e-9)
        assert model.detection_cost(1.0) == pytest.approx(-0.76159, abs=1e-5)

    @given(st.floats(-20, 20), st.floats(-20, 20))
    def test_monotone_decreasing_in_score(self, s1, s2):
        model = CostModel(beta=1.0, det_weight=2.0)
        lo, hi = sorted((s1, s2))
        assert model.detection_cost(lo) >= model.detection_cost(hi)

    def test_logodds_form_sign(self):
        model = CostModel(det_cost_form="logodds")
        assert model.detection_cost(3.0) < 0.0
        assert model.detection_cost(-3.0) > 0.0
        assert model.detection_cost(0.0) == pytest.approx(0.0)

    def test_probability(self):
        model = CostModel(beta=1.0)
        assert detection_probability(model, 0.0) == pytest.approx(0.5)
        assert detection_probability(model, 4.0) > 0.9

    def test_extreme_scores_take_the_limit(self):
        for beta in (1.0, 3.0):
            model = CostModel(beta=beta)
            assert detection_probability(model, 1000.0) == 1.0
            assert detection_probability(model, -1000.0) == 0.0
            assert model.detection_cost(1000.0) == model.det_offset
            assert model.detection_cost(-1000.0) == (model.det_offset
                                                     + model.det_weight)
        logodds = CostModel(det_cost_form="logodds")
        assert logodds.detection_cost(1000.0) == logodds.detection_cost(60.0)
        assert logodds.detection_cost(-1000.0) == logodds.detection_cost(-60.0)

    @given(st.floats(-700, 700))
    def test_formula_unchanged_where_exp_is_finite(self, score):
        for form in ("affine", "logodds"):
            model = CostModel(det_cost_form=form)
            logistic = 1.0 / (1.0 + math.exp(score))
            if form == "affine":
                expected = model.det_offset + model.det_weight * logistic
            else:
                p = min(max(1.0 - logistic, 1e-12), 1.0 - 1e-12)
                expected = math.log((1.0 - p) / p)
            assert model.detection_cost(score) == expected
        assert detection_probability(CostModel(), score) == \
            1.0 / (1.0 + math.exp(-score))


class TestNodeCosts:
    @given(st.lists(st.one_of(st.floats(-800, 800), st.integers(-5, 5),
                              st.sampled_from([0.0, -0.0, 1e308, -1e308])),
                    max_size=8),
           st.sampled_from([1.0, 0.5, 3, -2.0, 1e300]),
           st.sampled_from(["affine", "logodds"]))
    def test_rows_are_the_per_detection_costs(self, scores, beta, form):
        """node_costs_of gives entry_cost_of, detection_cost_of and
        exit_cost_of bit for bit, past exp's overflow too (in the integer,
        huge and mixed scores)."""
        model = CostModel(beta=beta, det_cost_form=form, det_offset=-0.3,
                          det_weight=1.7, entry_cost=2.5, exit_cost=-0.0)
        dets = [box_det(0, (0.0, 0.0, 1.0, 1.0), s, i)
                for i, s in enumerate(scores)]
        rows = model.node_costs_of(dets)
        assert rows.shape == (len(dets), 3)
        assert [[c.hex() for c in row] for row in rows.tolist()] == [
            [c.hex() for c in (model.entry_cost_of(d),
                               model.detection_cost_of(d),
                               model.exit_cost_of(d))] for d in dets]


class TestLinkCost:
    def test_perfect_match_zero_offset(self):
        model = CostModel(feature_offsets=(0.0,) * 3,
                          feature_weights=(2.0, 1.0, 1.0))
        assert model.link_cost((1.0, 1.0, 1.0)) == 0.0

    def test_all_zero_features_unit_weights(self):
        model = CostModel(feature_offsets=(0.0,) * 3,
                          feature_weights=(1.0, 1.0, 1.0))
        assert model.link_cost((0.0, 0.0, 0.0)) == 3.0

    def test_hand_dot_product(self):
        model = CostModel(feature_offsets=(-0.4, -0.4, -0.4),
                          feature_weights=(2.0, 1.0, 1.0))
        # (0.5-0.4)*2 + (0.2-0.4)*1 + (0.0-0.4)*1 = -0.4
        assert model.link_cost((0.5, 0.8, 1.0)) == pytest.approx(-0.4)

    def test_dimension_mismatch(self):
        model = CostModel()
        with pytest.raises(DataError):
            model.link_cost((0.5, 0.5))

    def test_terms_add_left_to_right(self):
        # 0.0 + 1e16 + 1.0 rounds back to 1e16 and the last term cancels it;
        # the builtin sum compensates that rounding from Python 3.12 on.
        model = CostModel(feature_offsets=(0, 0, -2),
                          feature_weights=(1e16, 1, 1e16))
        assert model.link_cost((0, 0, 0)) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_nonincreasing_per_feature(self, f1, f2):
        model = CostModel()  # all weights non-negative
        lo, hi = sorted((f1, f2))
        base = (0.5, 0.5, 0.5)
        for i in range(3):
            a = base[:i] + (lo,) + base[i + 1:]
            b = base[:i] + (hi,) + base[i + 1:]
            assert model.link_cost(a) >= model.link_cost(b)


class TestModelValidation:
    def test_mismatched_vectors(self):
        with pytest.raises(DataError):
            CostModel(feature_offsets=(0.0, 0.0), feature_weights=(1.0,))

    def test_too_few_features(self):
        with pytest.raises(DataError):
            CostModel(feature_offsets=(0.0,), feature_weights=(1.0,))

    def test_nonfinite_parameter(self):
        with pytest.raises(DataError):
            CostModel(beta=math.inf)

    def test_unknown_det_cost_form(self):
        with pytest.raises(DataError):
            CostModel(det_cost_form="quadratic")


class TestExtraFeatures:
    def test_extra_columns_extend_link_features(self):
        model = CostModel(feature_offsets=(-0.4,) * 4,
                          feature_weights=(2.0, 1.0, 1.0, 1.0))
        a = box_det(0, (0, 0, 10, 10))
        b = box_det(1, (0, 0, 10, 10), extras=(0.9,))
        base3 = CostModel().link_cost_of(a, b)  # offsets differ, compare raw
        got = model.link_cost_of(a, b)
        # fourth component contributes ((1 - 0.9) - 0.4) * 1 = -0.3
        expected = model.link_cost((1.0, 1.0, 1.0, 0.9))
        assert got == pytest.approx(expected)
        assert base3 == pytest.approx(CostModel().link_cost((1.0, 1.0, 1.0)))

    def test_missing_extra_column_rejected(self):
        model = CostModel(feature_offsets=(-0.4,) * 4,
                          feature_weights=(2.0, 1.0, 1.0, 1.0))
        a = box_det(0, (0, 0, 10, 10))
        b = box_det(1, (0, 0, 10, 10))
        with pytest.raises(DataError):
            model.link_cost_of(a, b)
