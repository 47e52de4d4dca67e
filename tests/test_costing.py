import itertools

import numpy as np
import pytest

from c2bnvae.costing import CostReport, count_layer, count_params_flops
from c2bnvae.errors import ShapeError
from c2bnvae.model import C2BNVAE, ModelConfig
from c2bnvae.nn import CondBatchNorm1d, Linear


def cost(convention="published", **settings) -> CostReport:
    return count_params_flops(C2BNVAE(ModelConfig(**settings)), convention)


def test_single_linear_one_to_one():
    assert count_layer(Linear(1, 1, np.random.default_rng(0))) == (2, 1)


def test_norm_layer_conventions():
    assert count_layer(CondBatchNorm1d(5, 60), "published") == (120, 240)
    assert count_layer(CondBatchNorm1d(5, 60), "trainable") == (600, 240)


def test_unknown_convention_rejected():
    with pytest.raises(ShapeError):
        count_layer(Linear(1, 1, np.random.default_rng(0)), "made-up")


DEFAULT = {"feature_dim": 123, "num_classes": 5}


def test_encoder_matches_published_counts():
    assert cost(**DEFAULT).components["encoder"] == (22744, 22560)


def test_decoder_matches_published_counts():
    assert cost(**DEFAULT).components["decoder"] == (20883, 20640)


def test_totals_are_component_sums():
    report = cost(**DEFAULT)
    assert report.total == (22744 + 20883, 22560 + 20640)
    assert report.total == (43627, 43200)


def test_trainable_convention_counts_full_banks():
    report = cost("trainable", **DEFAULT)
    # each conditional layer holds 5 affine pairs instead of 1: +480 per component
    assert report.components["encoder"] == (22744 + 480, 22560)
    assert report.components["decoder"] == (20883 + 480, 20640)


def test_unpadded_width_gives_different_documented_counts():
    report = cost(feature_dim=122, num_classes=5)
    # encoder first layer loses one input column (60 weights), decoder output
    # loses one unit (60 weights + 1 bias)
    assert report.components["encoder"] == (22744 - 60, 22560 - 60)
    assert report.components["decoder"] == (20883 - 61, 20640 - 60)


def test_toy_latent_two_model_hand_count():
    report = cost(feature_dim=6, num_classes=2, latent_dim=2, hidden_widths=(4,))
    # encoder: 8->4 linear (36, 32), norm width 4 (8, 16), twin 4->2 heads (2*10, 2*8)
    assert report.components["encoder"] == (36 + 8 + 20, 32 + 16 + 16)
    # decoder: 4->4 linear (20, 16), norm (8, 16), out 4->6 (30, 24)
    assert report.components["decoder"] == (20 + 8 + 30, 16 + 16 + 24)


def test_decoder_only_placement_drops_the_encoder_norm():
    full = cost(**DEFAULT)
    report = cost(cbn_placement="decoder_only", **DEFAULT)
    assert report.components["encoder"] == (22744 - 120, 22560 - 240)
    assert report.components["decoder"] == full.components["decoder"]


@pytest.mark.parametrize("settings", [
    dict(zip(("feature_dim", "latent_dim", "hidden_widths", "cbn_placement", "use_cbn"),
             values))
    for values in itertools.product((6, 123), (2, 32), ((4,), (8, 3), (60,) * 4),
                                    ("decoder_only", "encoder_and_decoder"), (True, False))])
def test_trainable_total_is_the_parameter_vector(settings):
    # the table reads the layers the model builds, so nothing is counted twice
    # or left out, whatever the layout
    model = C2BNVAE(ModelConfig(num_classes=5, **settings))
    assert count_params_flops(model, "trainable").total[0] == model.params.size


def test_report_is_frozen_dataclass():
    report = cost(**DEFAULT)
    assert isinstance(report, CostReport)
    with pytest.raises(AttributeError):
        report.total = (0, 0)
