"""Parameter and per-sample FLOP accounting, read from the layers a model
builds.

Counting convention (documented because published figures only pin down one
consistent reading):

* linear layer in->out: params = in*out + out, flops = in*out
  (one multiply-accumulate counts as 1 FLOP; bias adds and activations are
  free)
* normalization layer of width w: flops = 4*w (subtract mean, divide by the
  standard deviation, scale, shift); params depend on the convention:
  - "published":     2*w, one affine pair per layer regardless of how many
                 class-conditional banks exist
  - "trainable": 2*w*num_classes, every learnable entry of a conditional
                 layer's banks

Under "published" the default architecture reproduces the reported encoder /
decoder / total figures exactly: (22744, 22560), (20883, 20640),
(43627, 43200). Under "trainable" the total is the size of the model's
parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .model import C2BNVAE
from .nn import CondBatchNorm1d, Linear

CONVENTIONS = ("published", "trainable")

# the component each layer-name prefix of ``C2BNVAE.named_layers`` belongs to
COMPONENTS = {"enc": "encoder", "dec": "decoder"}


@dataclass(frozen=True)
class CostReport:
    components: dict[str, tuple[int, int]]
    total: tuple[int, int]


def count_layer(layer: Linear | CondBatchNorm1d,
                convention: str = "published") -> tuple[int, int]:
    if convention not in CONVENTIONS:
        raise ShapeError(f"unknown counting convention {convention!r}")
    if isinstance(layer, Linear):
        return layer.in_dim * layer.out_dim + layer.out_dim, layer.in_dim * layer.out_dim
    pairs = 1 if convention == "published" else layer.num_classes
    return 2 * layer.width * pairs, 4 * layer.width


def count_params_flops(model: C2BNVAE, convention: str = "published") -> CostReport:
    """Per-component and summed (params, flops) of a built model:
    its ``enc.*`` layers are the encoder, its ``dec.*`` layers the decoder."""
    components = {name: (0, 0) for name in COMPONENTS.values()}
    for name, layer in model.named_layers():
        component = COMPONENTS[name.split(".", 1)[0]]
        p, f = components[component]
        lp, lf = count_layer(layer, convention)
        components[component] = (p + lp, f + lf)
    total = (sum(p for p, _ in components.values()),
             sum(f for _, f in components.values()))
    return CostReport(components=components, total=total)
