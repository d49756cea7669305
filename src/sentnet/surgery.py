"""Checkpoint-preserving architecture edits.

Each of the paper's seven architectures is the base network through one
layer (keep), then at most one fresh FC head (head), then the softmax.
The head has HEAD_UNITS outputs, no ReLU and lr_mult NEW_LAYER_LR_MULT;
when it reuses the name of a base layer, such as finetune's fc8, it
replaces that layer. Apply is pure: it returns a new (spec, checkpoint)
and never touches the inputs. Kept layers keep the base's own tensors,
so they survive byte-identical.

The architectures are one table of frozen plans, PRESETS, each labelled
with its key; preset_plan looks a name up there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checkpoint import Checkpoint
from .errors import SurgeryError
from .network import LayerKind, LayerSpec, NetworkSpec, init_layer_params, parameter_shapes

HEAD_UNITS = 2
NEW_LAYER_LR_MULT = 10.0


@dataclass(frozen=True)
class SurgeryPlan:
    """The base layer kept last, the fresh head above it (if any), and the
    report table the preset belongs to (family).

    swap_binary_labels trains a wide retained head on binary data: positive
    as class index 0, negative as 1, the other outputs unused.
    """

    label: str
    keep: str
    head: str | None = None
    default_base_lr: float | None = None
    family: str = "other"
    swap_binary_labels: bool = False


# In report row order: harness.PRESET_ORDER is this table's key order.
PRESETS: dict[str, SurgeryPlan] = {
    "finetune": SurgeryPlan("finetune", "fc7", "fc8", family="finetune"),
    "fc7-4096": SurgeryPlan("fc7-4096", "fc7", family="ablation"),
    "fc6-4096": SurgeryPlan("fc6-4096", "fc6", family="ablation"),
    "fc7-2": SurgeryPlan("fc7-2", "fc6", "fc7", family="ablation"),
    # The 2-unit head directly off the first FC needs a gentler rate to stay stable.
    "fc6-2": SurgeryPlan("fc6-2", "pool5", "fc6", default_base_lr=0.0001, family="ablation"),
    "fc8-1000": SurgeryPlan("fc8-1000", "fc8", family="addition", swap_binary_labels=True),
    "fc9-2": SurgeryPlan("fc9-2", "fc8", "fc9", family="addition"),
}


def preset_plan(name: str) -> SurgeryPlan:
    if name not in PRESETS:
        raise SurgeryError(f"unknown surgery preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name]


def plan_spec(plan: SurgeryPlan, spec: NetworkSpec) -> NetworkSpec:
    """The spec a plan would produce, without touching any tensors."""
    top = spec.layers.index(spec.layer(plan.keep))
    layers = list(spec.layers[: top + 1])
    if plan.head is not None:
        layers.append(LayerSpec(plan.head, LayerKind.FC, units=HEAD_UNITS, relu=False, lr_mult=NEW_LAYER_LR_MULT))
    layers += [l for l in spec.layers if l.kind == LayerKind.SOFTMAX]
    return NetworkSpec(input_shape=spec.input_shape, layers=tuple(layers))


def apply(plan: SurgeryPlan, spec: NetworkSpec, ckpt: Checkpoint, seed: int = 0) -> tuple[NetworkSpec, Checkpoint]:
    """Apply a plan, returning (new spec, new checkpoint): the kept layers
    hold the base's own arrays, the head init_layer_params(new spec, head, seed)."""
    ckpt.validate_against(parameter_shapes(spec))
    new_spec = plan_spec(plan, spec)
    entries = {
        l.name: init_layer_params(new_spec, l.name, seed) if l.name == plan.head else ckpt.entries[l.name]
        for l in new_spec.parameterized
    }
    # Below the head the stack is the base's, so each kept layer has the shapes just validated.
    metadata = {**ckpt.metadata, "spec": new_spec.fingerprint(), "surgery": plan.label}
    return new_spec, Checkpoint(entries=entries, metadata=metadata)
