"""Checkpoint-preserving architecture edits.

A surgery plan is a short list of stack edits applied above a trained
network: remove the top layer, replace it with a fresh head, or append a
new head. Apply is pure: it returns a new (spec, checkpoint, report) and
never touches the inputs. Retained layers keep their exact tensors, so
everything the plan does not name survives byte-identical.

The paper's seven architectures are one table of frozen plans, PRESETS,
each labelled with its key; preset_plan looks a name up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .checkpoint import Checkpoint
from .errors import SurgeryError
from .network import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    count_parameters,
    init_layer_params,
    parameter_shapes,
)


@dataclass(frozen=True)
class RemoveTop:
    """Drop the top layer below the softmax; layer_name, when set, must match."""

    layer_name: str | None = None


@dataclass(frozen=True)
class ReplaceTop:
    """Swap the top FC below the softmax for a fresh head of new_units."""

    new_units: int


@dataclass(frozen=True)
class Append:
    """Add a fresh FC head named layer_name on top, below the softmax."""

    layer_name: str
    new_units: int


Action = Union[RemoveTop, ReplaceTop, Append]


@dataclass(frozen=True)
class SurgeryPlan:
    """Ordered edits, the policy for freshly created layers, and the report table (family).

    swap_binary_labels trains a wide retained head on binary data: positive
    as class index 0, negative as 1, the other outputs unused.
    """

    actions: tuple[Action, ...]
    label: str = ""
    new_layer_lr_mult: float = 10.0
    default_base_lr: float | None = None
    family: str = "other"
    swap_binary_labels: bool = False


@dataclass(frozen=True)
class SurgeryReport:
    label: str
    removed: tuple[str, ...]
    retained: tuple[str, ...]
    new: tuple[str, ...]
    params_before: int
    params_after: int
    retained_bit_exact: bool


# In report row order: harness.PRESET_ORDER is this table's key order.
PRESETS: dict[str, SurgeryPlan] = {
    "finetune": SurgeryPlan((ReplaceTop(2),), label="finetune", family="finetune"),
    "fc7-4096": SurgeryPlan((RemoveTop(),), label="fc7-4096", family="ablation"),
    "fc6-4096": SurgeryPlan((RemoveTop(), RemoveTop()), label="fc6-4096", family="ablation"),
    "fc7-2": SurgeryPlan((RemoveTop(), ReplaceTop(2)), label="fc7-2", family="ablation"),
    # The 2-unit head directly off the first FC needs a gentler rate to stay stable.
    "fc6-2": SurgeryPlan(
        (RemoveTop(), RemoveTop(), ReplaceTop(2)), label="fc6-2", default_base_lr=0.0001, family="ablation"
    ),
    "fc8-1000": SurgeryPlan((), label="fc8-1000", family="addition", swap_binary_labels=True),
    "fc9-2": SurgeryPlan((Append("fc9", 2),), label="fc9-2", family="addition"),
}


def preset_plan(name: str) -> SurgeryPlan:
    if name not in PRESETS:
        raise SurgeryError(f"unknown surgery preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name]


def _transform(plan: SurgeryPlan, spec: NetworkSpec) -> tuple[NetworkSpec, list[str], list[str]]:
    stack = list(spec.layers)
    softmax = None
    if stack and stack[-1].kind == LayerKind.SOFTMAX:
        softmax = stack.pop()
    removed: list[str] = []
    fresh: list[str] = []

    for action in plan.actions:
        if not stack:
            raise SurgeryError("plan removes more layers than the spec has")
        if isinstance(action, RemoveTop):
            top = stack[-1]
            if action.layer_name is not None and action.layer_name != top.name:
                raise SurgeryError(f"plan removes {action.layer_name!r} but top is {top.name!r}")
            if top.kind != LayerKind.FC:
                raise SurgeryError(f"cannot remove {top.name!r}: top layer is not FC")
            if sum(1 for l in stack if l.kind == LayerKind.FC) <= 1:
                raise SurgeryError("cannot remove the last FC layer")
            stack.pop()
            removed.append(top.name)
        elif isinstance(action, ReplaceTop):
            top = stack[-1]
            if top.kind != LayerKind.FC:
                raise SurgeryError(f"cannot replace {top.name!r}: top layer is not FC")
            stack[-1] = LayerSpec(
                top.name, LayerKind.FC, units=action.new_units, relu=False,
                lr_mult=plan.new_layer_lr_mult,
            )
            removed.append(top.name)
            fresh.append(top.name)
        elif isinstance(action, Append):
            if any(l.name == action.layer_name for l in stack):
                raise SurgeryError(f"layer {action.layer_name!r} already exists")
            stack.append(
                LayerSpec(
                    action.layer_name, LayerKind.FC, units=action.new_units, relu=False,
                    lr_mult=plan.new_layer_lr_mult,
                )
            )
            fresh.append(action.layer_name)
        else:
            raise SurgeryError(f"unknown surgery action {action!r}")

    if softmax is not None:
        stack.append(softmax)
    new_spec = NetworkSpec(input_shape=spec.input_shape, layers=tuple(stack))
    return new_spec, removed, fresh


def plan_spec(plan: SurgeryPlan, spec: NetworkSpec) -> NetworkSpec:
    """The spec a plan would produce, without touching any tensors."""
    new_spec, _, _ = _transform(plan, spec)
    return new_spec


def apply(
    plan: SurgeryPlan,
    spec: NetworkSpec,
    ckpt: Checkpoint,
    seed: int = 0,
) -> tuple[NetworkSpec, Checkpoint, SurgeryReport]:
    """Apply a plan, returning (new spec, new checkpoint, report)."""
    ckpt.validate_against(parameter_shapes(spec))
    new_spec, removed, fresh = _transform(plan, spec)
    new_shapes = parameter_shapes(new_spec)

    entries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    retained: list[str] = []
    for layer in new_spec.parameterized:
        if layer.name in fresh:
            entries[layer.name] = init_layer_params(new_spec, layer.name, seed)
        else:
            entries[layer.name] = ckpt.entries[layer.name]
            retained.append(layer.name)
    new_ckpt = Checkpoint(
        entries=entries,
        metadata={
            **ckpt.metadata,
            "spec": new_spec.fingerprint(),
            "surgery": plan.label or "custom",
        },
    )
    new_ckpt.validate_against(new_shapes)

    report = SurgeryReport(
        label=plan.label or "custom",
        removed=tuple(removed),
        retained=tuple(retained),
        new=tuple(fresh),
        params_before=count_parameters(spec),
        params_after=count_parameters(new_spec),
        retained_bit_exact=all(entries[name] is ckpt.entries[name] for name in retained),
    )
    return new_spec, new_ckpt, report
