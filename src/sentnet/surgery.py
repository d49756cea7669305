"""Checkpoint-preserving architecture edits.

A surgery plan is a short list of stack edits applied above a trained
network: remove the top layer, replace it with a fresh head, or append a
new head. Apply is pure: it returns a new (spec, checkpoint, report) and
never touches the inputs. Retained layers keep their exact tensors, so
everything the plan does not name survives byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
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


def finetune_plan(num_classes: int = 2) -> SurgeryPlan:
    """Replace the classifier head with a fresh num_classes-way FC."""
    return SurgeryPlan(actions=(ReplaceTop(num_classes),), label="finetune", family="finetune")


def ablation_plan(depth: int, mode: str) -> SurgeryPlan:
    """Remove depth FC layers from the top; mode 'raw' keeps the exposed FC
    as the new head, mode 'replace2' swaps it for a fresh 2-unit head."""
    if depth not in (1, 2):
        raise SurgeryError(f"ablation depth must be 1 or 2, got {depth}")
    if mode not in ("raw", "replace2"):
        raise SurgeryError(f"ablation mode must be 'raw' or 'replace2', got {mode!r}")
    actions = (RemoveTop(),) * depth + ((ReplaceTop(2),) if mode == "replace2" else ())
    # The 2-unit head directly off the first FC needs a gentler rate to stay stable.
    base_lr = 0.0001 if (depth, mode) == (2, "replace2") else None
    return SurgeryPlan(actions, label=f"ablation-{depth}-{mode}", default_base_lr=base_lr, family="ablation")


def addition_plan(mode: str) -> SurgeryPlan:
    """mode 'keep_top': retain the original head and train through it;
    mode 'append2': stack a fresh 2-unit head named fc9 on top."""
    if mode == "keep_top":
        return SurgeryPlan(actions=(), label="addition-keep_top", family="addition", swap_binary_labels=True)
    if mode == "append2":
        return SurgeryPlan(actions=(Append("fc9", 2),), label="addition-append2", family="addition")
    raise SurgeryError(f"addition mode must be 'keep_top' or 'append2', got {mode!r}")


PRESETS: dict[str, SurgeryPlan] = {
    "finetune": finetune_plan(),
    "fc7-4096": ablation_plan(1, "raw"),
    "fc6-4096": ablation_plan(2, "raw"),
    "fc7-2": ablation_plan(1, "replace2"),
    "fc6-2": ablation_plan(2, "replace2"),
    "fc8-1000": addition_plan("keep_top"),
    "fc9-2": addition_plan("append2"),
}


def preset_plan(name: str) -> SurgeryPlan:
    if name not in PRESETS:
        raise SurgeryError(f"unknown surgery preset {name!r}; known: {sorted(PRESETS)}")
    plan = PRESETS[name]
    return dc_replace(plan, label=name)


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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-level equality of two float32 tensors (NaN-safe), without copies."""
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


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

    bit_exact = all(
        _same_bits(new, old)
        for name in retained
        for new, old in zip(entries[name], ckpt.entries[name])
    )
    report = SurgeryReport(
        label=plan.label or "custom",
        removed=tuple(removed),
        retained=tuple(retained),
        new=tuple(fresh),
        params_before=count_parameters(spec),
        params_after=count_parameters(new_spec),
        retained_bit_exact=bit_exact,
    )
    return new_spec, new_ckpt, report
