"""Tests for checkpoint-preserving architecture surgery."""

import numpy as np
import pytest

from sentnet.errors import CheckpointMismatchError, ShapeError, SurgeryError
from sentnet.network import (
    LayerKind,
    count_parameters,
    forward,
    init_layer_params,
    init_params,
    parameter_shapes,
    reference_spec,
    reference_spec_small,
)
from sentnet.surgery import PRESETS, SurgeryPlan, apply, plan_spec, preset_plan

from oracles import traced_peak

HEAD_1000 = 4096 * 1000 + 1000
FC7_PARAMS = 4096 * 4096 + 4096
FC6_PARAMS = 9216 * 4096 + 4096

BASE = ("conv1", "pool1", "norm1", "conv2", "pool2", "norm2", "conv3", "conv4", "conv5", "pool5")
# name: the layer names below the softmax, on either reference stack
STACKS = {
    "finetune": BASE + ("fc6", "fc7", "fc8"),
    "fc7-4096": BASE + ("fc6", "fc7"),
    "fc6-4096": BASE + ("fc6",),
    "fc7-2": BASE + ("fc6", "fc7"),
    "fc6-2": BASE + ("fc6",),
    "fc8-1000": BASE + ("fc6", "fc7", "fc8"),
    "fc9-2": BASE + ("fc6", "fc7", "fc8", "fc9"),
}
# The spec fingerprints the former action-list plans produced, in PRESETS order.
FINGERPRINTS = {
    "small-4": (
        "bc30972adafec560", "df889123a2d55fcf", "3eb7d668cfae22c4", "526fa5cf96ea4e7b",
        "d868524b1d1e2742", "297d486d99340b23", "0c2819d8f9f0dd44",
    ),
    "reference-1000": (
        "e4145e7259631323", "dad2d5b4bd0cef0e", "ab3ae3ae78fdb038", "f81ef891a37d0365",
        "9c6ba9fdf8abbced", "96b706bbb5f0b082", "d1f25f51f10696f1",
    ),
}
BASE_SPECS = {"small-4": lambda: reference_spec_small(4), "reference-1000": lambda: reference_spec(1000)}


def kept(plan, new_spec):
    """The parameterized layers the plan takes from the base."""
    return [l.name for l in new_spec.parameterized if l.name != plan.head]


@pytest.fixture(scope="module")
def small_setup():
    spec = reference_spec_small(num_classes=4)
    return spec, init_params(spec, seed=0)


class TestPresetCatalog:
    def test_unknown_preset_rejected(self):
        with pytest.raises(SurgeryError, match="unknown"):
            preset_plan("fc5-2")

    def test_table_pins_every_preset(self):
        assert tuple(PRESETS) == ("finetune", "fc7-4096", "fc6-4096", "fc7-2", "fc6-2", "fc8-1000", "fc9-2")
        # name: (keep, head, family, default_base_lr, swap_binary_labels)
        want = {
            "finetune": ("fc7", "fc8", "finetune", None, False),
            "fc7-4096": ("fc7", None, "ablation", None, False),
            "fc6-4096": ("fc6", None, "ablation", None, False),
            "fc7-2": ("fc6", "fc7", "ablation", None, False),
            "fc6-2": ("pool5", "fc6", "ablation", 0.0001, False),
            "fc8-1000": ("fc8", None, "addition", None, True),
            "fc9-2": ("fc8", "fc9", "addition", None, False),
        }
        for name, row in want.items():
            plan = preset_plan(name)
            assert (plan.keep, plan.head, plan.family, plan.default_base_lr, plan.swap_binary_labels) == row, name
            assert plan.label == name

    def test_family_defaults_to_other(self):
        assert SurgeryPlan("custom", "fc8").family == "other"


@pytest.fixture(scope="module")
def ref():
    spec = reference_spec(num_classes=1000)
    return spec, count_parameters(spec)


class TestParamAccounting:
    """Analytic parameter counts for every preset on the full-size spec."""

    def expected_after(self, name, total):
        return {
            "finetune": total - HEAD_1000 + (4096 * 2 + 2),
            "fc7-4096": total - HEAD_1000,
            "fc6-4096": total - HEAD_1000 - FC7_PARAMS,
            "fc7-2": total - HEAD_1000 - FC7_PARAMS + (4096 * 2 + 2),
            "fc6-2": total - HEAD_1000 - FC7_PARAMS - FC6_PARAMS + (9216 * 2 + 2),
            "fc8-1000": total,
            "fc9-2": total + (1000 * 2 + 2),
        }[name]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_count_after_surgery(self, ref, name):
        spec, total = ref
        new_spec = plan_spec(preset_plan(name), spec)
        assert count_parameters(new_spec) == self.expected_after(name, total)

    def test_reference_total_by_formula(self, ref):
        _, total = ref
        conv = (
            96 * 3 * 11 * 11 + 96
            + 256 * 96 * 5 * 5 + 256
            + 384 * 256 * 3 * 3 + 384
            + 384 * 384 * 3 * 3 + 384
            + 256 * 384 * 3 * 3 + 256
        )
        fc = FC6_PARAMS + FC7_PARAMS + HEAD_1000
        assert total == conv + fc


class TestPlanSpec:
    @pytest.mark.parametrize("base", sorted(BASE_SPECS))
    def test_every_preset_builds_its_stack(self, base):
        spec = BASE_SPECS[base]()
        for name, fingerprint in zip(PRESETS, FINGERPRINTS[base]):
            plan = preset_plan(name)
            new_spec = plan_spec(plan, spec)
            assert tuple(l.name for l in new_spec.layers) == STACKS[name] + ("prob",), name
            assert new_spec.layers[-1].kind == LayerKind.SOFTMAX
            assert new_spec.fingerprint() == fingerprint, name
            below = STACKS[name][: len(STACKS[name]) - (plan.head is not None)]
            assert new_spec.layers[: len(below)] == spec.layers[: len(below)], name
            if plan.head is not None:
                head = new_spec.layer(plan.head)
                assert (head.kind, head.units, head.relu, head.lr_mult) == (LayerKind.FC, 2, False, 10.0), name

    @pytest.mark.parametrize("keep, head, words", [
        ("fc5", None, "no layer named 'fc5'"),
        ("fc8", "fc7", "duplicate layer names"),
    ])
    def test_plan_the_base_cannot_form_rejected(self, small_setup, keep, head, words):
        spec, _ = small_setup
        with pytest.raises(ShapeError, match=words):
            plan_spec(SurgeryPlan("bad", keep, head), spec)


class TestApply:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_kept_tensors_are_the_base_and_the_head_is_seeded(self, small_setup, name):
        spec, ckpt = small_setup
        plan = preset_plan(name)
        new_spec, new_ckpt = apply(plan, spec, ckpt, seed=3)
        for layer in kept(plan, new_spec):
            assert new_ckpt.entries[layer] is ckpt.entries[layer]
        if plan.head is not None:
            for got, want in zip(new_ckpt.entries[plan.head], init_layer_params(new_spec, plan.head, 3)):
                assert got.tobytes() == want.tobytes()
        assert list(new_ckpt.entries) == [l.name for l in new_spec.parameterized]
        assert count_parameters(new_spec) == new_ckpt.num_parameters()

    def test_kept_entries_are_shared_not_scanned(self, ref):
        # a full-size finetune keeps 58M weights; apply shares them, it neither copies nor scans them
        spec, _ = ref
        ckpt = init_params(spec, seed=11)
        plan = preset_plan("finetune")
        peak, (new_spec, new_ckpt) = traced_peak(lambda: apply(plan, spec, ckpt, seed=3))
        assert peak < 1 << 20, f"apply peaked at {peak / 1e6:.1f} MB"
        assert kept(plan, new_spec) == ["conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7"]
        for name in kept(plan, new_spec):
            assert new_ckpt.entries[name] is ckpt.entries[name]

    def test_kept_nan_weights_still_bit_exact(self, small_setup):
        spec, ckpt = small_setup
        ckpt = ckpt.copy()
        ckpt.entries["conv2"][0][0, 0, 0, 0] = np.nan
        _, new_ckpt = apply(preset_plan("fc7-2"), spec, ckpt, seed=0)
        assert new_ckpt.entries["conv2"][0].tobytes() == ckpt.entries["conv2"][0].tobytes()

    def test_replaced_layer_is_fresh(self, small_setup):
        spec, ckpt = small_setup
        _, new_ckpt = apply(preset_plan("fc7-2"), spec, ckpt, seed=0)
        assert "fc8" not in new_ckpt.entries
        assert new_ckpt.entries["fc6"] is ckpt.entries["fc6"]
        assert new_ckpt.entries["fc7"][0].shape == (128, 2)

    def test_seed_changes_only_fresh_layers(self, small_setup):
        spec, ckpt = small_setup
        _, a = apply(preset_plan("finetune"), spec, ckpt, seed=0)
        _, b = apply(preset_plan("finetune"), spec, ckpt, seed=1)
        assert a.entries["fc8"][0].tobytes() != b.entries["fc8"][0].tobytes()
        assert a.entries["fc7"][0].tobytes() == b.entries["fc7"][0].tobytes()

    def test_inputs_never_mutated(self, small_setup):
        spec, ckpt = small_setup
        before = {k: (w.tobytes(), b.tobytes()) for k, (w, b) in ckpt.entries.items()}
        apply(preset_plan("fc6-2"), spec, ckpt, seed=0)
        after = {k: (w.tobytes(), b.tobytes()) for k, (w, b) in ckpt.entries.items()}
        assert before == after

    def test_prefix_activations_unchanged_by_surgery(self, small_setup):
        # the layers below the edit must compute bit-identical values
        spec, ckpt = small_setup
        new_spec, new_ckpt = apply(preset_plan("finetune"), spec, ckpt, seed=0)
        x = np.random.default_rng(0).normal(0, 40, size=(2, 3, 64, 64)).astype(np.float32)
        old = forward(spec, ckpt, x)
        new = forward(new_spec, new_ckpt, x)
        for name in ("conv1", "pool2", "conv5", "fc6", "fc7"):
            assert old.post[name].tobytes() == new.post[name].tobytes(), name

    def test_mismatched_checkpoint_rejected(self, small_setup):
        spec, _ = small_setup
        other = init_params(reference_spec_small(num_classes=7), seed=0)
        with pytest.raises(CheckpointMismatchError):
            apply(preset_plan("finetune"), spec, other, seed=0)

    def test_metadata_records_surgery_label_and_spec(self, small_setup):
        spec, ckpt = small_setup
        new_spec, new_ckpt = apply(preset_plan("fc9-2"), spec, ckpt, seed=0)
        assert new_ckpt.metadata["surgery"] == "fc9-2"
        assert new_ckpt.metadata["spec"] == new_spec.fingerprint()

    def test_keep_top_returns_equal_network(self, small_setup):
        spec, ckpt = small_setup
        new_spec, new_ckpt = apply(preset_plan("fc8-1000"), spec, ckpt, seed=0)
        assert new_spec.fingerprint() == spec.fingerprint()
        assert all(new_ckpt.entries[name] is entry for name, entry in ckpt.entries.items())
        assert set(new_ckpt.entries) == set(ckpt.entries)

    def test_trainability_after_each_preset(self, small_setup):
        # every preset's output must still pass training validation
        spec, ckpt = small_setup
        for name in sorted(PRESETS):
            new_spec, new_ckpt = apply(preset_plan(name), spec, ckpt, seed=0)
            new_spec.validate_for_training()
            new_ckpt.validate_against(parameter_shapes(new_spec))
