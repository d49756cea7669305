"""Tests for checkpoint-preserving architecture surgery."""

import numpy as np
import pytest

from sentnet.errors import CheckpointMismatchError, SurgeryError
from sentnet.network import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    count_parameters,
    forward,
    infer_shapes,
    init_layer_params,
    init_params,
    parameter_shapes,
    reference_spec,
    reference_spec_small,
)
from sentnet.surgery import (
    PRESETS,
    Append,
    RemoveTop,
    ReplaceTop,
    SurgeryPlan,
    apply,
    plan_spec,
    preset_plan,
)

from oracles import traced_peak

HEAD_1000 = 4096 * 1000 + 1000
FC7_PARAMS = 4096 * 4096 + 4096
FC6_PARAMS = 9216 * 4096 + 4096


@pytest.fixture(scope="module")
def small_setup():
    spec = reference_spec_small(num_classes=4)
    return spec, init_params(spec, seed=0)


class TestPresetCatalog:
    def test_all_presets_present(self):
        assert set(PRESETS) == {
            "finetune", "fc7-4096", "fc6-4096", "fc7-2", "fc6-2", "fc8-1000", "fc9-2",
        }

    def test_unknown_preset_rejected(self):
        with pytest.raises(SurgeryError, match="unknown"):
            preset_plan("fc5-2")

    def test_preset_label_matches_name(self):
        for name in PRESETS:
            assert preset_plan(name).label == name

    def test_fc6_2_uses_gentler_default_rate(self):
        assert preset_plan("fc6-2").default_base_lr == 0.0001
        assert preset_plan("fc7-2").default_base_lr is None
        assert preset_plan("finetune").default_base_lr is None

    def test_keep_top_preset_is_empty(self):
        plan = preset_plan("fc8-1000")
        assert plan.actions == ()

    def test_table_pins_every_preset(self):
        assert tuple(PRESETS) == ("finetune", "fc7-4096", "fc6-4096", "fc7-2", "fc6-2", "fc8-1000", "fc9-2")
        # name: (actions, family, default_base_lr, swap_binary_labels)
        want = {
            "finetune": ((ReplaceTop(2),), "finetune", None, False),
            "fc7-4096": ((RemoveTop(),), "ablation", None, False),
            "fc6-4096": ((RemoveTop(), RemoveTop()), "ablation", None, False),
            "fc7-2": ((RemoveTop(), ReplaceTop(2)), "ablation", None, False),
            "fc6-2": ((RemoveTop(), RemoveTop(), ReplaceTop(2)), "ablation", 0.0001, False),
            "fc8-1000": ((), "addition", None, True),
            "fc9-2": ((Append("fc9", 2),), "addition", None, False),
        }
        for name, (actions, family, base_lr, swap) in want.items():
            plan = PRESETS[name]
            got = (plan.actions, plan.family, plan.default_base_lr, plan.swap_binary_labels)
            assert got == (actions, family, base_lr, swap), name
            assert (plan.new_layer_lr_mult, plan.label) == (10.0, name)

    def test_presets_carry_their_report_family_and_label_swap(self):
        assert {name: plan.family for name, plan in PRESETS.items()} == {
            "finetune": "finetune", "fc7-4096": "ablation", "fc6-4096": "ablation", "fc7-2": "ablation",
            "fc6-2": "ablation", "fc8-1000": "addition", "fc9-2": "addition",
        }
        assert [name for name, plan in PRESETS.items() if plan.swap_binary_labels] == ["fc8-1000"]
        assert SurgeryPlan(actions=()).family == "other"


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


class TestTransform:
    def test_finetune_keeps_name_and_resets_width(self, small_setup):
        spec, _ = small_setup
        new_spec = plan_spec(preset_plan("finetune"), spec)
        head = new_spec.layer("fc8")
        assert head.units == 2
        assert head.relu is False
        assert head.lr_mult == 10.0
        assert new_spec.layers[-1].kind == LayerKind.SOFTMAX

    def test_removals_shift_the_top(self, small_setup):
        spec, _ = small_setup
        one = plan_spec(preset_plan("fc7-4096"), spec)
        assert one.top_name == "fc7"
        assert "fc8" not in one.endpoints
        two = plan_spec(preset_plan("fc6-4096"), spec)
        assert two.top_name == "fc6"

    def test_append_stacks_above_old_head(self, small_setup):
        spec, _ = small_setup
        new_spec = plan_spec(preset_plan("fc9-2"), spec)
        assert new_spec.endpoints[-2:] == ("fc8", "fc9")
        assert infer_shapes(new_spec)["fc9"] == (2,)
        assert new_spec.layer("fc9").lr_mult == 10.0

    def test_remove_top_validates_named_layer(self, small_setup):
        spec, _ = small_setup
        plan = SurgeryPlan(actions=(RemoveTop("fc7"),), label="bad")
        with pytest.raises(SurgeryError, match="fc8"):
            plan_spec(plan, spec)

    def test_cannot_remove_past_last_fc(self, small_setup):
        spec, _ = small_setup
        plan = SurgeryPlan(actions=tuple(RemoveTop() for _ in range(3)), label="bad")
        with pytest.raises(SurgeryError, match="last FC"):
            plan_spec(plan, spec)

    def test_replace_requires_fc_top(self):
        spec = NetworkSpec(
            input_shape=(1, 4, 4),
            layers=(
                LayerSpec("c", LayerKind.CONV, out_channels=2, kernel=3),
                LayerSpec("prob", LayerKind.SOFTMAX),
            ),
        )
        with pytest.raises(SurgeryError, match="not FC"):
            plan_spec(SurgeryPlan(actions=(ReplaceTop(2),), label="bad"), spec)

    def test_append_rejects_existing_name(self, small_setup):
        spec, _ = small_setup
        plan = SurgeryPlan(actions=(Append("fc7", 2),), label="bad")
        with pytest.raises(SurgeryError, match="already exists"):
            plan_spec(plan, spec)


class TestApply:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_retained_tensors_byte_identical(self, small_setup, name):
        spec, ckpt = small_setup
        new_spec, new_ckpt, report = apply(preset_plan(name), spec, ckpt, seed=3)
        assert report.retained_bit_exact
        for layer in report.retained:
            assert new_ckpt.entries[layer][0].tobytes() == ckpt.entries[layer][0].tobytes()
            assert new_ckpt.entries[layer][1].tobytes() == ckpt.entries[layer][1].tobytes()
        assert count_parameters(new_spec) == new_ckpt.num_parameters()

    def test_retained_entries_are_shared_not_scanned(self, ref):
        # a full-size finetune keeps 58M weights; apply shares them, it neither copies nor scans them
        spec, _ = ref
        ckpt = init_params(spec, seed=11)
        peak, (_, new_ckpt, report) = traced_peak(lambda: apply(preset_plan("finetune"), spec, ckpt, seed=3))
        assert peak < 1 << 20, f"apply peaked at {peak / 1e6:.1f} MB"
        assert report.retained_bit_exact and len(report.retained) == 7
        for name in report.retained:
            assert new_ckpt.entries[name] is ckpt.entries[name]

    def test_retained_nan_weights_still_bit_exact(self, small_setup):
        spec, ckpt = small_setup
        ckpt = ckpt.copy()
        ckpt.entries["conv2"][0][0, 0, 0, 0] = np.nan
        _, _, report = apply(preset_plan("fc7-2"), spec, ckpt, seed=0)
        assert report.retained_bit_exact

    def test_report_partitions_layers(self, small_setup):
        spec, ckpt = small_setup
        _, _, report = apply(preset_plan("fc7-2"), spec, ckpt, seed=0)
        assert report.removed == ("fc8", "fc7")
        assert report.new == ("fc7",)
        assert "fc8" not in report.retained
        assert "conv1" in report.retained

    def test_fresh_head_matches_seeded_init(self, small_setup):
        spec, ckpt = small_setup
        new_spec, new_ckpt, _ = apply(preset_plan("finetune"), spec, ckpt, seed=11)
        want_w, want_b = init_layer_params(new_spec, "fc8", seed=11)
        np.testing.assert_array_equal(new_ckpt.entries["fc8"][0], want_w)
        np.testing.assert_array_equal(new_ckpt.entries["fc8"][1], want_b)

    def test_seed_changes_only_fresh_layers(self, small_setup):
        spec, ckpt = small_setup
        _, a, _ = apply(preset_plan("finetune"), spec, ckpt, seed=0)
        _, b, _ = apply(preset_plan("finetune"), spec, ckpt, seed=1)
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
        new_spec, new_ckpt, _ = apply(preset_plan("finetune"), spec, ckpt, seed=0)
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

    def test_metadata_records_surgery_label(self, small_setup):
        spec, ckpt = small_setup
        _, new_ckpt, _ = apply(preset_plan("fc9-2"), spec, ckpt, seed=0)
        assert new_ckpt.metadata["surgery"] == "fc9-2"

    def test_keep_top_returns_equal_network(self, small_setup):
        spec, ckpt = small_setup
        new_spec, new_ckpt, report = apply(preset_plan("fc8-1000"), spec, ckpt, seed=0)
        assert new_spec.fingerprint() == spec.fingerprint()
        assert report.removed == () and report.new == ()
        assert set(new_ckpt.entries) == set(ckpt.entries)
        assert report.params_before == report.params_after

    def test_trainability_after_each_preset(self, small_setup):
        # every preset's output must still pass training validation
        spec, ckpt = small_setup
        for name in sorted(PRESETS):
            new_spec, new_ckpt, _ = apply(preset_plan(name), spec, ckpt, seed=0)
            new_spec.validate_for_training()
            new_ckpt.validate_against(parameter_shapes(new_spec))
