"""End-to-end command behavior through click's test runner."""

from __future__ import annotations

import json
import pathlib

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from dnnreuse import layercost
from dnnreuse.cli import main
from dnnreuse.graph import parse_model

from conftest import NEGATIVE, assert_exit_2

TINY_MODEL = """\
name: tiny
input: {channels: 3, h: 8, w: 8}
layers:
  - {name: data, kind: input}
  - {name: c1, kind: conv, inputs: [data], out_channels: 4, kernel_h: 3, kernel_w: 3,
     stride_h: 1, stride_w: 1, pad_h: 1, pad_w: 1}
  - {name: r1, kind: relu, inputs: [c1]}
  - {name: fc, kind: fc, inputs: [r1], out_features: 10}
"""

HW_SPEC = "name: x\npeak_flops: 1.0e+12\npeak_bandwidth_bytes_per_s: 1.0e+11\n"

POOL_ONLY = """\
input: {channels: 3, h: 8, w: 8}
layers:
  - {name: data, kind: input}
  - {name: p, kind: pool, inputs: [data], kernel_h: 2, kernel_w: 2, stride_h: 2, stride_w: 2}
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def tiny_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_MODEL)
    return str(path)


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


class TestAnalyze:
    def test_csv_row_per_model(self, runner, tiny_path, model_dir):
        out = run_ok(runner, ["analyze", tiny_path, str(model_dir / "alexnet.yaml")])
        lines = out.strip().splitlines()
        assert lines[0].startswith("model,macs,weights,activations")
        assert len(lines) == 3
        assert lines[1].startswith("tiny,")
        assert lines[2].startswith("alexnet,")

    def test_json_array(self, runner, tiny_path):
        out = run_ok(runner, ["analyze", tiny_path, tiny_path, "--format", "json"])
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 2
        assert payload[0]["model"] == "tiny"
        assert payload[0]["case"] in ("ActivationsScarce", "Balanced", "ActivationsDominant")

    def test_alexnet_metrics_row(self, runner, model_dir):
        out = run_ok(runner, ["analyze", str(model_dir / "alexnet.yaml"), "--format", "json"])
        (row,) = json.loads(out)
        assert row["ai_c"] == pytest.approx(11.48, rel=0.01)
        assert row["case"] == "ActivationsScarce"

    def test_batch_scales_weight_reuse(self, runner, tiny_path):
        b1 = json.loads(run_ok(runner, ["analyze", tiny_path, "--format", "json"]))[0]
        b4 = json.loads(run_ok(runner, ["analyze", tiny_path, "--batch", "4", "--format", "json"]))[0]
        assert b4["weight_reuse"] == pytest.approx(4 * b1["weight_reuse"])
        assert b4["activation_reuse"] == pytest.approx(b1["activation_reuse"])

    def test_parse_error_exits_2_and_suppresses_output(self, runner, tmp_path, tiny_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("layers: [{name: x, kind: conv}]")
        result = runner.invoke(main, ["analyze", tiny_path, str(bad)])
        assert result.exit_code == 2
        assert "bad.yaml" in result.output
        assert "tiny," not in result.output

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["analyze", "/nonexistent/x.yaml"])
        assert result.exit_code == 2

    def test_undecodable_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "binary.yaml"
        path.write_bytes(b"\xff\xfe\x00")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2
        assert "utf-8" in result.stderr

    def test_deterministic_output(self, runner, model_dir):
        args = ["analyze", str(model_dir / "vgg-16.yaml"), str(model_dir / "nin.yaml")]
        assert run_ok(runner, args) == run_ok(runner, args)


class TestLayers:
    def test_rows_and_trailer(self, runner, tiny_path):
        out = run_ok(runner, ["layers", tiny_path])
        lines = out.strip().splitlines()
        assert lines[0] == "name,kind,macs,weights,activations,ai"
        assert lines[1].startswith("data,input,")
        assert lines[-2].startswith("median,")
        assert lines[-1].startswith("variance,")

    def test_vgg16_median(self, runner, model_dir):
        out = run_ok(runner, ["layers", str(model_dir / "vgg-16.yaml"), "--format", "json"])
        payload = json.loads(out)
        assert payload["ai_median"] == pytest.approx(560, rel=0.10)

    def test_single_conv_trailer_equals_row(self, runner, tmp_path):
        path = tmp_path / "one.yaml"
        path.write_text(
            "input: {channels: 3, h: 8, w: 8}\n"
            "layers:\n"
            "  - {name: data, kind: input}\n"
            "  - {name: c, kind: conv, inputs: [data], out_channels: 4, kernel_h: 3, kernel_w: 3,\n"
            "     stride_h: 1, stride_w: 1, pad_h: 1, pad_w: 1}\n"
        )
        payload = json.loads(run_ok(runner, ["layers", str(path), "--format", "json"]))
        conv_rows = [l for l in payload["layers"] if l["kind"] == "conv"]
        assert len(conv_rows) == 1
        assert payload["ai_median"] == pytest.approx(conv_rows[0]["ai"])
        assert payload["ai_variance"] == 0

    def test_no_mac_layers_exits_3(self, runner, tmp_path):
        path = tmp_path / "pool.yaml"
        path.write_text(POOL_ONLY)
        result = runner.invoke(main, ["layers", str(path)])
        assert result.exit_code == 3
        assert "no MAC-bearing layers" in result.output

    def test_declaration_order_does_not_change_reports(self, runner, tmp_path):
        header = "name: branchy\ninput: {channels: 3, h: 8, w: 8}\nlayers:\n"
        execution_order = [
            "  - {name: data, kind: input}\n",
            "  - {name: a, kind: conv, inputs: [data], out_channels: 4, kernel_h: 1, kernel_w: 1}\n",
            "  - {name: b, kind: conv, inputs: [data], out_channels: 6, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}\n",
            "  - {name: r, kind: relu, inputs: [b], in_place: false}\n",
            "  - {name: cat, kind: concat, inputs: [a, r]}\n",
            "  - {name: fc, kind: fc, inputs: [cat], out_features: 10}\n",
        ]
        in_order = tmp_path / "in_order.yaml"
        in_order.write_text(header + "".join(execution_order))
        # fc and cat are listed before their producers
        shuffled = tmp_path / "shuffled.yaml"
        shuffled.write_text(header + "".join(execution_order[:3:-1] + execution_order[:4]))
        for command in ("analyze", "layers"):
            for fmt in ("csv", "json"):
                expected = run_ok(runner, [command, str(in_order), "--format", fmt])
                assert run_ok(runner, [command, str(shuffled), "--format", fmt]) == expected


def test_each_layer_is_costed_once_per_command(runner, model_dir, monkeypatch):
    # infer_shapes costs each layer as it fixes its shape; no command costs a layer again
    path = model_dir / "googlenet.yaml"
    calls = []
    original = layercost.layer_cost
    monkeypatch.setattr(layercost, "layer_cost", lambda *args: calls.append(args[0].name) or original(*args))
    run_ok(runner, ["analyze", str(path)])
    run_ok(runner, ["layers", str(path)])
    assert len(calls) == 2 * len(parse_model(path.read_text()).layers)


class TestCalibrate:
    def test_bundled_curve_shape(self, runner, fixture_dir):
        out = run_ok(
            runner,
            [
                "calibrate",
                "--profiles", str(fixture_dir / "reference_metrics.csv"),
                "--measurements", str(fixture_dir / "measurements.csv"),
                "--device", "P4000",
                "--batch", "4",
            ],
        )
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,r_p,r_s"
        assert len(lines) == 23  # 21 grid rows + header + trailer
        assert lines[-1].startswith("selected_alpha,")
        r_values = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert all(b >= a for a, b in zip(r_values[:16], r_values[1:17]))

    def test_step_half_gives_three_point_grid(self, runner, fixture_dir):
        out = run_ok(
            runner,
            [
                "calibrate",
                "--profiles", str(fixture_dir / "reference_metrics.csv"),
                "--measurements", str(fixture_dir / "measurements.csv"),
                "--device", "P4000",
                "--batch", "4",
                "--step", "0.5",
            ],
        )
        lines = out.strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:-1]] == ["0.0000", "0.5000", "1.0000"]

    def test_orphan_models_exit_2(self, runner, tmp_path, fixture_dir):
        profiles = tmp_path / "p.csv"
        profiles.write_text("model,macs,weights,activations\nghost,10,5,5\n")
        result = runner.invoke(
            main,
            [
                "calibrate",
                "--profiles", str(profiles),
                "--measurements", str(fixture_dir / "measurements.csv"),
                "--device", "P4000",
                "--batch", "4",
            ],
        )
        assert result.exit_code == 2
        assert "ghost" in result.output
        assert "alexnet" in result.output

    def test_json_selected_alpha(self, runner, fixture_dir):
        out = run_ok(
            runner,
            [
                "calibrate",
                "--profiles", str(fixture_dir / "reference_metrics.csv"),
                "--measurements", str(fixture_dir / "measurements.csv"),
                "--device", "P100",
                "--batch", "1",
                "--format", "json",
            ],
        )
        payload = json.loads(out)
        assert payload["n"] == 25
        assert payload["selected_alpha"] == pytest.approx(0.80, abs=0.051)


class TestRoofline:
    def test_model_doc_rows(self, runner, hardware_dir, model_dir):
        out = run_ok(
            runner,
            [
                "roofline",
                "--hw", str(hardware_dir / "p100.yaml"),
                str(model_dir / "alexnet.yaml"),
                str(model_dir / "mobilenet-v1.yaml"),
            ],
        )
        lines = out.strip().splitlines()
        assert lines[1].startswith("model,alexnet,") and "MemoryBound" in lines[1]
        assert lines[2].startswith("model,mobilenet-v1,") and "ComputeBound" in lines[2]
        assert any(l.startswith("envelope,") for l in lines[3:])

    def test_di_metric_flips_alexnet(self, runner, hardware_dir, model_dir):
        out = run_ok(
            runner,
            [
                "roofline",
                "--hw", str(hardware_dir / "p100.yaml"),
                "--metric", "di",
                str(model_dir / "alexnet.yaml"),
            ],
        )
        assert "ComputeBound" in out.splitlines()[1]

    def test_profiles_csv_input(self, runner, hardware_dir, fixture_dir):
        out = run_ok(
            runner,
            [
                "roofline",
                "--hw", str(hardware_dir / "p100.yaml"),
                "--profiles", str(fixture_dir / "reference_metrics.csv"),
            ],
        )
        point_rows = [l for l in out.splitlines() if l.startswith("model,")]
        assert len(point_rows) == 25

    def test_measured_column(self, runner, hardware_dir, model_dir, fixture_dir):
        out = run_ok(
            runner,
            [
                "roofline",
                "--hw", str(hardware_dir / "p100.yaml"),
                "--measurements", str(fixture_dir / "measurements.csv"),
                "--device", "P100",
                "--batch", "4",
                "--format", "json",
                str(model_dir / "alexnet.yaml"),
            ],
        )
        payload = json.loads(out)
        (point,) = payload["points"]
        assert point["measured_ops"] == pytest.approx(4 * 724406816 / 2.92e-3, rel=1e-6)

    def test_unknown_hw_file_exits_2(self, runner, model_dir):
        result = runner.invoke(main, ["roofline", "--hw", "/nonexistent/hw.yaml", str(model_dir / "nin.yaml")])
        assert result.exit_code == 2

    def test_no_inputs_exits_2(self, runner, hardware_dir):
        result = runner.invoke(main, ["roofline", "--hw", str(hardware_dir / "p100.yaml")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("measured", [False, True])
    def test_label_placed_twice_exits_2(self, runner, hardware_dir, model_dir, fixture_dir, measured):
        # the document and the profiles row are both labelled alexnet
        args = [
            "roofline", "--hw", str(hardware_dir / "p100.yaml"), str(model_dir / "alexnet.yaml"),
            "--profiles", str(fixture_dir / "reference_metrics.csv"), "--format", "json",
        ]
        if measured:
            args += ["--measurements", str(fixture_dir / "measurements.csv"), "--device", "P100"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "'alexnet' is placed twice" in result.stderr

    def test_same_document_twice_exits_2(self, runner, hardware_dir, model_dir):
        nin = str(model_dir / "nin.yaml")
        result = runner.invoke(main, ["roofline", "--hw", str(hardware_dir / "p100.yaml"), nin, nin])
        assert result.exit_code == 2
        assert "'nin' is placed twice" in result.stderr


class TestStats:
    def test_identical_columns(self, runner, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("u,v\n1,1\n2,2\n3,3\n4,4\n5,5\n")
        out = run_ok(runner, ["stats", str(path), "--x", "u", "--y", "v"])
        rows = dict(l.split(",", 1) for l in out.strip().splitlines()[1:])
        assert rows["r_p"] == "1.0000"
        assert rows["r_s"] == "1.0000"
        assert rows["r_p_ci95_lower"] == ""  # Fisher transform diverges at |r| = 1

    def test_known_interval(self, runner, tmp_path):
        # series engineered to give r_p close to a round value with n = 25
        path = tmp_path / "t.csv"
        lines = ["x,y"] + [f"{i},{i + (1 if i % 2 else -1) * 2.4}" for i in range(25)]
        path.write_text("\n".join(lines) + "\n")
        out = run_ok(runner, ["stats", str(path), "--x", "x", "--y", "y", "--format", "json"])
        payload = json.loads(out)
        assert payload["n"] == 25
        ci = payload["intervals"]["r_p_ci95"]
        assert ci["lower"] < payload["r_p"] < ci["upper"]

    def test_missing_column_exits_2(self, runner, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        result = runner.invoke(main, ["stats", str(path), "--x", "a", "--y", "zz"])
        assert result.exit_code == 2

    def test_zero_variance_exits_3(self, runner, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,1\n1,2\n1,3\n")
        result = runner.invoke(main, ["stats", str(path), "--x", "a", "--y", "b"])
        assert result.exit_code == 3


class TestNonFiniteInputs:
    """NaN and inf pass every `x <= 0` guard; each case here used to print a number."""

    def fails_with_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "finite" in result.stderr

    def test_measurement_row_with_nan_power_and_inf_macs(self, runner, tmp_path):
        profiles = tmp_path / "p.csv"
        profiles.write_text("model,macs,weights,activations\nx,100,4,6\ny,200,5,5\nz,300,6,9\n")
        measurements = tmp_path / "m.csv"
        measurements.write_text(
            "model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs\n"
            "x,P100,1,nan,2.0,224,224,inf\ny,P100,1,30,2.0,224,224,\nz,P100,1,40,2.5,224,224,\n"
        )
        self.fails_with_exit_2(runner, ["calibrate", "--profiles", str(profiles), "--measurements", str(measurements)])

    @pytest.mark.parametrize(
        "text",
        ["model,mc_over_w,mc_over_a\nx,nan,10\ny,5,10\n", "model,macs,weights,activations\nx,inf,1,1\n"],
    )
    def test_profile_rows(self, runner, tmp_path, hardware_dir, text):
        profiles = tmp_path / "p.csv"
        profiles.write_text(text)
        hw = str(hardware_dir / "p100.yaml")
        self.fails_with_exit_2(runner, ["roofline", "--hw", hw, "--profiles", str(profiles)])

    def test_hardware_peak(self, runner, tmp_path, model_dir):
        hw = tmp_path / "hw.yaml"
        hw.write_text("name: x\npeak_flops: .nan\npeak_bandwidth_bytes_per_s: 1.0e11\n")
        self.fails_with_exit_2(runner, ["roofline", "--hw", str(hw), str(model_dir / "nin.yaml")])

    def test_stats_cell(self, runner, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,1\nnan,2\n3,4\n4,3\n")
        self.fails_with_exit_2(runner, ["stats", str(path), "--x", "a", "--y", "b"])


class TestScalarConstructorErrors:
    """A scalar that PyYAML's constructor cannot type used to end in a traceback and exit 1."""

    CASES = [
        ("2001-13-45", "ValueError"),
        ('!!int ""', "IndexError"),
        ("!!int abc", "ValueError"),
        ("!!float x", "ValueError"),
        ("!!bool maybe", "KeyError"),
    ]

    @pytest.mark.parametrize("value, kind", CASES)
    def test_model_document(self, runner, tmp_path, value, kind):
        path = tmp_path / "t.yaml"
        path.write_text(f"name: {value}\n")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: bad value: {kind}: ")

    @pytest.mark.parametrize("value, kind", CASES)
    def test_hardware_spec(self, runner, tmp_path, model_dir, value, kind):
        path = tmp_path / "hw.yaml"
        path.write_text(HW_SPEC.replace("name: x", f"name: {value}"))
        result = runner.invoke(main, ["roofline", "--hw", str(path), str(model_dir / "nin.yaml")])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: bad value: {kind}: ")


class TestMixedTypeKeys:
    """An int key beside an unknown str key used to crash the sort of the unknown fields (exit 1)."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (TINY_MODEL + "1: x\nfoo: y\n", "unknown top-level fields: [1, 'foo']"),
            (TINY_MODEL.replace("w: 8}", "w: 8, 1: x, foo: y}"), "unknown input fields: [1, 'foo']"),
            (
                TINY_MODEL.replace("inputs: [c1]}", "inputs: [c1], 1: x, foo: y}"),
                "layer 'r1': unknown fields for kind relu: [1, 'foo']",
            ),
            (TINY_MODEL + "1: x\n'1': y\n", "unknown top-level fields: ['1', 1]"),  # equal text, ordered by repr
        ],
    )
    def test_model_document(self, runner, tmp_path, text, message):
        path = tmp_path / "t.yaml"
        path.write_text(text)
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: {message}\n"

    def test_hardware_spec(self, runner, tmp_path, model_dir):
        path = tmp_path / "hw.yaml"
        path.write_text(HW_SPEC + "1: x\nfoo: y\n")
        result = runner.invoke(main, ["roofline", "--hw", str(path), str(model_dir / "nin.yaml")])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: unknown hardware fields: 1, foo\n"


# integers beyond float range, the last also beyond the digit limit of int()
HUGE = ["1" + "0" * 400, "9" * 320, "1" + "0" * 5000]
BAD_VALUES = {
    "yaml": st.one_of(
        NEGATIVE,
        st.sampled_from(
            [".nan", ".NaN", ".inf", "-.inf", "1.0e+999", "1e999", "''", "", "~", *HUGE]
            + [value for value, _ in TestScalarConstructorErrors.CASES]
        ),
    ),
    "json": st.one_of(NEGATIVE, st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", '""', "null", *HUGE])),
}
PLACEHOLDER = "@@"


def document_with(doc: dict, form: str, value: str) -> str:
    """`doc` as YAML or JSON text, with `value` written as it is where `doc` holds PLACEHOLDER."""
    if form == "json":
        return json.dumps(doc).replace(f'"{PLACEHOLDER}"', value)
    return yaml.safe_dump(doc, sort_keys=False).replace(f"'{PLACEHOLDER}'", value)


@st.composite
def bad_model(draw):
    """(form, text): TINY_MODEL, its conv given `groups`, with one integer field holding a bad value."""
    doc = yaml.safe_load(TINY_MODEL)
    doc["layers"][1]["groups"] = 1
    fields = [(doc["input"], key) for key in doc["input"]] + [
        (layer, key) for layer in doc["layers"] for key, value in layer.items() if isinstance(value, int)
    ]
    where, key = draw(st.sampled_from(fields))
    where[key] = PLACEHOLDER
    form = draw(st.sampled_from(sorted(BAD_VALUES)))
    return form, document_with(doc, form, draw(BAD_VALUES[form]))


@st.composite
def bad_hardware_spec(draw):
    """(form, text): HW_SPEC with one peak holding a bad value."""
    doc = yaml.safe_load(HW_SPEC)
    doc[draw(st.sampled_from(["peak_flops", "peak_bandwidth_bytes_per_s"]))] = PLACEHOLDER
    form = draw(st.sampled_from(sorted(BAD_VALUES)))
    return form, document_with(doc, form, draw(BAD_VALUES[form]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_model())
def test_bad_number_in_any_model_field_exits_2(tmp_path, hardware_dir, case):
    form, text = case
    path = tmp_path / f"m.{form}"
    path.write_text(text)
    assert_exit_2(["analyze", str(path)])
    assert_exit_2(["layers", str(path)])
    assert_exit_2(["roofline", "--hw", str(hardware_dir / "p100.yaml"), str(path)])


def test_count_beyond_float_range_exits_2(runner, tmp_path, hardware_dir):
    """Every field is in range but the input tensor's element count is not; each command names the layer."""
    huge = "1" + "0" * 154
    path = tmp_path / "huge.yaml"
    path.write_text(
        f"input: {{channels: 3, h: {huge}, w: {huge}}}\nlayers:\n  - {{name: data, kind: input}}\n"
        "  - {name: c, kind: conv, inputs: [data], out_channels: 8, kernel_h: 1, kernel_w: 1}\n"
    )
    for args in (["analyze"], ["layers"], ["roofline", "--hw", str(hardware_dir / "p100.yaml")]):
        result = runner.invoke(main, [*args, str(path)])
        assert (result.exit_code, result.stdout) == (2, ""), result.output
        assert result.stderr.startswith(f"error: {path}: layer 'data': activations must be within float range, got 3000")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_hardware_spec())
def test_bad_number_in_a_hardware_peak_exits_2(tmp_path, model_dir, case):
    form, text = case
    path = tmp_path / f"hw.{form}"
    path.write_text(text)
    assert_exit_2(["roofline", "--hw", str(path), str(model_dir / "nin.yaml")])


class TestFloatOptions:
    """Every float option goes through one finiteness check before any command runs."""

    @pytest.fixture()
    def commands(self, model_dir, fixture_dir, hardware_dir):
        model = str(model_dir / "alexnet.yaml")
        profiles = ["--profiles", str(fixture_dir / "reference_metrics.csv")]
        measurements = ["--measurements", str(fixture_dir / "measurements.csv"), "--device", "P100"]
        return {
            "analyze": ["analyze", model],
            "calibrate": ["calibrate", *profiles, *measurements],
            "roofline": ["roofline", "--hw", str(hardware_dir / "p100.yaml"), "--mode", "converted", model],
        }

    @pytest.mark.parametrize(
        "command, option",
        [
            ("analyze", "--alpha"), ("analyze", "--tau-low"), ("analyze", "--tau-high"),
            ("calibrate", "--step"), ("calibrate", "--epsilon"),
            ("roofline", "--alpha"), ("roofline", "--bytes-per-element"), ("roofline", "--flops-per-mac"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_2(self, runner, commands, command, option, value):
        result = runner.invoke(main, commands[command] + [option, value])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {option} must be a finite number")

    def test_negative_epsilon_exits_2(self, runner, commands):
        # -1 fails nearly every `gain < epsilon` test, so calibrate used to select the argmax
        result = runner.invoke(main, commands["calibrate"] + ["--epsilon", "-1"])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: epsilon must be >= 0, got -1.0\n"

    def test_conversion_outside_float_range_exits_2(self, runner, commands):
        result = runner.invoke(main, commands["roofline"] + ["--bytes-per-element", "1e-300", "--flops-per-mac", "1e300"])
        assert result.exit_code == 2, result.output
        assert "float range" in result.stderr


class TestDeepNesting:
    """2,000 nested brackets used to end in a RecursionError traceback and exit 1."""

    def test_model_document_exits_2(self, runner, tmp_path):
        path = tmp_path / "nest.json"
        path.write_text("[" * 2000 + "]" * 2000)
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: document nests too deeply\n"

    def test_hardware_spec_exits_2(self, runner, tmp_path, model_dir):
        path = tmp_path / "nest_hw.yaml"
        path.write_text("[" * 2000 + "]" * 2000)
        result = runner.invoke(main, ["roofline", "--hw", str(path), str(model_dir / "nin.yaml")])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: document nests too deeply\n"


class TestLongValues:
    """An offending value is shown cut short, however large it is."""

    @pytest.fixture(autouse=True)
    def nested_list(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative file names keep the error line's length fixed
        value = 0
        for _ in range(900):  # under the JSON decoder's recursion limit, so the document loads
            value = [value]
        return value

    def exits_2_with_short_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and "[[[[[[[...]]]]]]]" in result.stderr
        assert len(result.stderr.rstrip("\n")) < 200, result.stderr

    def test_model_field(self, runner, nested_list):
        layers = [{"name": "d", "kind": "input"}]
        pathlib.Path("m.json").write_text(json.dumps({"input": {"channels": nested_list, "h": 4, "w": 4}, "layers": layers}))
        self.exits_2_with_short_error(runner, ["analyze", "m.json"])

    def test_layer_kind(self, runner, nested_list):
        layers = [{"name": "d", "kind": "input"}, {"name": "r", "kind": nested_list, "inputs": ["d"]}]
        pathlib.Path("k.json").write_text(json.dumps({"input": {"channels": 3, "h": 4, "w": 4}, "layers": layers}))
        self.exits_2_with_short_error(runner, ["analyze", "k.json"])

    def test_hardware_peak(self, runner, model_dir, nested_list):
        pathlib.Path("hw.json").write_text(json.dumps({"name": "x", "peak_flops": nested_list, "peak_bandwidth_bytes_per_s": 1e11}))
        self.exits_2_with_short_error(runner, ["roofline", "--hw", "hw.json", str(model_dir / "nin.yaml")])
