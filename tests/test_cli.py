"""End-to-end command behavior through click's test runner."""

from __future__ import annotations

import csv
import json
import pathlib

import click
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dnnreuse import layercost
from dnnreuse.cli import COUNT, ENERGY, RATIO, TEXT, _emit, main
from dnnreuse.graph import parse_model
from dnnreuse.metrics import CaseTag

from conftest import FIXTURES, NEGATIVE, assert_exit_2
from oracles import longhand_layer_costs

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


def measurements_with_alexnet_p100_row(tmp_path, fixture_dir, p_avg_w, i_t_ms) -> str:
    """Path of a copy of the bundled measurements whose alexnet,P100,1 row holds these two values."""
    text = (fixture_dir / "measurements.csv").read_text()
    path = tmp_path / "m.csv"
    path.write_text(text.replace("alexnet,P100,1,37.0,2.21,", f"alexnet,P100,1,{p_avg_w},{i_t_ms},", 1))
    assert path.read_text() != text
    return str(path)


POOL_ONLY = """\
input: {channels: 3, h: 8, w: 8}
layers:
  - {name: data, kind: input}
  - {name: p, kind: pool, inputs: [data], kernel_h: 2, kernel_w: 2, stride_h: 2, stride_w: 2}
"""


def profiles_without_weights_for(tmp_path, fixture_dir, model) -> str:
    """Path of a count-form profiles CSV of the bundled reference networks, in which `model` has no weights."""
    lines = ["model,macs,weights,activations"]
    for row in csv.DictReader((fixture_dir / "reference_metrics.csv").read_text().splitlines()):
        macs = float(row["macs"])
        weights = 0.0 if row["model"] == model else macs / float(row["mc_over_w"])
        lines.append(f"{row['model']},{macs!r},{weights!r},{macs / float(row['mc_over_a'])!r}")
    path = tmp_path / "profiles.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def one_conv_on_a_pixel(kernel: int, pad: int) -> str:
    """A JSON model: one conv of a `kernel` x `kernel` square, stride 1, from a 1x1x1 input to one channel."""
    conv = {"name": "c", "kind": "conv", "inputs": ["data"], "out_channels": 1, "kernel_h": kernel, "kernel_w": kernel}
    conv.update(stride_h=1, stride_w=1, pad_h=pad, pad_w=pad)
    return json.dumps({"input": {"channels": 1, "h": 1, "w": 1}, "layers": [{"name": "data", "kind": "input"}, conv]})


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

    def test_network_without_weights_is_named(self, runner, tmp_path, model_dir):
        nw = tmp_path / "nw.yaml"
        nw.write_text(POOL_ONLY)
        result = runner.invoke(main, ["analyze", str(model_dir / "alexnet.yaml"), str(nw)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: nw: weight reuse undefined: no weights\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_d_f_whose_numerator_leaves_float_range_is_printed(self, runner, tmp_path, fmt):
        # AI_c 9.0 and DI 3.4848e306 on a 3x3 output: d_f is -3.872e307, but 100 * (AI_c - DI) overflowed to -inf
        k = 44 * 10**152 + 1
        path = tmp_path / "wide.json"
        path.write_text(one_conv_on_a_pixel(k, (k + 1) // 2))
        out = run_ok(runner, ["analyze", str(path), "--format", fmt])
        if fmt == "json":
            (row,) = json.loads(out, parse_constant=refuse_non_finite)
        else:
            (row,) = csv.DictReader(out.splitlines())
        assert float(row["d_f"]) == pytest.approx(-3.872e307, rel=1e-12)

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

    def test_every_fixture_row_counts_as_longhand(self, runner, model_dir):
        # every layer kind reaches the renderer here: add, concat, fc, pool, and materialised relu and batchnorm
        paths = sorted(model_dir.glob("*.yaml"))
        assert len(paths) == 25
        for path in paths:
            want = longhand_layer_costs(path.read_text())
            rows = json.loads(run_ok(runner, ["layers", str(path), "--format", "json"]))["layers"]
            assert len(rows) == len(want), path.name
            for row in rows:
                assert list(row) == ["name", "kind", "macs", "weights", "activations", "ai"], (path.name, row)
                counts = (row["macs"], row["weights"], row["activations"])
                assert counts == want[row["name"]] and all(type(n) is int for n in counts), (path.name, row)
                assert (row["ai"] is None) == (row["macs"] == 0), (path.name, row)

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


def test_emit_csv_matches_the_row_wise_rendering(capsys):
    # trailer rows leave columns out; a None cell is empty; a str, a str-subclass enum included, is printed as it is,
    # whatever its column's format; an int in a RATIO column takes the format
    columns = {"name": TEXT, "kind": TEXT, "macs": COUNT, "ai": RATIO, "ops": ENERGY}
    rows = [
        {"name": "conv1", "kind": "conv", "macs": 1000, "ai": 0.5, "ops": 12345.678},
        {"name": "relu1", "kind": CaseTag.BALANCED, "macs": 0, "ai": None, "ops": None},
        {"name": "fc", "kind": "fc", "macs": 10**20, "ai": 3, "ops": 0.0},
        {"name": "a,b", "ai": "selected_alpha"},
        {"name": "median", "ai": 2.25},
        {"kind": CaseTag.ACTIVATIONS_SCARCE, "ops": 7},
    ]
    expected = (
        "name,kind,macs,ai,ops\n"
        "conv1,conv,1000,0.5000,1.235e+04\n"
        "relu1,Balanced,0,,\n"
        "fc,fc,100000000000000000000,3.0000,0.000e+00\n"
        '"a,b",,,selected_alpha,\n'
        "median,,,2.2500,\n"
        ",ActivationsScarce,,,7.000e+00\n"
    )
    _emit("csv", None, columns, rows)
    assert capsys.readouterr().out == expected
    _emit("csv", None, columns, [])
    assert capsys.readouterr().out == "name,kind,macs,ai,ops\n"


def test_each_layer_is_costed_once_per_command(runner, model_dir, monkeypatch):
    # building the graph costs each layer as it fixes its shape; no command costs a layer again
    path = model_dir / "googlenet.yaml"
    layer_count = len(parse_model(path.read_text()).layers)  # counted before the patch, since parsing costs too
    calls = []
    original = layercost.layer_cost
    monkeypatch.setattr(layercost, "layer_cost", lambda *args: calls.append(args[0].name) or original(*args))
    run_ok(runner, ["analyze", str(path)])
    run_ok(runner, ["layers", str(path)])
    assert len(calls) == 2 * layer_count


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

    @pytest.mark.parametrize(
        "p_avg_w, i_t_ms, code, message",
        [
            # valid cells whose energy p_avg_w * i_t_ms / 1000 rounds to 0 J
            ("1e-200", "1e-200", 2, "error: record 'alexnet': p_avg_w * i_t_ms (1e-200 * 1e-200) underflows to 0 J"),
            ("37.0", "5e-324", 2, "error: record 'alexnet': p_avg_w * i_t_ms (37.0 * 5e-324) underflows to 0 J"),
            # a nonzero energy small enough that the efficiency overflows to inf
            ("1e-300", "1e-10", 3, "error: record 'alexnet': batch * macs / energy (1 * 724406816.0 / 1e-313 J) overflows to inf"),
        ],
    )
    def test_tiny_measurement_exits_with_a_message(self, runner, tmp_path, fixture_dir, p_avg_w, i_t_ms, code, message):
        measurements = measurements_with_alexnet_p100_row(tmp_path, fixture_dir, p_avg_w, i_t_ms)
        result = runner.invoke(main, [
            "calibrate", "--profiles", str(fixture_dir / "reference_metrics.csv"),
            "--measurements", measurements, "--device", "P100",
        ])
        assert result.exit_code == code, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(message)

    def test_profile_without_weights_is_named(self, runner, tmp_path, fixture_dir):
        result = runner.invoke(main, [
            "calibrate", "--profiles", profiles_without_weights_for(tmp_path, fixture_dir, "nin"),
            "--measurements", str(fixture_dir / "measurements.csv"), "--device", "P100",
        ])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: nin: weight reuse undefined: no weights\n"

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

    def test_profile_whose_data_sum_leaves_float_range(self, runner, tmp_path, hardware_dir):
        # weights + activations leaves float range, but AI_c is 0.5, an intensity the roofline places
        profiles = tmp_path / "p.csv"
        profiles.write_text("model,macs,weights,activations\nx,1e308,1e308,1e308\n")
        out = run_ok(runner, ["roofline", "--hw", str(hardware_dir / "p100.yaml"), "--profiles", str(profiles)])
        assert out.splitlines()[1].startswith("model,x,0.5000,")

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

    @pytest.mark.parametrize(
        "batch, row", [(4, "alexnet,P100,4,50,2,224,224,1e308"), (1, "alexnet,P100,1,50,1e-320,224,224,")]
    )
    def test_measured_ops_beyond_float_range_exits_2(self, runner, tmp_path, hardware_dir, model_dir, batch, row):
        # batch * macs / i_t overflows to inf, which CSV printed as `inf` and JSON as a bare `Infinity`
        measurements = tmp_path / "m.csv"
        measurements.write_text("model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs\n" + row + "\n")
        result = runner.invoke(main, [
            "roofline", "--hw", str(hardware_dir / "p100.yaml"), "--batch", str(batch),
            "--measurements", str(measurements), "--format", "json", str(model_dir / "alexnet.yaml"),
        ])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == "error: measured operations per second of 'alexnet' must be a finite number, got inf\n"

    def test_latency_underflowing_to_zero_seconds_exits_2(self, runner, tmp_path, hardware_dir, fixture_dir):
        # i_t_ms is positive, but i_t_ms / 1000 rounds to 0 s
        measurements = measurements_with_alexnet_p100_row(tmp_path, fixture_dir, "37.0", "5e-324")
        result = runner.invoke(main, [
            "roofline", "--hw", str(hardware_dir / "p100.yaml"), "--profiles", str(fixture_dir / "reference_metrics.csv"),
            "--measurements", measurements, "--device", "P100",
        ])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == "error: measurement of 'alexnet': i_t_ms 5e-324 underflows to 0 s\n"

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


    def test_di_of_a_profile_without_weights_is_named(self, runner, tmp_path, hardware_dir, fixture_dir):
        profiles = profiles_without_weights_for(tmp_path, fixture_dir, "nin")
        args = ["roofline", "--hw", str(hardware_dir / "p100.yaml"), "--profiles", profiles]
        run_ok(runner, args)  # AI_c needs no weight reuse
        result = runner.invoke(main, args + ["--metric", "di"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: nin: weight reuse undefined: no weights\n"


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


INPUT_8x8 = "input: {channels: 3, h: 8, w: 8}\nlayers:\n  - {name: data, kind: input}\n"
THREE_PROFILES = "model,macs,weights,activations\nx,100,4,6\ny,200,5,5\nz,300,6,9\n"
MEASUREMENT_HEADER = "model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs\n"
P100 = "{fixtures}/hardware/p100.yaml"
WIDE_KERNEL = 134 * 10**152 + 1  # its square, the conv's weight count, is 1.7956e308
WIDE_MODEL = one_conv_on_a_pixel(WIDE_KERNEL, (WIDE_KERNEL - 1) // 2)
WIDE_REFUSAL = "model: d_f = 100 * (AI_c - DI) / AI_c leaves float range: AI_c 1.0, DI 1.7956000000000002e+307"
# (arguments, files written under their keys, exit code, error line); {key} names a file's path, {fixtures} the bundle
REFUSALS = {
    "no-macs-disparity": (
        ["analyze", "{model}"],
        {"model": "name: bn\n" + INPUT_8x8 + "  - {name: bn, kind: batchnorm, inputs: [data], in_place: false}\n"},
        3, "bn: disparity undefined at AI_c = 0",
    ),
    # AI_c 1.0 and DI 1.7956e307 on a 1x1 output: d_f is about -1.8e309, once printed as -inf and -Infinity
    "d_f-beyond-float-range": (["analyze", "{model}"], {"model": WIDE_MODEL}, 3, WIDE_REFUSAL),
    "d_f-beyond-float-range-json": (["analyze", "{model}", "--format", "json"], {"model": WIDE_MODEL}, 3, WIDE_REFUSAL),
    "constant-efficiency": (
        ["calibrate", "--profiles", "{profiles}", "--measurements", "{measurements}"],
        {"profiles": THREE_PROFILES, "measurements": MEASUREMENT_HEADER + "".join(
            f"{model},P100,1,30,2.0,224,224,1000\n" for model in "xyz")},
        3, "correlation undefined on a zero-variance series",
    ),
    "concat-spatial": (
        ["analyze", "{model}"],
        {"model": INPUT_8x8 + "  - {name: p, kind: pool, inputs: [data], kernel_h: 2, kernel_w: 2, stride_h: 2, stride_w: 2}\n"
                              "  - {name: cat, kind: concat, inputs: [data, p]}\n"},
        2, "{model}: layer 'cat': concat operands disagree on spatial dims",
    ),
    "name-not-text": (
        ["analyze", "{model}"], {"model": "name: 5\n" + INPUT_8x8}, 2, "{model}: top-level `name` must be a non-empty string",
    ),
    "no-layers": (
        ["analyze", "{model}"],
        {"model": "input: {channels: 3, h: 8, w: 8}\nlayers: []\n"},
        2, "{model}: top-level `layers` must be a non-empty list",
    ),
    "no-device": (
        ["calibrate", "--profiles", "{fixtures}/reference_metrics.csv", "--measurements", "{fixtures}/measurements.csv"],
        {}, 2, "ambiguous measurements for model 'alexnet' (multiple devices?); pass --device to disambiguate",
    ),
    "measurement-blank-model": (
        ["calibrate", "--profiles", "{profiles}", "--measurements", "{measurements}"],
        {"profiles": THREE_PROFILES, "measurements": MEASUREMENT_HEADER + ",P100,1,30,2.0,224,224,1000\n"},
        2, "{measurements}: row 2: model and device must be non-empty",
    ),
    "profiles-no-model-column": (
        ["roofline", "--hw", P100, "--profiles", "{profiles}"],
        {"profiles": "name,macs,weights,activations\nx,100,4,6\n"}, 2, "{profiles}: profile CSV needs a 'model' column",
    ),
    # a ValueError inside load_profiles, once reported as a bad value with exit 2
    "profiles-degenerate-row": (
        ["calibrate", "--profiles", "{profiles}", "--measurements", "{fixtures}/measurements.csv", "--device", "P100"],
        {"profiles": "model,macs,weights,activations\na,0,0,0\n"}, 3, "a: network has no weights or activations",
    ),
    "profiles-header-only": (
        ["roofline", "--hw", P100, "--profiles", "{profiles}"],
        {"profiles": "model,macs,weights,activations\n"}, 2, "{profiles}: no profile rows",
    ),
    "profiles-blank-model": (
        ["roofline", "--hw", P100, "--profiles", "{profiles}"],
        {"profiles": "model,macs,weights,activations\n,100,4,6\n"}, 2, "{profiles}: row 2: empty model name",
    ),
    # a reuse quotient beyond float range, once placed as an intensity of inf that the row never held
    "profiles-quotient-beyond-float-range": (
        ["roofline", "--hw", P100, "--profiles", "{profiles}"],
        {"profiles": "model,macs,weights,activations\nx,1e308,0,1e-10\n"},
        2, "{profiles}: row 2: bad value for 'x': macs / activations leaves float range: 1e+308 / 1e-10",
    ),
    # a zero intensity, once refused without naming the row that held it
    "profiles-zero-intensity": (
        ["roofline", "--hw", P100, "--profiles", "{profiles}"],
        {"profiles": "model,macs,weights,activations\nfine,100,4,6\nzero,0,10,10\n"},
        2, "intensity of 'zero' must be positive, got 0.0",
    ),
    "profiles-weights-quotient-beyond-float-range": (
        ["roofline", "--hw", P100, "--profiles", "{profiles}"],
        {"profiles": "model,macs,weights,activations\nx,1e308,1e-10,0\n"},
        2, "{profiles}: row 2: bad value for 'x': macs / weights leaves float range: 1e+308 / 1e-10",
    ),
}


@pytest.mark.parametrize("args, files, code, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_prints_only_its_error_line(runner, tmp_path, fixture_dir, args, files, code, message):
    paths = {"fixtures": fixture_dir}
    for key, text in files.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text)
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert (result.exit_code, result.stdout) == (code, ""), result.output
    assert result.stderr == f"error: {message.format(**paths)}\n"


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


FLOAT_OPTIONS = [
    (name, param.opts[0]) for name, command in main.commands.items() for param in command.params
    if param.type is click.FLOAT
]


@st.composite
def float_option(draw):
    """(command, option, value) for any float option of any command."""
    command, option = draw(st.sampled_from(FLOAT_OPTIONS))
    return command, option, draw(st.floats())


def refuse_non_finite(constant):
    raise AssertionError(f"JSON output holds {constant}")


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
            "roofline": [
                "roofline", "--hw", str(hardware_dir / "p100.yaml"), "--mode", "converted", *measurements, "--batch", "4", model,
            ],
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

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=float_option())
    @example(case=("calibrate", "--step", 5e-324))
    def test_any_value_exits_0_2_or_3_and_prints_only_finite_json(self, commands, case):
        command, option, value = case
        result = CliRunner().invoke(main, commands[command] + [option, repr(value), "--format", "json"])
        assert result.exit_code in (0, 2, 3), (case, result.output, result.exception)
        if result.exit_code:
            assert result.stdout == ""
            assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        else:
            json.loads(result.stdout, parse_constant=refuse_non_finite)


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


def data_rows(path: pathlib.Path) -> tuple[bytes, list[bytes]]:
    """(header line, data lines) of a CSV file, each line with its own ending."""
    header, *rows = path.read_bytes().splitlines(keepends=True)
    return header, rows


def models_in_file_order(roofline_output: str, fmt: str, order: list[str]) -> str:
    """A roofline report with its model rows put in `order`, its envelope rows left as they are."""
    if fmt == "json":
        doc = json.loads(roofline_output)
        by_label = {point["label"]: point for point in doc["points"]}
        doc["points"] = [by_label[model] for model in order]
        return json.dumps(doc, indent=2) + "\n"
    header, *rows = roofline_output.splitlines(keepends=True)
    by_label = {row.split(",")[1]: row for row in rows if row.startswith("model,")}
    return header + "".join(by_label[model] for model in order) + "".join(row for row in rows if row.startswith("envelope,"))


class TestCsvRowOrder:
    """Shuffling the data rows of a CSV input changes no report, except that roofline's model rows follow --profiles."""

    PROFILES = data_rows(FIXTURES / "reference_metrics.csv")
    MEASUREMENTS = data_rows(FIXTURES / "measurements.csv")
    # {profiles} and {measurements} stand for the two CSV paths
    COMMANDS = {
        "calibrate": ["calibrate", "--profiles", "{profiles}", "--measurements", "{measurements}", "--device", "P4000", "--batch", "4"],
        "stats": ["stats", "{profiles}", "--x", "di", "--y", "ai_c"],
        "roofline": [
            "roofline", "--hw", str(FIXTURES / "hardware" / "p100.yaml"), "--profiles", "{profiles}",
            "--measurements", "{measurements}", "--device", "P100", "--batch", "4", "--metric", "di",
        ],
    }

    def report(self, command: str, fmt: str, profiles, measurements) -> str:
        args = [arg.format(profiles=profiles, measurements=measurements) for arg in self.COMMANDS[command]]
        return run_ok(CliRunner(), [*args, "--format", fmt])

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profile_rows=st.permutations(PROFILES[1]), measurement_rows=st.permutations(MEASUREMENTS[1]))
    def test_reports_under_shuffled_rows(self, tmp_path, profile_rows, measurement_rows):
        profiles, measurements = FIXTURES / "reference_metrics.csv", FIXTURES / "measurements.csv"
        shuffled_profiles, shuffled_measurements = tmp_path / "profiles.csv", tmp_path / "measurements.csv"
        shuffled_profiles.write_bytes(self.PROFILES[0] + b"".join(profile_rows))
        shuffled_measurements.write_bytes(self.MEASUREMENTS[0] + b"".join(measurement_rows))
        order = [row.split(b",", 1)[0].decode() for row in profile_rows]
        for fmt in ("csv", "json"):
            for command in ("calibrate", "stats"):
                original = self.report(command, fmt, profiles, measurements)
                assert self.report(command, fmt, shuffled_profiles, shuffled_measurements) == original, (command, fmt)
            original = self.report("roofline", fmt, profiles, measurements)
            assert self.report("roofline", fmt, profiles, shuffled_measurements) == original, fmt
            shuffled = self.report("roofline", fmt, shuffled_profiles, shuffled_measurements)
            assert shuffled == models_in_file_order(original, fmt, order), fmt


SERIES = [("P100", "1"), ("P100", "4"), ("P4000", "1"), ("P4000", "4")]


def calibrate_reports(measurements, profiles=FIXTURES / "reference_metrics.csv") -> dict:
    """(device, batch, format) -> calibrate's stdout on each of the four measured series."""
    return {
        (device, batch, fmt): run_ok(CliRunner(), [
            "calibrate", "--profiles", str(profiles), "--measurements", str(measurements),
            "--device", device, "--batch", batch, "--format", fmt,
        ])
        for device, batch in SERIES
        for fmt in ("csv", "json")
    }


def rewritten_csv(source: pathlib.Path, path: pathlib.Path, change) -> pathlib.Path:
    """Write `source` to `path` with `change(cells)` applied to each data row's dict of cells; return `path`."""
    header, *rows = csv.reader(source.read_text().splitlines())
    lines = [header]
    for row in rows:
        cells = dict(zip(header, row))
        change(cells)
        lines.append([cells[name] for name in header])
    path.write_text("".join(",".join(line) + "\n" for line in lines))
    return path


@pytest.fixture(scope="module")
def bundled_reports() -> dict:
    return calibrate_reports(FIXTURES / "measurements.csv")


def without_r_p(calibrate_json: str) -> dict:
    doc = json.loads(calibrate_json)
    return {**doc, "points": [{k: v for k, v in point.items() if k != "r_p"} for point in doc["points"]]}


class TestMeasurementScale:
    """Rescaling measured power or latency moves no selected alpha; rescaling by a power of two moves no bit."""

    @staticmethod
    def rescaled(tmp_path, power, latency) -> pathlib.Path:
        def change(cells):
            cells["p_avg_w"] = repr(power(float(cells["p_avg_w"])))
            cells["i_t_ms"] = repr(latency(float(cells["i_t_ms"])))

        return rewritten_csv(FIXTURES / "measurements.csv", tmp_path / "measurements.csv", change)

    @pytest.mark.parametrize("power, latency", [
        (lambda p: p * 1024, lambda t: t),
        (lambda p: p, lambda t: t * 2**-10),
        (lambda p: p * 2**7, lambda t: t * 2**3),
    ], ids=["power-x1024", "latency-x2^-10", "power-x2^7-latency-x2^3"])
    def test_power_of_two_is_byte_identical(self, tmp_path, bundled_reports, power, latency):
        assert calibrate_reports(self.rescaled(tmp_path, power, latency)) == bundled_reports

    @pytest.mark.parametrize("power, latency", [
        (lambda p: p * 3, lambda t: t),
        (lambda p: p * 1000, lambda t: t / 1000),
    ], ids=["power-x3", "power-x1000-latency-/1000"])
    def test_other_factor_moves_only_r_p_and_that_by_rounding(self, tmp_path, bundled_reports, power, latency):
        reports = calibrate_reports(self.rescaled(tmp_path, power, latency))
        for (device, batch, fmt), expected in bundled_reports.items():
            got = reports[device, batch, fmt]
            if fmt == "csv":
                assert got == expected, (device, batch)
                continue
            assert without_r_p(got) == without_r_p(expected), (device, batch)
            # r_p lies in [-1, 1], so a few ulp of 1.0 bound its rounding
            r_p = [[point["r_p"] for point in json.loads(report)["points"]] for report in (got, expected)]
            assert r_p[0] == pytest.approx(r_p[1], rel=0, abs=4 * 2**-52), (device, batch)


MODEL_NAMES = sorted(row[0] for row in csv.reader((FIXTURES / "reference_metrics.csv").read_text().splitlines()[1:]))


class TestRenamedModels:
    """Renaming the models in both CSV inputs, by a map that reverses their sort order, changes only roofline's labels."""

    NEW_NAME = {name: f"net{len(MODEL_NAMES) - i:02d}" for i, name in enumerate(MODEL_NAMES)}
    OLD_NAME = {new: old for old, new in NEW_NAME.items()}
    ROOFLINE = ["roofline", "--hw", str(FIXTURES / "hardware" / "p100.yaml"), "--device", "P100", "--batch", "4", "--metric", "di"]

    @pytest.fixture(scope="class")
    def renamed(self, tmp_path_factory) -> tuple[pathlib.Path, pathlib.Path]:
        """(profiles, measurements) paths of the bundled CSVs with every model renamed."""
        tmp = tmp_path_factory.mktemp("renamed")

        def change(cells):
            cells["model"] = self.NEW_NAME[cells["model"]]

        return tuple(rewritten_csv(FIXTURES / name, tmp / name, change) for name in ("reference_metrics.csv", "measurements.csv"))

    def old_labels(self, roofline_output: str, fmt: str) -> str:
        """A roofline report with each renamed model's label turned back into its original name."""
        if fmt == "json":
            doc = json.loads(roofline_output)
            for point in doc["points"]:
                point["label"] = self.OLD_NAME[point["label"]]
            return json.dumps(doc, indent=2) + "\n"
        rows = [row.split(",", 2) for row in roofline_output.splitlines(keepends=True)]
        return "".join(",".join([kind, self.OLD_NAME[label] if kind == "model" else label, rest]) for kind, label, rest in rows)

    def test_calibrate_and_stats_are_byte_identical(self, renamed, bundled_reports):
        profiles, measurements = renamed
        assert calibrate_reports(measurements, profiles) == bundled_reports
        for fmt in ("csv", "json"):
            args = ["--x", "di", "--y", "ai_c", "--format", fmt]
            original = run_ok(CliRunner(), ["stats", str(FIXTURES / "reference_metrics.csv"), *args])
            assert run_ok(CliRunner(), ["stats", str(profiles), *args]) == original, fmt

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roofline_differs_only_in_its_labels(self, renamed, fmt):
        profiles, measurements = renamed
        original = run_ok(CliRunner(), [
            *self.ROOFLINE, "--profiles", str(FIXTURES / "reference_metrics.csv"),
            "--measurements", str(FIXTURES / "measurements.csv"), "--format", fmt,
        ])
        got = run_ok(CliRunner(), [*self.ROOFLINE, "--profiles", str(profiles), "--measurements", str(measurements), "--format", fmt])
        assert got != original
        assert self.old_labels(got, fmt) == original


@pytest.fixture(scope="module")
def json_models(tmp_path_factory) -> pathlib.Path:
    """Directory holding each fixture network as JSON, `json.dumps` of its safe-loaded YAML, under its own stem."""
    tmp = tmp_path_factory.mktemp("json-models")
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # the same document, read faster where libyaml is built
    for path in (FIXTURES / "models").glob("*.yaml"):
        (tmp / f"{path.stem}.json").write_text(json.dumps(yaml.load(path.read_text(), Loader=loader)))
    return tmp


@pytest.mark.parametrize("stem", sorted(path.stem for path in (FIXTURES / "models").glob("*.yaml")))
def test_network_as_yaml_and_as_json_prints_the_same(json_models, stem):
    commands = [
        ["analyze"], ["analyze", "--format", "json"], ["layers"], ["layers", "--format", "json"],
        ["roofline", "--hw", str(FIXTURES / "hardware" / "p100.yaml")],
    ]
    for command in commands:
        as_yaml = run_ok(CliRunner(), [*command, str(FIXTURES / "models" / f"{stem}.yaml")])
        assert run_ok(CliRunner(), [*command, str(json_models / f"{stem}.json")]) == as_yaml, command


BOM = "\ufeff".encode()


def with_bom(source: pathlib.Path, directory: pathlib.Path) -> pathlib.Path:
    """Path of a copy of `source`, under the same name in `directory`, that begins with a UTF-8 byte-order mark."""
    path = directory / source.name
    path.write_bytes(BOM + source.read_bytes())
    return path


class TestByteOrderMark:
    """An input file that begins with a UTF-8 byte-order mark, as spreadsheet tools save "CSV UTF-8", reads as one without it."""

    CALIBRATE = ["calibrate", "--profiles", "{profiles}", "--measurements", "{measurements}", "--device", "P100", "--batch", "4"]
    ROOFLINE = ["roofline", "--hw", "{hw}", "--profiles", "{profiles}", "--measurements", "{measurements}", "--device", "P100"]
    # name -> (command, the input whose copy begins with the mark); {table} is a stats table whose first column is a number
    CASES = {
        "calibrate-profiles": (CALIBRATE, "profiles"),
        "calibrate-measurements": (CALIBRATE, "measurements"),
        "stats-first-column": (["stats", "{table}", "--x", "x", "--y", "y"], "table"),
        "roofline-profiles": (ROOFLINE, "profiles"),
        "roofline-measurements": (ROOFLINE, "measurements"),
        "roofline-hardware": (ROOFLINE, "hw"),
        "analyze-yaml": (["analyze", "{yaml}"], "yaml"),
        "analyze-json": (["analyze", "{json}"], "json"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", CASES)
    def test_prints_the_same_as_without_it(self, tmp_path, json_models, case, fmt):
        table = tmp_path / "table.csv"
        table.write_text("x,y,model\n1,2.5,a\n2,3.1,b\n3,2.9,c\n4,5.0,d\n5,4.4,e\n")
        inputs = {
            "profiles": FIXTURES / "reference_metrics.csv", "measurements": FIXTURES / "measurements.csv",
            "hw": FIXTURES / "hardware" / "p100.yaml", "table": table,
            "yaml": FIXTURES / "models" / "nin.yaml", "json": json_models / "nin.json",
        }
        command, marked = self.CASES[case]
        (tmp_path / "bom").mkdir()
        results = []
        for files in (inputs, {**inputs, marked: with_bom(inputs[marked], tmp_path / "bom")}):
            result = CliRunner().invoke(main, [*(arg.format(**files) for arg in command), "--format", fmt])
            results.append((result.exit_code, result.stdout))
        assert results[1] == results[0]
        assert results[0][0] == 0, results[0]


def effective_alpha(alpha: float, batch: int) -> tuple[float, float]:
    """(k, alpha_B): DI of a batch-B profile at alpha is k times DI of its batch-1 profile at alpha_B.

    Batch B multiplies M/W by B and leaves M/A as it is, so with k = alpha + B(1 - alpha)
    and alpha_B = alpha / k, (alpha * M/A + B(1 - alpha) * M/W) / 4 = k (alpha_B * M/A + (1 - alpha_B) * M/W) / 4.
    """
    k = alpha + batch * (1 - alpha)
    return k, alpha / k


ULP = 2**-52


class TestBatchIdentity:
    """A batch-B report at alpha is the batch-1 report at the effective alpha alpha_B: DI scaled by k, r_p unchanged."""

    @staticmethod
    def analyze(json_models, *options) -> str:
        """analyze's stdout on every fixture network, read from its JSON copy (faster to parse than the YAML)."""
        return run_ok(CliRunner(), ["analyze", *sorted(map(str, json_models.glob("*.json"))), *options])

    @pytest.mark.parametrize("alpha, batch", [(0.8, 4), (0.75, 3), (0.9, 9), (0.6, 2), (0.3, 7)])
    def test_analyze_di_is_k_times_di_at_the_effective_alpha(self, json_models, alpha, batch):
        k, alpha_b = effective_alpha(alpha, batch)
        batched = json.loads(self.analyze(json_models, "--batch", str(batch), "--alpha", repr(alpha), "--format", "json"))
        single = json.loads(self.analyze(json_models, "--alpha", repr(alpha_b), "--format", "json"))
        assert [row["model"] for row in batched] == [row["model"] for row in single]
        assert len(batched) == 25
        for got, expected in zip(batched, single):
            assert got["activation_reuse"] == expected["activation_reuse"], got["model"]
            assert got["di"] == pytest.approx(k * expected["di"], rel=4 * ULP, abs=0), got["model"]

    @pytest.mark.parametrize("batch", [3, 4])
    def test_calibrate_r_p_at_alpha_is_batch_1_r_p_at_the_effective_alpha(self, tmp_path, json_models, batch):
        profiles = {}
        for b in (1, batch):
            profiles[b] = tmp_path / f"profiles-{b}.csv"
            profiles[b].write_text(self.analyze(json_models, "--batch", str(b)))
        pairs = 0
        for device, series_batch in SERIES:
            curves = {
                b: {point["alpha"]: point["r_p"] for point in json.loads(run_ok(CliRunner(), [
                    "calibrate", "--profiles", str(path), "--measurements", str(FIXTURES / "measurements.csv"),
                    "--device", device, "--batch", series_batch, "--format", "json",
                ]))["points"]}
                for b, path in profiles.items()
            }
            for alpha, r_p in curves[batch].items():
                alpha_b = effective_alpha(alpha, batch)[1]
                on_grid = [a for a in curves[1] if abs(a - alpha_b) < 1e-9]
                if on_grid:
                    pairs += 1
                    assert r_p == pytest.approx(curves[1][on_grid[0]], rel=0, abs=4 * ULP), (device, series_batch, alpha)
        # the pairs (alpha, alpha_B) on the default grid: 0 and 1 to themselves, and (0.5, 0.2) and (0.8, 0.5) at batch 4,
        # (0.25, 0.1), (0.5, 0.25), (0.75, 0.5) and (0.9, 0.75) at batch 3
        assert pairs == 4 * {3: 6, 4: 4}[batch]
