"""Tests of the benchmark's generators and independent checkers.

    python3 -m pytest perfbench/tests -q

The checkers must agree with numbers worked by hand, must accept what
today's dnnreuse prints, and must reject an output with one corrupted
value, so that a check can fail.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402
import run  # noqa: E402
from run import Runner  # noqa: E402

from dnnreuse.cli import main  # noqa: E402

# input 2x4x4 -> conv 3x3 pad 1 to 4 channels -> relu in place -> fc 10
TINY = {
    "name": "tiny",
    "input": {"channels": 2, "h": 4, "w": 4},
    "layers": [
        {"name": "data", "kind": "input"},
        {"name": "c1", "kind": "conv", "inputs": ["data"], "out_channels": 4, "kernel_h": 3, "kernel_w": 3,
         "stride_h": 1, "stride_w": 1, "pad_h": 1, "pad_w": 1, "groups": 1},
        {"name": "r1", "kind": "relu", "inputs": ["c1"]},
        {"name": "fc", "kind": "fc", "inputs": ["r1"], "out_features": 10},
    ],
}
# worked by hand: conv weights 2*9*4 = 72, macs 72*16 = 1152, ifmap 32 + ofmap 64;
# fc 64*10 = 640 macs and weights; produced tensors 32 + 64 + 10 (relu aliases c1);
# live elements per step 32, 96, 64, 74
TINY_COUNTS = {"macs": 1792, "weights": 712, "activations": 106, "peak_concurrent": 96}
TINY_ROWS = [(0, 0, 32, None), (1152, 72, 96, 1152 / 136), (0, 0, 0, None), (640, 640, 74, 640 / 650)]

# (M/W, M/A, macs) and one P100 batch-1 row each: (P_avg W, I_t ms, macs column)
TRIO = {"a": (100.0, 100.0, 1e9), "b": (50.0, 20.0, 2e9), "c": (200.0, 5.0, 4e9)}
TRIO_RUNS = {"a": (50, 10, "1000000000"), "b": (40, 50, "2000000000"), "c": (100, 80, "")}


def run_cli(*commands):
    runner = Runner([list(map(str, c)) for c in commands], main)
    _, outputs = runner.warm()
    assert runner.failed == 0
    return outputs


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture
def trio(tmp_path):
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("model,mc_over_w,mc_over_a,macs\n" + "".join(
        f"{m},{wr},{ar},{int(macs)}\n" for m, (wr, ar, macs) in TRIO.items()))
    measurements = tmp_path / "measurements.csv"
    measurements.write_text("model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs\n" + "".join(
        f"{m},P100,1,{p},{t},224,224,{macs}\n" for m, (p, t, macs) in TRIO_RUNS.items()))
    return profiles, measurements


def corrupt_csv(text, row, column, change):
    lines = [line.split(",") for line in text.splitlines()]
    col = lines[0].index(column)
    lines[row][col] = change(lines[row][col])
    return "\n".join(",".join(line) for line in lines) + "\n"


# ---------------------------------------------------------------- seeds


def test_deep_generator_repeats_its_bytes_for_a_seed():
    docs = [json.dumps(workloads.deep_model("d", 300, random.Random(s)).doc) for s in ("x", "x", "y")]
    assert docs[0] == docs[1] != docs[2]


def test_population_generator_repeats_its_bytes_for_a_seed():
    assert workloads.population_tables(3, 50) == workloads.population_tables(3, 50)
    assert workloads.population_tables(3, 50) != workloads.population_tables(4, 50)


# ---------------------------------------------------------------- graphs


def test_count_document_matches_hand_counts():
    counts = oracle.count_document(TINY, "fallback")
    assert {k: counts[k] for k in TINY_COUNTS} == TINY_COUNTS
    assert [(r["macs"], r["weights"], r["activations"], r["ai"]) for r in counts["rows"]] == TINY_ROWS
    assert counts["ai_median"] == pytest.approx((1152 / 136 + 640 / 650) / 2)
    assert counts["ai_variance"] == pytest.approx(((1152 / 136 - 640 / 650) / 2) ** 2)


def test_generator_counts_match_hand_counts():
    g = workloads.SyntheticNet("tiny", 2, 4)
    c1 = g.conv("data", 4, 3)
    g.fc(g.add("r1", "relu", [c1], g.shapes[c1], 0, 0, aliased=True), 10)
    counts = g.counts()
    assert {k: counts[k] for k in TINY_COUNTS} == TINY_COUNTS
    assert [(r["macs"], r["weights"], r["activations"], r["ai"]) for r in counts["rows"]] == TINY_ROWS


def test_generator_and_document_counter_agree_on_a_deep_model():
    g = workloads.deep_model("deep", 400, random.Random(7))
    want = g.counts()
    got = oracle.count_document(json.loads(json.dumps(g.doc)), "deep")
    assert got == want
    assert {"add", "concat", "pool", "fc"} <= {layer["kind"] for layer in g.doc["layers"]}
    assert any(layer.get("groups", 1) > 1 for layer in g.doc["layers"])
    assert {True, False} <= {layer.get("in_place") for layer in g.doc["layers"]}


def test_analyze_checkers_accept_the_program_and_reject_one_mac_off(tiny):
    counts = [oracle.count_document(TINY, "tiny")]
    text, as_json = run_cli(["analyze", tiny], ["analyze", "--format", "json", tiny])
    oracle.check_analyze_csv(text, counts)
    oracle.check_analyze_json(as_json, counts)
    with pytest.raises(CheckError, match="macs"):
        oracle.check_analyze_csv(corrupt_csv(text, 1, "macs", lambda v: str(int(v) + 1)), counts)
    with pytest.raises(CheckError, match="macs"):
        oracle.check_analyze_json(as_json.replace('"macs": 1792', '"macs": 1793'), counts)
    with pytest.raises(CheckError, match="published"):
        oracle.check_analyze_csv(text, counts, {"tiny": 1791})


def test_layers_checker_accepts_the_program_and_rejects_one_mac_off(tiny):
    want = oracle.count_document(TINY, "tiny")
    (text,) = run_cli(["layers", tiny])
    oracle.check_layers_csv(text, want)
    with pytest.raises(CheckError, match="c1.macs"):
        oracle.check_layers_csv(corrupt_csv(text, 2, "macs", lambda v: str(int(v) + 1)), want)


def test_zoo_units_print_the_rows_of_the_checked_table():
    zoo = workloads.Zoo(0)
    zoo.models = [m for m in zoo.models if pathlib.Path(m).stem in ("alexnet", "nin", "squeezenet-v1.1")]
    units = zoo.units(run_cli(*zoo.commands()))
    assert [args for args, _ in units] == [["analyze", m] for m in zoo.models]
    for args, want in units:
        assert run_cli(args) == [want]


def test_sequence_child_prints_what_the_in_process_pass_printed(tiny):
    commands = [["analyze", str(tiny)], ["layers", str(tiny)]]
    outputs = run_cli(*commands)
    runner = Runner(commands, main)
    assert run.sequence_rss(runner, outputs) > 0
    assert (runner.attempted, runner.failed) == (2, 0)
    with pytest.raises(run.MismatchError):
        run.sequence_rss(runner, [outputs[0], outputs[1] + "x"])


def test_reference_ratio_checks_the_output(tiny):
    (want,) = run_cli(["analyze", tiny])
    runner = Runner([], main)
    seconds, ratio = run.reference_ratio(runner, ["analyze", str(tiny)], want)
    assert seconds > 0 and ratio > 0
    with pytest.raises(run.MismatchError):
        run.reference_ratio(runner, ["analyze", str(tiny)], want + "x")


def test_peak_live_aliases_in_place_steps():
    steps = [("x", [], False, 5), ("r", ["x"], True, 5), ("y", ["r"], False, 7), ("z", ["x", "y"], False, 1)]
    # x lives through z, since r aliases it and z reads it: 5, 5, 12, 13
    assert oracle.peak_live(steps) == 13


# ----------------------------------------------------------- populations


def test_hand_worked_population_quantities(trio):
    profiles = oracle.profile_table(trio[0].read_text())
    eff = oracle.efficiencies(profiles, trio[1].read_text(), "P100", 1)
    assert eff == {"a": 2e9, "b": 1e9, "c": 5e8}
    assert oracle.average_ranks([3.0, 1.0, 3.0, 2.0]) == [3.5, 1.0, 3.5, 2.0]
    # DI at alpha 0 is M/W / 4 = 25, 12.5, 50 (ranks 2, 1, 3); at alpha 1 it is M/A / 4 = 25, 5, 1.25
    assert oracle.correlations([25, 12.5, 50], [2e9, 1e9, 5e8])[1] == pytest.approx(-0.5)
    assert oracle.correlations([25, 5, 1.25], [2e9, 1e9, 5e8]) == pytest.approx((0.98274, 1.0), abs=1e-5)
    assert oracle.plateau_alpha([(0.0, 0.1), (0.5, 0.2), (1.0, 0.2001)], 0.005) == 0.5
    assert oracle.plateau_alpha([(0.0, 0.1), (0.5, 0.2), (1.0, 0.3)], 0.005) == 1.0


def test_calibrate_checker_accepts_the_program_and_rejects_a_moved_alpha(trio):
    profiles_path, measurements_path = trio
    profiles, measurements = oracle.profile_table(profiles_path.read_text()), measurements_path.read_text()
    (text,) = run_cli(["calibrate", "--profiles", profiles_path, "--measurements", measurements_path,
                       "--device", "P100", "--format", "json"])
    oracle.check_calibrate_json(text, profiles, measurements, "P100", 1)
    got = json.loads(text)
    for step in (-0.05, 0.05):
        moved = dict(got, selected_alpha=round(got["selected_alpha"] + step, 10))
        with pytest.raises(CheckError, match="selected alpha"):
            oracle.check_calibrate_json(json.dumps(moved), profiles, measurements, "P100", 1)


def test_roofline_checker_accepts_the_program_and_rejects_a_swapped_verdict(trio):
    profiles_path, measurements_path = trio
    hw = workloads.ROOT / "fixtures" / "hardware" / "p100.yaml"
    profiles, measurements = oracle.profile_table(profiles_path.read_text()), measurements_path.read_text()
    (text,) = run_cli(["roofline", "--hw", hw, "--profiles", profiles_path, "--measurements", measurements_path,
                       "--device", "P100"])
    # ridge 9.3e12 / 549e9 = 16.94; AI_c = 50, 14.29, 4.88
    assert [row["bound"] for row in oracle.csv_rows(text) if row["row"] == "model"] == [
        "ComputeBound", "MemoryBound", "MemoryBound"]
    # measured throughput 1e9 / 0.010 s, 2e9 / 0.050 s, 4e9 / 0.080 s
    assert [float(row["measured_ops"]) for row in oracle.csv_rows(text) if row["row"] == "model"] == [1e11, 4e10, 5e10]
    oracle.check_roofline_csv(text, hw.read_text(), profiles, measurements, "P100", 1)
    swapped = text.replace("ComputeBound", "SWAP").replace("MemoryBound", "ComputeBound", 1).replace("SWAP", "MemoryBound")
    with pytest.raises(CheckError, match="expected"):
        oracle.check_roofline_csv(swapped, hw.read_text(), profiles, measurements, "P100", 1)


def test_stats_checker_matches_hand_fisher_interval_and_rejects_a_shifted_r(tmp_path):
    table = tmp_path / "xy.csv"
    table.write_text("x,y\n1,2\n2,1\n3,4\n4,3\n5,5\n")
    (text,) = run_cli(["stats", "--x", "x", "--y", "y", "--format", "json", table])
    oracle.check_stats_json(text, table.read_text(), "x", "y")
    got = json.loads(text)
    # deviations (-2,-1,0,1,2) and (-1,-2,1,0,2): r = 8 / 10; ranks equal the values, so r_s = 0.8 too
    assert (got["r_p"], got["r_s"]) == pytest.approx((0.8, 0.8))
    # tanh(atanh(0.8) -/+ 1.96 / sqrt(2))
    ci = got["intervals"]["r_p_ci95"]
    assert (ci["lower"], ci["upper"]) == pytest.approx((-0.2796635, 0.9861969), abs=1e-7)
    with pytest.raises(CheckError, match="r_p"):
        oracle.check_stats_json(json.dumps(dict(got, r_p=got["r_p"] + 1e-6)), table.read_text(), "x", "y")
