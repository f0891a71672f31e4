"""The benchmark's workloads: seeded inputs, CLI command sequences, checks.

A workload is built from a seed and writes its inputs under
perfbench/out/. Its commands() are the dnnreuse CLI argument lists a user
would run on them, and check(outputs) raises oracle.CheckError unless
each command's stdout is right (see oracle.py). units(outputs) are the
commands run.py times in process, each with the stdout it must print.
The deep generator counts each layer as it builds it, so the deep checks
need no second parse.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import statistics

from oracle import check_analyze_csv, check_analyze_json, check_calibrate_json, check_layers_csv
from oracle import check_roofline_csv, check_stats_json, count_document, csv_rows, load_document, peak_live, profile_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = pathlib.Path("perfbench") / "out"
FIXTURES = pathlib.Path("fixtures")

DEEP_LAYERS = (2400,)
POPULATION = 2000
SERIES = (("P100", 1), ("P100", 4), ("P4000", 1), ("P4000", 4))
HARDWARE = (("p100", "P100"), ("p4000", "P4000"))


def _read(path) -> str:
    return (ROOT / path).read_text(encoding="utf-8")


def _write(path: pathlib.Path, text: str):
    (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
    (ROOT / path).write_text(text, encoding="utf-8")


# ------------------------------------------------------------------- zoo


class Zoo:
    """`analyze` over the bundled model documents, as in the paper's table. The seed is unused."""

    name = "zoo"

    def __init__(self, seed: int):
        self.models = sorted(str(p.relative_to(ROOT)) for p in (ROOT / FIXTURES / "models").glob("*.yaml"))
        if not self.models:
            raise FileNotFoundError(f"no model documents under {ROOT / FIXTURES / 'models'}")

    def commands(self):
        return [["analyze", *self.models]]

    def units(self, outputs):
        """One `analyze` per document, each printing the header and its own row of the table."""
        header, *rows = outputs[0].splitlines(keepends=True)
        return [(["analyze", m], header + row) for m, row in zip(self.models, rows)]

    def check(self, outputs):
        counts = [count_document(load_document(_read(p)), pathlib.Path(p).stem) for p in self.models]
        reference = {r["model"]: int(r["macs"]) for r in csv_rows(_read(FIXTURES / "reference_metrics.csv"))}
        check_analyze_csv(outputs[0], counts, reference)


# ------------------------------------------------------------------ deep


class SyntheticNet:
    """Appends layers to a model document and counts them as it goes.

    For each layer it records the per-layer row the `layers` command
    prints, adds to the network totals, and keeps what the liveness
    sweep needs.
    """

    def __init__(self, name: str, channels: int, size: int):
        self.doc = {"name": name, "input": {"channels": channels, "h": size, "w": size}, "layers": []}
        self.shapes = {}
        self.rows = []
        self.steps = []
        self.macs = self.weights = self.activations = 0
        self.add("data", "input", [], (channels, size, size), 0, 0)

    def add(self, name, kind, inputs, out, macs, weights, aliased=False, **params):
        entry = {"name": name, "kind": kind}
        if inputs:
            entry["inputs"] = list(inputs)
        entry.update(params)
        self.doc["layers"].append(entry)
        produced = math.prod(out)
        if aliased:
            acts = 0
        elif kind == "input":
            acts = produced
        else:
            acts = sum(math.prod(self.shapes[i]) for i in inputs) + produced
        self.shapes[name] = out
        self.macs += macs
        self.weights += weights
        self.activations += 0 if aliased else produced
        ai = macs / (weights + produced) if kind in ("conv", "fc") else None
        self.rows.append({"name": name, "kind": kind, "macs": macs, "weights": weights, "activations": acts, "ai": ai})
        self.steps.append((name, list(inputs), aliased, produced))
        return name

    def _name(self, kind):
        return f"l{len(self.rows)}.{kind}"

    def conv(self, x, out_channels, k, stride=1, groups=1):
        c, h, w = self.shapes[x]
        pad = k // 2
        oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        weights = (c // groups) * k * k * out_channels
        return self.add(
            self._name("conv"), "conv", [x], (out_channels, oh, ow), weights * oh * ow, weights,
            out_channels=out_channels, kernel_h=k, kernel_w=k, stride_h=stride, stride_w=stride,
            pad_h=pad, pad_w=pad, groups=groups,
        )

    def pointwise(self, kind, x, rng):
        """relu or batchnorm; in place by default, explicitly, or materialised."""
        mode = rng.choice(("default", "true", "false"))
        params = {} if mode == "default" else {"in_place": mode == "true"}
        c = self.shapes[x][0]
        return self.add(self._name(kind), kind, [x], self.shapes[x], 0, 2 * c if kind == "batchnorm" else 0,
                        aliased=mode != "false", **params)

    def pool(self, x, k, stride):
        c, h, w = self.shapes[x]
        pad = k // 2
        out = (c, (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1)
        return self.add(self._name("pool"), "pool", [x], out, 0, 0, kernel_h=k, kernel_w=k,
                        stride_h=stride, stride_w=stride, pad_h=pad, pad_w=pad)

    def join(self, kind, xs):
        first = self.shapes[xs[0]]
        out = first if kind == "add" else (sum(self.shapes[x][0] for x in xs), first[1], first[2])
        return self.add(self._name(kind), kind, xs, out, 0, 0)

    def fc(self, x, out_features):
        n = math.prod(self.shapes[x]) * out_features
        return self.add(self._name("fc"), "fc", [x], (out_features, 1, 1), n, n, out_features=out_features)

    def counts(self) -> dict:
        ais = [r["ai"] for r in self.rows if r["ai"] is not None]
        return {
            "model": self.doc["name"],
            "macs": self.macs,
            "weights": self.weights,
            "activations": self.activations,
            "peak_concurrent": peak_live(self.steps),
            "rows": self.rows,
            "ai_median": statistics.median(ais),
            "ai_variance": statistics.pvariance(ais),
        }


def _conv_bn_relu(g, x, rng, out_channels, k, stride=1, groups=1):
    x = g.conv(x, out_channels, k, stride, groups)
    return g.pointwise("relu", g.pointwise("batchnorm", x, rng), rng)


def deep_model(name: str, n_layers: int, rng: random.Random) -> SyntheticNet:
    """A conv/batchnorm/relu network of at least n_layers layers.

    Blocks are drawn at random: residual pairs joined by `add`,
    inception-style branches and dense growth joined by `concat`,
    grouped and depthwise-separable convolutions. The feature map is
    halved three times along the way, by a strided conv or a pool.
    """
    g = SyntheticNet(name, 3, 64)
    x = _conv_bn_relu(g, "data", rng, 32, 3, stride=2)
    downsamples = [n_layers * f // 4 for f in (1, 2, 3)]
    while len(g.rows) < n_layers:
        c = g.shapes[x][0]
        if downsamples and len(g.rows) >= downsamples[0]:
            downsamples.pop(0)
            x = g.pool(x, 3, 2) if rng.random() < 0.5 else _conv_bn_relu(g, x, rng, c, 3, stride=2)
            continue
        block = rng.choice(("residual", "grouped", "separable", "inception", "dense"))
        if block == "residual":
            y = _conv_bn_relu(g, x, rng, c, 3)
            y = g.pointwise("batchnorm", g.conv(y, c, 3), rng)
            x = g.pointwise("relu", g.join("add", [x, y]), rng)
        elif block == "grouped":
            groups = rng.choice([d for d in (2, 4, 8, 16) if c % d == 0] or [1])
            y = _conv_bn_relu(g, x, rng, c, 3, groups=groups)
            x = g.pointwise("relu", g.join("add", [x, g.conv(y, c, 1)]), rng)
        elif block == "separable":
            y = _conv_bn_relu(g, x, rng, c, 3, groups=c)
            x = _conv_bn_relu(g, y, rng, max(16, min(256, c + rng.choice((-16, 0, 16)))), 1)
        elif block == "inception":
            a = _conv_bn_relu(g, x, rng, 16 * rng.randint(1, 4), 1)
            b = _conv_bn_relu(g, _conv_bn_relu(g, x, rng, 16, 1), rng, 16 * rng.randint(1, 3), 3)
            p = g.pool(x, 3, 1)
            x = _conv_bn_relu(g, g.join("concat", [a, b, p]), rng, min(256, c + 16), 1)
        else:
            y = _conv_bn_relu(g, x, rng, 16, 3)
            x = g.join("concat", [x, y])
            if c + 16 > 192:
                x = _conv_bn_relu(g, x, rng, 64, 1)
    g.fc(x, 100)
    return g


class Deep:
    """`analyze` and `layers` on seeded synthetic networks of thousands of layers."""

    name = "deep"

    def __init__(self, seed: int):
        rng = random.Random(f"deep-{seed}")
        self.models = []
        self.counts = []
        for i, n_layers in enumerate(DEEP_LAYERS):
            g = deep_model(f"deep{i}", n_layers, rng)
            path = OUT / f"deep{i}.json"
            _write(path, json.dumps(g.doc))
            self.models.append(str(path))
            self.counts.append(g.counts())

    def commands(self):
        return [["analyze", "--format", "json", *self.models]] + [["layers", m] for m in self.models]

    def units(self, outputs):
        return list(zip(self.commands(), outputs))

    def check(self, outputs):
        check_analyze_json(outputs[0], self.counts)
        for text, want in zip(outputs[1:], self.counts):
            check_layers_csv(text, want)


# ------------------------------------------------------------ population


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def population_tables(seed: int, size: int) -> tuple[str, str]:
    """Profile and measurement CSV text for a synthetic population plus the bundled set.

    Each synthetic network gets a ratio-form profile row (M/W, M/A,
    their AI_c, DI, d_f and A/W, and a MAC count) and one measurement
    row per device and batch. Values keep all their digits, so no two
    networks tie on a ratio. Measured efficiency follows DI at
    alpha 0.8 with log-normal scatter; half the rows carry their own
    MAC count, the rest take it from the profile.
    """
    rng = random.Random(f"population-{seed}")
    profile_lines = _read(FIXTURES / "reference_metrics.csv").splitlines()
    measurement_lines = _read(FIXTURES / "measurements.csv").splitlines()
    device_gain = {"P100": 2.2e9, "P4000": 1.5e9}
    for i in range(size):
        model = f"net{i:05d}"
        wr, ar = _log_uniform(rng, 5, 2000), _log_uniform(rng, 5, 600)
        macs = int(_log_uniform(rng, 5e7, 2e10))
        ai_c = wr * ar / (wr + ar)
        di = (0.8 * ar + 0.2 * wr) / 4
        profile_lines.append(f"{model},{wr!r},{ar!r},{ai_c!r},{di!r},{100 * (ai_c - di) / ai_c!r},{wr / ar!r},{macs}")
        side = rng.choice((224, 299, 331))
        for device, batch in SERIES:
            efficiency = device_gain[device] * (1 + 0.3 * (batch > 1)) * di**0.7 * math.exp(rng.gauss(0, 0.35))
            power = rng.uniform(25, 150) * (1 + 0.2 * (batch > 1))
            i_t_ms = batch * macs / (power * efficiency) * 1000
            own_macs = str(macs) if rng.random() < 0.5 else ""
            measurement_lines.append(f"{model},{device},{batch},{power!r},{i_t_ms!r},{side},{side},{own_macs}")
    return "\n".join(profile_lines) + "\n", "\n".join(measurement_lines) + "\n"


class Population:
    """`calibrate`, `stats` and `roofline` over thousands of profile and measurement rows."""

    name = "population"
    stats_columns = ("di", "ai_c")

    def __init__(self, seed: int):
        self.profiles_text, self.measurements_text = population_tables(seed, POPULATION)
        self.profiles_path, self.measurements_path = OUT / "profiles.csv", OUT / "measurements.csv"
        _write(self.profiles_path, self.profiles_text)
        _write(self.measurements_path, self.measurements_text)
        self.hw_texts = [_read(FIXTURES / "hardware" / f"{hw}.yaml") for hw, _ in HARDWARE]

    def commands(self):
        prof, meas = str(self.profiles_path), str(self.measurements_path)
        cmds = [
            ["calibrate", "--profiles", prof, "--measurements", meas, "--device", d, "--batch", str(b), "--format", "json"]
            for d, b in SERIES
        ]
        x, y = self.stats_columns
        cmds.append(["stats", "--x", x, "--y", y, "--format", "json", prof])
        cmds += [
            ["roofline", "--hw", str(FIXTURES / "hardware" / f"{hw}.yaml"), "--profiles", prof,
             "--measurements", meas, "--device", device]
            for hw, device in HARDWARE
        ]
        return cmds

    def units(self, outputs):
        return list(zip(self.commands(), outputs))

    def check(self, outputs):
        profiles = profile_table(self.profiles_text)
        for text, (device, batch) in zip(outputs, SERIES):
            check_calibrate_json(text, profiles, self.measurements_text, device, batch)
        check_stats_json(outputs[4], self.profiles_text, *self.stats_columns)
        for text, hw_text, (_, device) in zip(outputs[5:], self.hw_texts, HARDWARE):
            check_roofline_csv(text, hw_text, profiles, self.measurements_text, device, 1)


WORKLOADS = {w.name: w for w in (Zoo, Deep, Population)}
