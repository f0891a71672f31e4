"""Independent checks of dnnreuse CLI output.

Nothing here imports dnnreuse. Each quantity is recomputed from the raw
inputs (model documents, CSV text, hardware YAML) with its own shape
propagation, cost formulas, liveness sweep, ranks and correlations, and
the program's output is compared against that. A check that fails raises
CheckError with the first disagreement it finds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics

import yaml

ALPHA = 0.8
Z = {95: 1.96, 99: 2.58}
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class CheckError(AssertionError):
    """The program's output disagrees with the independent computation."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def close(got: float, want: float, what: str, abs_tol: float = 0.0, rel_tol: float = 1e-9):
    expect(math.isclose(got, want, rel_tol=rel_tol, abs_tol=abs_tol), f"{what}: got {got!r}, expected {want!r}")


def printed(got: str, want: float, what: str):
    """A value printed with four decimals agrees with `want`."""
    close(float(got), want, what, abs_tol=0.51e-4, rel_tol=1e-12)


def sig4(got: str, want: float, what: str):
    """A value printed with four significant digits agrees with `want`."""
    close(float(got), want, what, rel_tol=5.1e-4)


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- graphs


def load_document(text: str) -> dict:
    return yaml.load(text, Loader=SAFE_LOADER)


def peak_live(steps) -> int:
    """Largest total of live tensor elements, by a birth/death delta sweep.

    steps: (name, inputs, in_place, elements) in execution order. An
    in-place step aliases its first input's storage; a storage lives
    from its producer's step to the last step that touches it.
    """
    root, born, last, size = {}, {}, {}, {}
    count = 0
    for step, (name, inputs, in_place, elements) in enumerate(steps):
        count += 1
        if in_place:
            root[name] = root[inputs[0]]
        else:
            root[name] = name
            born[name] = step
            size[name] = elements
        last[root[name]] = step
        for ref in inputs:
            last[root[ref]] = step
    delta = [0] * (count + 1)
    for r, step in born.items():
        delta[step] += size[r]
        delta[last[r] + 1] -= size[r]
    peak = live = 0
    for d in delta:
        live += d
        peak = max(peak, live)
    return peak


def _out_hw(h, w, p, k_h, k_w):
    return (
        (h + 2 * p.get("pad_h", 0) - k_h) // p.get("stride_h", 1) + 1,
        (w + 2 * p.get("pad_w", 0) - k_w) // p.get("stride_w", 1) + 1,
    )


def count_document(doc: dict, fallback_name: str) -> dict:
    """Whole-network and per-layer counts of a raw model document.

    The document must list every layer after its inputs; execution
    order is then the declaration order.
    """
    inp = doc["input"]
    shapes = {}
    rows = []
    steps = []
    macs = weights = activations = 0
    for layer in doc["layers"]:
        name, kind, p = layer["name"], layer["kind"], layer
        refs = list(layer.get("inputs", []))
        expect(all(r in shapes for r in refs), f"{name}: inputs not declared before use")
        ins = [shapes[r] for r in refs]
        in_place = kind in ("relu", "batchnorm") and layer.get("in_place", True)
        m = w = 0
        if kind == "input":
            out = (inp["channels"], inp["h"], inp["w"])
        elif kind == "conv":
            (c, h, wd), n, g = ins[0], p["out_channels"], p.get("groups", 1)
            expect(c % g == 0 and n % g == 0, f"{name}: groups do not divide channels")
            out = (n, *_out_hw(h, wd, p, p["kernel_h"], p["kernel_w"]))
            w = (c // g) * p["kernel_h"] * p["kernel_w"] * n
            m = w * out[1] * out[2]
        elif kind == "pool":
            c, h, wd = ins[0]
            out = (c, *_out_hw(h, wd, p, p["kernel_h"], p["kernel_w"]))
        elif kind == "fc":
            out = (p["out_features"], 1, 1)
            m = w = math.prod(ins[0]) * p["out_features"]
        elif kind in ("relu", "batchnorm", "add"):
            out = ins[0]
            if kind == "batchnorm":
                w = 2 * out[0]
        elif kind == "concat":
            out = (sum(s[0] for s in ins), ins[0][1], ins[0][2])
        else:
            raise CheckError(f"{name}: unknown kind {kind}")
        shapes[name] = out
        produced = math.prod(out)
        if in_place:
            acts = 0
        elif kind == "input":
            acts = produced
        else:
            acts = sum(math.prod(s) for s in ins) + produced
        ai = m / (w + produced) if kind in ("conv", "fc") else None
        rows.append({"name": name, "kind": kind, "macs": m, "weights": w, "activations": acts, "ai": ai})
        macs += m
        weights += w
        if not in_place:
            activations += produced
        steps.append((name, refs, in_place, produced))
    ais = [r["ai"] for r in rows if r["ai"] is not None]
    return {
        "model": doc.get("name") or fallback_name,
        "macs": macs,
        "weights": weights,
        "activations": activations,
        "peak_concurrent": peak_live(steps),
        "rows": rows,
        "ai_median": statistics.median(ais),
        "ai_variance": statistics.pvariance(ais),
    }


def derived(macs: float, weights: float, activations: float, alpha: float = ALPHA) -> dict:
    """Reuse ratios and the paper's metrics, from their definitions."""
    wr, ar = macs / weights, macs / activations
    ai_c = macs / (weights + activations)
    di = (alpha * ar + (1 - alpha) * wr) / 4
    a_over_w = activations / weights
    return {
        "ai_c": ai_c,
        "weight_reuse": wr,
        "activation_reuse": ar,
        "a_over_w": a_over_w,
        "di": di,
        "d_f": 100 * (ai_c - di) / ai_c,
        "case": "ActivationsScarce" if a_over_w < 1 / 3 else "ActivationsDominant" if a_over_w > 3 else "Balanced",
    }


def check_reuse_bound(macs, weights, activations, what):
    """AI_c never exceeds (M/A + M/W)/4 (arithmetic vs harmonic mean)."""
    bound = (macs / activations + macs / weights) / 4
    expect(macs / (weights + activations) <= bound * (1 + 1e-12), f"{what}: AI_c above (M/A + M/W)/4")


def check_analyze_csv(text: str, counts: list[dict], reference_macs: dict | None = None):
    """`analyze` CSV rows against per-document counts, in input order."""
    rows = csv_rows(text)
    expect(len(rows) == len(counts), f"analyze printed {len(rows)} rows for {len(counts)} models")
    for row, want in zip(rows, counts):
        model = want["model"]
        expect(row["model"] == model, f"row for {row['model']!r}, expected {model!r}")
        for key in ("macs", "weights", "activations", "peak_concurrent"):
            expect(int(row[key]) == want[key], f"{model}.{key}: got {row[key]}, expected {want[key]}")
        if reference_macs is not None:
            expect(int(row["macs"]) == reference_macs[model], f"{model}: macs differ from the published column")
        m, w, a = want["macs"], want["weights"], want["activations"]
        d = derived(m, w, a)
        for key in ("ai_c", "weight_reuse", "activation_reuse", "a_over_w", "di", "d_f"):
            printed(row[key], d[key], f"{model}.{key}")
        printed(row["alpha"], ALPHA, f"{model}.alpha")
        printed(row["d_f"], 75 - 20 * w / a - 5 * a / w, f"{model}.d_f closed form")
        expect(row["case"] == d["case"], f"{model}.case: got {row['case']}, expected {d['case']}")
        check_reuse_bound(m, w, a, model)
        check_reuse_bound(float(row["macs"]), float(row["weights"]), float(row["activations"]), f"{model} (printed)")


def check_analyze_json(text: str, counts: list[dict]):
    """`analyze --format json` records against per-document counts."""
    records = json.loads(text)
    expect(len(records) == len(counts), f"analyze printed {len(records)} records for {len(counts)} models")
    for rec, want in zip(records, counts):
        model = want["model"]
        expect(rec["model"] == model, f"record for {rec['model']!r}, expected {model!r}")
        for key in ("macs", "weights", "activations", "peak_concurrent"):
            expect(rec[key] == want[key], f"{model}.{key}: got {rec[key]}, expected {want[key]}")
        d = derived(want["macs"], want["weights"], want["activations"])
        for key in ("ai_c", "weight_reuse", "activation_reuse", "a_over_w", "di", "d_f"):
            close(rec[key], d[key], f"{model}.{key}", abs_tol=1e-9)
        expect(rec["case"] == d["case"], f"{model}.case: got {rec['case']}, expected {d['case']}")
        check_reuse_bound(want["macs"], want["weights"], want["activations"], model)


def check_layers_csv(text: str, want: dict):
    """`layers` CSV table and its median/variance trailer."""
    rows = csv_rows(text)
    body, trailer = rows[:-2], rows[-2:]
    expect(len(body) == len(want["rows"]), f"layers printed {len(body)} rows for {len(want['rows'])} layers")
    for row, layer in zip(body, want["rows"]):
        name = layer["name"]
        expect((row["name"], row["kind"]) == (name, layer["kind"]), f"row {row['name']!r}, expected {name!r}")
        for key in ("macs", "weights", "activations"):
            expect(int(row[key]) == layer[key], f"{name}.{key}: got {row[key]}, expected {layer[key]}")
        if layer["ai"] is None:
            expect(row["ai"] == "", f"{name}: ai printed for a layer without MACs")
        else:
            printed(row["ai"], layer["ai"], f"{name}.ai")
    expect([r["name"] for r in trailer] == ["median", "variance"], "layers trailer is not median, variance")
    printed(trailer[0]["ai"], want["ai_median"], "ai median")
    printed(trailer[1]["ai"], want["ai_variance"], "ai variance")


# ------------------------------------------------------------ populations


def average_ranks(values) -> list[float]:
    """1-based ranks; a run of ties gets the mean of the ranks it spans."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def correlations(xs, ys) -> tuple[float, float]:
    """(Pearson, Spearman) with the standard library and our own ranks."""
    return statistics.correlation(xs, ys), statistics.correlation(average_ranks(xs), average_ranks(ys))


def plateau_alpha(points, epsilon: float) -> float:
    """Smallest alpha whose next step gains less than epsilon, else the first argmax."""
    for (a, r), (_, r_next) in zip(points, points[1:]):
        if r_next - r < epsilon:
            return a
    best = max(r for _, r in points)
    return next(a for a, r in points if r == best)


def profile_table(text: str) -> dict:
    """model -> (M/W, M/A, forward-pass macs or None) from a ratio-form profile CSV."""
    return {
        r["model"]: (float(r["mc_over_w"]), float(r["mc_over_a"]), float(r["macs"]) if r.get("macs") else None)
        for r in csv_rows(text)
    }


def efficiencies(profiles: dict, measurements_text: str, device: str, batch: int) -> dict:
    """model -> batch * macs / (P_avg * I_t), macs from the row or else the profile."""
    out = {}
    for r in csv_rows(measurements_text):
        if r["device"] != device or int(r["batch"]) != batch:
            continue
        macs = float(r["macs"]) if r["macs"] else profiles[r["model"]][2]
        out[r["model"]] = batch * macs / (float(r["p_avg_w"]) * float(r["i_t_ms"]) / 1000)
    return out


def check_calibrate_json(text: str, profiles: dict, measurements_text: str, device: str, batch: int, epsilon=0.005):
    """Every (alpha, r_p, r_s) point and the selected plateau alpha."""
    got = json.loads(text)
    eff = efficiencies(profiles, measurements_text, device, batch)
    models = sorted(profiles)
    ys = [eff[m] for m in models]
    curve = []
    expect(len(got["points"]) == 21, f"{device}/b{batch}: {len(got['points'])} grid points, expected 21")
    expect(got["n"] == len(models), f"{device}/b{batch}: n = {got['n']}, expected {len(models)}")
    for i, point in enumerate(got["points"]):
        alpha = i / 20
        close(point["alpha"], alpha, f"{device}/b{batch} grid point {i}")
        di = [(alpha * profiles[m][1] + (1 - alpha) * profiles[m][0]) / 4 for m in models]
        r_p, r_s = correlations(di, ys)
        close(point["r_p"], r_p, f"{device}/b{batch} r_p at alpha {alpha}", abs_tol=1e-9)
        close(point["r_s"], r_s, f"{device}/b{batch} r_s at alpha {alpha}", abs_tol=1e-9)
        curve.append((alpha, r_p))
    want = plateau_alpha(curve, epsilon)
    close(got["selected_alpha"], want, f"{device}/b{batch} selected alpha", abs_tol=1e-12)


def check_stats_json(text: str, table_text: str, x_col: str, y_col: str):
    """r_p, r_s and their Fisher intervals over two CSV columns."""
    got = json.loads(text)
    rows = csv_rows(table_text)
    xs = [float(r[x_col]) for r in rows]
    ys = [float(r[y_col]) for r in rows]
    n = len(xs)
    r_p, r_s = correlations(xs, ys)
    expect(got["n"] == n, f"stats n = {got['n']}, expected {n}")
    close(got["r_p"], r_p, "stats r_p", abs_tol=1e-9)
    close(got["r_s"], r_s, "stats r_s", abs_tol=1e-9)
    for label, r in (("r_p", r_p), ("r_s", r_s)):
        for level, z in Z.items():
            ci = got["intervals"][f"{label}_ci{level}"]
            expect(ci is not None, f"stats {label}_ci{level} missing")
            margin = z / math.sqrt(n - 3)
            close(ci["lower"], math.tanh(math.atanh(r) - margin), f"{label}_ci{level} lower", abs_tol=1e-9)
            close(ci["upper"], math.tanh(math.atanh(r) + margin), f"{label}_ci{level} upper", abs_tol=1e-9)


def check_roofline_csv(text: str, hw_text: str, profiles: dict, measurements_text: str, device: str, batch: int):
    """Placement of every profile row: intensity, attainable, verdict, measured throughput."""
    hw = yaml.load(hw_text, Loader=SAFE_LOADER)
    peak, bandwidth = float(hw["peak_flops"]), float(hw["peak_bandwidth_bytes_per_s"])
    measured = {}
    for r in csv_rows(measurements_text):
        if r["device"] == device and int(r["batch"]) == batch:
            macs = float(r["macs"]) if r["macs"] else profiles[r["model"]][2]
            measured[r["model"]] = batch * macs / (float(r["i_t_ms"]) / 1000)
    points = [r for r in csv_rows(text) if r["row"] == "model"]
    expect([p["label"] for p in points] == list(profiles), f"{device}: roofline rows are not the profile rows in order")
    for p in points:
        wr, ar, _ = profiles[p["label"]]
        intensity = wr * ar / (wr + ar)
        printed(p["intensity"], intensity, f"{p['label']} intensity")
        sig4(p["attainable_ops"], min(peak, intensity * bandwidth), f"{p['label']} attainable")
        verdict = "ComputeBound" if intensity >= peak / bandwidth else "MemoryBound"
        expect(p["bound"] == verdict, f"{p['label']} on {device}: got {p['bound']}, expected {verdict}")
        sig4(p["measured_ops"], measured[p["label"]], f"{p['label']} measured")
