"""Brute-force reference implementations used only by the test suite.

Each oracle re-derives a quantity from first principles, with no shared
code or algebra with the library, so agreement is meaningful.
"""

from __future__ import annotations

import math
import reprlib
import sys
from fractions import Fraction

import yaml


def brute_force_conv(m, n, kh, kw, ih, iw, oh, ow, g):
    """Count convolution MACs one (out_ch, in_ch, ky, kx, oy, ox) tuple at a time.

    Returns (macs, weights, activations) for a grouped convolution where
    each of the n output channels sees the m/g input channels of its group.
    """
    macs = 0
    weights = 0
    for _out_c in range(n):
        for _in_c in range(m // g):
            for _ky in range(kh):
                for _kx in range(kw):
                    weights += 1
                    for _oy in range(oh):
                        for _ox in range(ow):
                            macs += 1
    activations = m * ih * iw + n * oh * ow
    return macs, weights, activations


def closed_form_reuse(family, m, n, s_k, s_o, g=1):
    """{"ai", "weight_reuse", "activation_reuse"} of a convolution family, from its square-symbol closed forms.

    The kernel is s_k x s_k, and the ifmap and ofmap are both s_o x s_o
    (stride 1, same padding), with m input and n output channels in g
    groups. Weight reuse is s_o**2 for every family; activation reuse and
    intensity are written out per family in these symbols alone.
    """
    assert family in ("standard", "pointwise", "group", "depthwise"), family
    assert family != "standard" or g == 1, "standard convolution has g = 1"
    assert family != "pointwise" or (s_k, g) == (1, 1), "pointwise convolution has s_k = 1 and g = 1"
    assert family != "group" or (m % g == 0 and n % g == 0), "groups must divide m and n"
    assert family != "depthwise" or m == n == g, "depthwise convolution has m = n = g"
    if family == "standard":
        activation_reuse = m * n / (m + n) * s_k * s_k
        ai = m * n * s_k**2 * s_o**2 / (m * n * s_k**2 + (m + n) * s_o**2)
    elif family == "pointwise":
        activation_reuse = m * n / (m + n)
        ai = m * n * s_o**2 / (m * n + (m + n) * s_o**2)
    elif family == "group":
        activation_reuse = m * n / (m + n) * s_k * s_k / g
        ai = (m / g) * n * s_k**2 * s_o**2 / ((m / g) * n * s_k**2 + (m + n) * s_o**2)
    else:
        activation_reuse = s_k * s_k / 2
        ai = m * s_k**2 * s_o**2 / (m * s_k**2 + 2 * m * s_o**2)
    return {"ai": ai, "weight_reuse": float(s_o * s_o), "activation_reuse": activation_reuse}


def longhand_layer_costs(text):
    """{layer name: (macs, weights, activations)} for a model document, from its raw text.

    Reads the document with yaml.safe_load and walks it on its own: a
    layer is placed once all of its inputs are, whatever order the
    document lists them in. A conv or pool window's output extent along
    an axis is the number of places the window fits in the padded input.
    A parameter the layer leaves out takes its document default: stride
    1, pad 0, groups 1, and in place for relu and batchnorm alone.
    """
    doc = yaml.safe_load(text)

    def volume(shape):
        channels, height, width = shape
        return channels * height * width

    def fits(extent, layer, axis):
        kernel, stride, pad = layer[f"kernel_{axis}"], layer.get(f"stride_{axis}", 1), layer.get(f"pad_{axis}", 0)
        return len(range(0, extent + 2 * pad - kernel + 1, stride))

    shapes, costs = {}, {}
    pending = doc["layers"]
    while pending:
        waiting = []
        for layer in pending:
            if not set(layer.get("inputs", [])) <= shapes.keys():
                waiting.append(layer)
                continue
            kind = layer["kind"]
            ins = [shapes[ref] for ref in layer.get("inputs", [])]
            macs = weights = 0
            if kind == "input":
                out = (doc["input"]["channels"], doc["input"]["h"], doc["input"]["w"])
            elif kind in ("conv", "pool"):
                channels, height, width = ins[0]
                out = (layer.get("out_channels", channels), fits(height, layer, "h"), fits(width, layer, "w"))
                if kind == "conv":
                    # each output channel's filter spans the input channels of its group only
                    taps = channels // layer.get("groups", 1) * layer["kernel_h"] * layer["kernel_w"]
                    weights = out[0] * taps
                    macs = volume(out) * taps  # one MAC per filter tap per output element
            elif kind == "fc":
                out = (layer["out_features"], 1, 1)
                macs = weights = volume(ins[0]) * out[0]  # the input flattened, every element to every feature
            elif kind == "concat":
                out = (sum(shape[0] for shape in ins), ins[0][1], ins[0][2])
            else:  # relu, batchnorm and add keep their input's shape
                out = ins[0]
                if kind == "batchnorm":
                    weights = 2 * out[0]  # a scale and a shift per channel
            in_place = layer.get("in_place")
            if in_place is None:
                in_place = kind in ("relu", "batchnorm")
            activations = 0 if in_place else sum(volume(shape) for shape in ins) + volume(out)
            shapes[layer["name"]] = out
            costs[layer["name"]] = (macs, weights, activations)
        assert len(waiting) < len(pending), "no layer can be placed: the document has a cycle"
        pending = waiting
    return costs


def longhand_topo_order(layers) -> list:
    """The layers in the order a scheduler places them that repeatedly takes the first listed layer not yet
    placed whose inputs are all placed. The layers must form an acyclic graph."""
    order = []
    placed = set()
    while len(order) < len(layers):
        spec = next(s for s in layers if s.name not in placed and placed.issuperset(s.inputs))
        order.append(spec)
        placed.add(spec.name)
    return order


def brute_force_peak_activations(graph) -> int:
    """Max live data over execution steps of a built ModelGraph, by exhaustive per-step scanning.

    The schedule is longhand_topo_order's. For every step, walks the whole
    schedule to decide which tensors are still needed. In-place layers
    write into their producer's tensor, so a chain of aliases is
    collapsed to the original storage.
    """
    spec_of = {spec.name: spec for spec in graph.layers}
    order = longhand_topo_order(graph.layers)
    step_of = {spec.name: i for i, spec in enumerate(order)}

    def storage(name):
        spec = spec_of[name]
        while spec.kind in ("relu", "batchnorm") and spec.in_place:
            spec = spec_of[spec.inputs[0]]
        return spec.name

    peak = 0
    for step in range(len(order)):
        live = set()
        for spec in order:
            root = storage(spec.name)
            born = min(step_of[s.name] for s in order if storage(s.name) == root)
            needed = [step_of[s.name] for s in order if any(storage(ref) == root for ref in s.inputs)]
            dies = max(needed + [step_of[spec.name]])
            if born <= step <= dies:
                live.add(root)
        peak = max(peak, sum(graph.shapes[root].element_count() for root in live))
    return peak


def rank_formula_spearman(xs, ys):
    """1 - 6*sum(d^2)/(n(n^2-1)); valid only when neither list has ties."""
    n = len(xs)
    rank_x = {v: i + 1 for i, v in enumerate(sorted(xs))}
    rank_y = {v: i + 1 for i, v in enumerate(sorted(ys))}
    d2 = sum((rank_x[a] - rank_y[b]) ** 2 for a, b in zip(xs, ys))
    return 1 - 6 * d2 / (n * (n * n - 1))


def disparity_closed_form(w, a):
    """Relative disparity at alpha = 0.8, rewritten in terms of W and A only."""
    return 75 - 20 * (w / a) - 5 * (a / w)


def longhand_pearson(xs, ys):
    """Textbook product-moment correlation, every sum taken with math.fsum."""
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def longhand_alpha_curve(reuse_pairs, efficiencies, steps=20):
    """[(alpha, r_p)] for alpha = 0, 1/steps, ..., 1.

    reuse_pairs holds one (M_c/W, M_c/A) pair per network, and DI is
    written out from its definition, (alpha*M_c/A + (1-alpha)*M_c/W)/4.
    """
    curve = []
    for i in range(steps + 1):
        alpha = i / steps
        dis = [(alpha * ra + (1 - alpha) * rw) / 4 for rw, ra in reuse_pairs]
        curve.append((alpha, longhand_pearson(dis, efficiencies)))
    return curve


def plateau_alpha(curve, epsilon=0.005):
    """Walk the curve; stop at the first alpha whose next step gains less than epsilon.

    With no such step, the first alpha of the largest r_p is the answer.
    """
    for (alpha, r), (_, r_next) in zip(curve, curve[1:]):
        if r_next - r < epsilon:
            return alpha
    best = max(r for _, r in curve)
    for alpha, r in curve:
        if r == best:
            return alpha


def tie_averaged_ranks(values):
    """1-based rank of each value; tied values share the mean of the positions they span.

    A value with `below` smaller values and `tied` equal ones (itself
    included) spans positions below + 1 .. below + tied.
    """
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        tied = sum(1 for u in values if u == v)
        ranks.append(below + (tied + 1) / 2)
    return ranks


def longhand_measurements(rows):
    """(records, None) for measurement rows that are all accepted, or (None, message) for the first refused.

    Each row holds its eight fields in header order, and the first is CSV
    row 2. A record is a plain tuple. Cells are judged one at a time, in
    column order: a blank `macs` (after trimming) is None; any other cell
    must convert, be finite and be positive.
    """
    number_columns = (("batch", int), ("p_avg_w", float), ("i_t_ms", float), ("input_h", int), ("input_w", int), ("macs", float))
    records, keys = [], []
    for number, fields in enumerate(rows, start=2):
        model, device = fields[0].strip(), fields[1].strip()
        if model == "" or device == "":
            return None, f"row {number}: model and device must be non-empty"
        values = []
        for (column, kind), text in zip(number_columns, fields[2:]):
            if column == "macs":
                text = text.strip()
                if text == "":
                    values.append(None)
                    continue
            try:
                value = kind(text)
            except ValueError as exc:
                return None, f"row {number}: column {column!r} is not a finite number: {exc}"
            is_finite = abs(value) <= sys.float_info.max if kind is int else math.isfinite(value)
            if not is_finite:
                reason = f"{column} must be a finite number, got {reprlib.repr(value)}"
                return None, f"row {number}: column {column!r} is not a finite number: {reason}"
            if value <= 0:
                return None, f"row {number}: column {column!r} must be positive, got {text!r}"
            values.append(value)
        key = (model, device, values[0])
        if key in keys:
            return None, f"row {number}: duplicate (model, device, batch) key {key}"
        keys.append(key)
        records.append((model, device, *values))
    return records, None


# Fisher's z-critical values, written out here rather than read from the library
FISHER_Z_CRITICAL = {0.95: 1.96, 0.99: 2.58}


def longhand_fisher_ci(r, n, level):
    """(lower, upper) of the Fisher interval, tanh(atanh(r) -+ z/sqrt(n - 3)), in one expression each."""
    z = FISHER_Z_CRITICAL[level]
    return math.tanh(math.atanh(r) - z / math.sqrt(n - 3)), math.tanh(math.atanh(r) + z / math.sqrt(n - 3))


def longhand_min_sample_size(level, max_z_width):
    """Smallest n >= 4 whose Z-space width 2z/sqrt(n - 3) fits the budget, found by counting up from 4."""
    n = 4
    while 2 * FISHER_Z_CRITICAL[level] / math.sqrt(n - 3) > max_z_width:
        n += 1
    return n


def longhand_profiles(header, rows):
    """(profiles, None) for the rows of a profiles CSV that are all accepted, or (None, (exit code, message)) for the first refused.

    `header` names the columns, each row holds its fields in header order,
    and the first row is CSV row 2; a repeated column name means its last
    column. The table is in count form when it has macs, weights and
    activations columns, else in ratio form (mc_over_w and mc_over_a).
    A profile is `model -> ((macs, weights, activations), forward-pass
    macs or None)`. Cells are judged one at a time, in the order the rule
    below lists them; a bad cell exits 2, a network with no data 3.
    - Every number cell must convert with float() and be finite.
    - Count form: macs, weights, activations; no count may be negative,
      and weights + activations must be above 0. The forward-pass count is
      the macs cell.
    - Ratio form: mc_over_w, mc_over_a, both above 0. The counts are
      (mc_over_w * mc_over_a, mc_over_a, mc_over_w), and the product must
      be finite. A macs column, if any, holds the forward-pass count:
      None when the cell is empty (not trimmed), else a number not below 0.
    - Either form, once the counts are known: macs / weights, then macs /
      activations, where that count is above 0, must round to a float.
    """
    at = {name: i for i, name in enumerate(header)}
    count_form = all(name in at for name in ("macs", "weights", "activations"))
    profiles = {}
    for number, fields in enumerate(rows, start=2):
        model = fields[at["model"]].strip()
        if model == "":
            return None, (2, f"row {number}: empty model name")
        if model in profiles:
            return None, (2, f"row {number}: duplicate model {model!r}")

        def bad(reason):
            return None, (2, f"row {number}: bad value for {model!r}: {reason}")

        def quotient_refusal(macs, weights, activations):
            """bad(...) for the first exact quotient of macs by a count above 0 that float() cannot round, else None."""
            for count, what in ((weights, "weights"), (activations, "activations")):
                if count > 0:
                    try:
                        float(Fraction(macs) / Fraction(count))
                    except OverflowError:
                        return bad(f"macs / {what} leaves float range: {macs} / {count}")
            return None

        values = {}
        for column in ("macs", "weights", "activations") if count_form else ("mc_over_w", "mc_over_a"):
            try:
                values[column] = float(fields[at[column]])
            except ValueError as exc:
                return bad(exc)
            if not math.isfinite(values[column]):
                return bad(f"{column} must be a finite number, got {reprlib.repr(values[column])}")
        if count_form:
            counts = (values["macs"], values["weights"], values["activations"])
            if any(count < 0 for count in counts):
                return bad("profile counts must be non-negative")
            if counts[1] + counts[2] <= 0:
                return None, (3, f"{model}: network has no weights or activations")
            refusal = quotient_refusal(*counts)
            if refusal:
                return refusal
            profiles[model] = (counts, counts[0])
            continue
        weight_reuse, activation_reuse = values["mc_over_w"], values["mc_over_a"]
        if weight_reuse <= 0 or activation_reuse <= 0:
            return bad("reuse ratios must be positive")
        product = weight_reuse * activation_reuse
        if not math.isfinite(product):
            return bad(f"macs must be a finite number, got {reprlib.repr(product)}")
        refusal = quotient_refusal(product, activation_reuse, weight_reuse)
        if refusal:
            return refusal
        forward = None
        if "macs" in at and fields[at["macs"]] != "":
            try:
                forward = float(fields[at["macs"]])
            except ValueError as exc:
                return bad(exc)
            if not math.isfinite(forward):
                return bad(f"macs must be a finite number, got {reprlib.repr(forward)}")
            if forward < 0:
                return bad(f"macs must be non-negative, got {forward}")
        profiles[model] = ((product, activation_reuse, weight_reuse), forward)
    return profiles, None


def longhand_unit_deviations(values):
    """Deviations from the mean over the largest one, in three passes as first written.

    The values are rescaled by the power of two that puts the largest |v|
    in [0.5, 1), the mean is the fsum of the rescaled values over their
    count, and the largest |deviation| is found by a pass of its own.
    """
    _, exponent = math.frexp(max(abs(v) for v in values))
    scaled = [math.ldexp(v, -exponent) for v in values]
    mean = math.fsum(scaled) / len(scaled)
    deviations = [s - mean for s in scaled]
    peak = max(abs(d) for d in deviations)
    return [d / peak for d in deviations]


def longhand_correlation_refusal(values, ranked=False):
    """The message a correlation refuses one series with, or None; `ranked` for spearman, which ranks it first.

    Two checks, in this order: any value that is not finite, then a
    series whose values are all equal.
    """
    if not all(math.isfinite(v) for v in values):
        return f"{'ranks' if ranked else 'correlation'} undefined on non-finite values"
    if min(values) == max(values):
        return "correlation undefined on a zero-variance series"
    return None
