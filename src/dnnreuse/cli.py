"""Command-line front door over the analyzer library.

Five subcommands: analyze (whole-network profiles and metrics),
layers (per-layer cost table), calibrate (alpha sweep against measured
efficiency), roofline (placement against a hardware ceiling), and
stats (correlations with Fisher confidence intervals over a CSV).

Output goes to stdout, diagnostics to stderr. Exit codes: 0 success,
2 invalid input, 3 analytic degeneracy. Reports are deterministic:
fixed row order, fixed float precision (four decimals for ratios,
four significant digits for float energies; integer counts printed
exactly), newline line endings.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import pathlib
import sys

import click

from .document import read_rows
from .errors import DegenerateDataError, InputError, finite
from .graph import parse_model
from .measure import energy_efficiency, load_measurements
from .metrics import DEFAULT_ALPHA, TAU_HIGH, TAU_LOW, classify_case, disparity, weighted_intensity
from .netprofile import aggregate, batch_scale, layerwise_ai_stats, load_profiles
from .roofline import DEFAULT_BYTES_PER_ELEMENT, DEFAULT_FLOPS_PER_MAC, MODES, load_hardware_spec, roofline_points
from .stats import DEFAULT_EPSILON, DEFAULT_STEP, Z_CRITICAL, alpha_sweep, fisher_ci, pearson, spearman

# CSV cell formats; each command names one per column in its column map
RATIO = "{:.4f}".format
ENERGY = "{:.3e}".format
TEXT = str
COUNT = str  # every count printed is an exact int: layer costs are products of ints, and sums and batch multiples keep them so


def _guarded(func):
    """Map the library's error taxonomy onto the exit-code contract.

    Every float option is checked for NaN and +-inf first, so none
    reaches a range check that NaN would pass.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            for name, value in kwargs.items():
                if isinstance(value, float):
                    finite(value, "--" + name.replace("_", "-"))
            return func(*args, **kwargs)
        except (DegenerateDataError, InputError, OSError, UnicodeDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3 if isinstance(exc, DegenerateDataError) else 2)

    return wrapper


def _parse_file(path: str, parse):
    """parse(text) of the file at `path`, a leading UTF-8 byte-order mark dropped; an input error names the file."""
    text = pathlib.Path(path).read_text(encoding="utf-8-sig")
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _named(label: str, metric, *args):
    """metric(*args); a degeneracy it raises names `label`, the network it is about."""
    try:
        return metric(*args)
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{label}: {exc}") from None


def _load_graph(path: str):
    return _parse_file(path, lambda text: parse_model(text, name=pathlib.Path(path).stem))


def _emit(fmt: str, doc, columns: dict, rows) -> None:
    """Print `doc` as JSON, or `rows`, a sequence of mappings, as CSV under the column map `columns`.

    The CSV header is the map's keys. A cell is its column's format
    applied to the row's value; a string passes through unchanged, and
    None or a missing key prints as empty.
    """
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2))
        return
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    # each column formatted as a whole, then zipped back into rows; csv.writer prints None as an empty cell
    cells = [
        [value if (value := row.get(name)) is None or isinstance(value, str) else form(value) for row in rows]
        for name, form in columns.items()
    ]
    writer.writerows(zip(*cells))
    click.echo(out.getvalue(), nl=False)


_format_option = click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "json"]))


@click.group()
def main():
    """Data-reuse and energy-efficiency analysis of DNN compute graphs."""


@main.command()
@click.argument("models", nargs=-1, required=True, type=click.Path())
@click.option("--batch", default=1, show_default=True, type=click.IntRange(min=1), help="Batch size to scale the profile to.")
@click.option("--alpha", default=DEFAULT_ALPHA, show_default=True, type=float, help="Activation-reuse weight for DI.")
@click.option("--tau-low", default=TAU_LOW, type=float, help="A/W below this is activations-scarce.")
@click.option("--tau-high", default=TAU_HIGH, type=float, help="A/W above this is activations-dominant.")
@_format_option
@_guarded
def analyze(models, batch, alpha, tau_low, tau_high, fmt):
    """Whole-network counts, reuse ratios, and derived metrics per model."""
    records = []
    for path in models:
        graph = _load_graph(path)
        p = batch_scale(aggregate(graph), batch)
        di = _named(graph.name, weighted_intensity, p, alpha)
        d_f = _named(graph.name, disparity, p, alpha)
        case = _named(graph.name, classify_case, p, tau_low, tau_high)
        record = {"model": graph.name, "batch": p.batch, "macs": p.macs, "weights": p.weights}
        record.update(activations=p.activations, peak_concurrent=p.peak_concurrent)
        record.update(ai_c=p.ai_c, weight_reuse=p.weight_reuse, activation_reuse=p.activation_reuse)
        record.update(a_over_w=p.a_over_w, alpha=alpha, di=di, d_f=d_f, case=case.value)
        records.append(record)
    columns = {
        "model": TEXT, "macs": COUNT, "weights": COUNT, "activations": COUNT, "peak_concurrent": COUNT,
        "ai_c": RATIO, "weight_reuse": RATIO, "activation_reuse": RATIO, "a_over_w": RATIO,
        "alpha": RATIO, "di": RATIO, "d_f": RATIO, "case": TEXT,
    }
    _emit(fmt, records, columns, records)


@main.command()
@click.argument("model", type=click.Path())
@_format_option
@_guarded
def layers(model, fmt):
    """Per-layer cost table with an intensity summary trailer."""
    graph = _load_graph(model)
    stats = layerwise_ai_stats(graph)
    ai_by_name = dict(stats.per_layer_ai)
    rows = []
    for spec in graph.layers:
        cost = graph.costs[spec.name]
        rows.append({
            "name": spec.name, "kind": spec.kind,
            "macs": cost.macs, "weights": cost.weights, "activations": cost.activations,
            "ai": ai_by_name.get(spec.name),
        })
    doc = {"model": graph.name, "layers": rows, "ai_median": stats.median, "ai_variance": stats.variance}
    trailer = [{"name": "median", "ai": stats.median}, {"name": "variance", "ai": stats.variance}]
    columns = {"name": TEXT, "kind": TEXT, "macs": COUNT, "weights": COUNT, "activations": COUNT, "ai": RATIO}
    _emit(fmt, doc, columns, rows + trailer)


def _measurements_by_model(path: str, device, batch, macs: dict) -> dict:
    """model -> (row, MAC count), for the model's measurement row for this device (any if None) and batch.

    The count is the row's own, or else the model's count in `macs`, if any.
    """
    by_model = {}
    for rec in _parse_file(path, load_measurements):
        if (device is None or rec.device == device) and rec.batch == batch:
            if rec.model in by_model:
                raise InputError(
                    f"ambiguous measurements for model {rec.model!r} (multiple devices?); pass --device to disambiguate"
                )
            by_model[rec.model] = rec, rec.macs if rec.macs is not None else macs.get(rec.model)
    return by_model


@main.command()
@click.option("--profiles", "profiles_path", required=True, type=click.Path(), help="Analyze-style CSV with model,macs,weights,activations.")
@click.option("--measurements", "measurements_path", required=True, type=click.Path())
@click.option("--device", default=None, help="Keep only this device's rows.")
@click.option("--batch", default=1, show_default=True, type=click.IntRange(min=1), help="Keep only this batch size's rows.")
@click.option("--step", default=DEFAULT_STEP, show_default=True, type=float, help="Alpha grid step.")
@click.option("--epsilon", default=DEFAULT_EPSILON, show_default=True, type=float, help="Plateau threshold on consecutive r_p gain.")
@_format_option
@_guarded
def calibrate(profiles_path, measurements_path, device, batch, step, epsilon, fmt):
    """Sweep alpha, correlating DI with measured efficiency; report the plateau."""
    profiles = _parse_file(profiles_path, load_profiles)
    by_model = _measurements_by_model(measurements_path, device, batch, {m: macs for m, (_, macs) in profiles.items()})
    unjoined = {
        "profiles without measurements": sorted(set(profiles) - set(by_model)),
        "measurements without profiles": sorted(set(by_model) - set(profiles)),
    }
    parts = [f"{what}: {', '.join(models)}" for what, models in unjoined.items() if models]
    if parts:
        raise InputError("model keys do not join; " + "; ".join(parts))
    order = sorted(profiles)
    efficiencies = [energy_efficiency(rec, macs) for rec, macs in map(by_model.get, order)]
    try:
        curve = alpha_sweep([profiles[m][0] for m in order], efficiencies, step=step, epsilon=epsilon)
    except DegenerateDataError:  # the sweep stops at the first network whose DI is undefined, if any
        for m in order:
            _named(m, weighted_intensity, profiles[m][0])
        raise
    points = [{"alpha": p.alpha, "r_p": p.r_p, "r_s": p.r_s} for p in curve.points]
    doc = {"points": points, "selected_alpha": curve.selected_alpha, "epsilon": epsilon, "n": len(order)}
    trailer = {"alpha": "selected_alpha", "r_p": curve.selected_alpha}
    _emit(fmt, doc, {"alpha": RATIO, "r_p": RATIO, "r_s": RATIO}, points + [trailer])


@main.command()
@click.argument("models", nargs=-1, type=click.Path())
@click.option("--hw", "hw_path", required=True, type=click.Path(), help="Hardware spec YAML.")
@click.option("--profiles", "profiles_path", default=None, type=click.Path(), help="Place rows of this profiles CSV too.")
@click.option("--metric", default="ai", show_default=True, type=click.Choice(["ai", "di"]), help="Intensity metric on the x axis.")
@click.option("--alpha", default=DEFAULT_ALPHA, show_default=True, type=float)
@click.option("--mode", default="raw", show_default=True, type=click.Choice(MODES))
@click.option("--bytes-per-element", default=DEFAULT_BYTES_PER_ELEMENT, show_default=True, type=float)
@click.option("--flops-per-mac", default=DEFAULT_FLOPS_PER_MAC, show_default=True, type=float)
@click.option("--measurements", "measurements_path", default=None, type=click.Path(), help="Attach measured throughput from this CSV.")
@click.option("--device", default=None, help="Device filter for --measurements.")
@click.option("--batch", default=1, show_default=True, type=click.IntRange(min=1), help="Batch filter for --measurements.")
@_format_option
@_guarded
def roofline(models, hw_path, profiles_path, metric, alpha, mode, bytes_per_element, flops_per_mac, measurements_path, device, batch, fmt):
    """Place model docs or profile rows on the hardware roofline."""
    if not models and profiles_path is None:
        raise InputError("nothing to place; pass model documents or --profiles")
    hw = _parse_file(hw_path, load_hardware_spec)
    entries = []
    for path in models:
        graph = _load_graph(path)
        profile = aggregate(graph)
        entries.append((graph.name, profile, profile.macs))
    if profiles_path is not None:
        profiles = _parse_file(profiles_path, load_profiles)
        entries += [(model, profile, macs) for model, (profile, macs) in profiles.items()]
    labelled = [(label, p.ai_c if metric == "ai" else _named(label, weighted_intensity, p, alpha)) for label, p, _ in entries]
    measured = {}
    if measurements_path is not None:
        ops_per_mac = flops_per_mac if mode == "converted" else 1.0
        by_model = _measurements_by_model(measurements_path, device, batch, {label: macs for label, _, macs in entries})
        for label, (rec, macs) in by_model.items():
            if macs is not None:
                seconds = rec.i_t_ms / 1000.0
                if seconds == 0.0:  # a positive i_t_ms can still round to zero seconds
                    raise InputError(f"measurement of {label!r}: i_t_ms {rec.i_t_ms!r} underflows to 0 s")
                measured[label] = rec.batch * macs * ops_per_mac / seconds
    chart = roofline_points(
        hw, labelled, measured=measured, mode=mode, bytes_per_element=bytes_per_element, flops_per_mac=flops_per_mac
    )
    points = [
        {
            "label": p.label,
            "intensity": p.intensity,
            "attainable_ops": p.attainable,
            "bound": p.bound.value,
            "measured_ops": p.measured,
        }
        for p in chart.points
    ]
    envelope = [{"intensity": x, "attainable_ops": y} for x, y in chart.envelope]
    doc = {"hardware": hw.name, "mode": mode, "metric": metric, "points": points, "envelope": envelope}
    rows = [{"row": "model", **p} for p in points] + [{"row": "envelope", **e} for e in envelope]
    columns = {
        "row": TEXT, "label": TEXT, "intensity": RATIO, "attainable_ops": ENERGY, "bound": TEXT, "measured_ops": ENERGY,
    }
    _emit(fmt, doc, columns, rows)


@main.command()
@click.argument("table", type=click.Path())
@click.option("--x", "x_col", required=True, help="Column name for the first variable.")
@click.option("--y", "y_col", required=True, help="Column name for the second variable.")
@_format_option
@_guarded
def stats(table, x_col, y_col, fmt):
    """Correlations between two CSV columns, with Fisher confidence intervals."""
    def columns(text):
        header, rows = read_rows(text)
        at = {name: i for i, name in enumerate(header)}  # a repeated name means its last column
        for col in (x_col, y_col):
            if col not in at:
                raise InputError(f"no column {col!r}; have {header}")
        xs, ys = [], []
        for i, fields in rows:
            try:
                xs.append(finite(float(fields[at[x_col]]), x_col))
                ys.append(finite(float(fields[at[y_col]]), y_col))
            except ValueError as exc:
                raise InputError(f"row {i}: bad value in {x_col!r} or {y_col!r}: {exc}") from None
        return xs, ys

    xs, ys = _parse_file(table, columns)
    n = len(xs)
    correlations = {"r_p": pearson(xs, ys), "r_s": spearman(xs, ys)}
    intervals = {}
    for label, r in correlations.items():
        for level in Z_CRITICAL:
            # the Fisher transform diverges at |r| = 1; treat float-rounded
            # perfect correlation the same way instead of printing (1, 1)
            ci = fisher_ci(r, n, level) if abs(r) < 1.0 - 1e-12 and n >= 4 else None
            intervals[f"{label}_ci{int(level * 100)}"] = None if ci is None else {"lower": ci.lower, "upper": ci.upper}
    rows = [{"quantity": "n", "value": str(n)}] + [{"quantity": q, "value": r} for q, r in correlations.items()]
    for key, ci in intervals.items():
        rows += [{"quantity": f"{key}_{end}", "value": None if ci is None else ci[end]} for end in ("lower", "upper")]
    _emit(fmt, {"n": n, **correlations, "intervals": intervals}, {"quantity": TEXT, "value": RATIO}, rows)


if __name__ == "__main__":
    main()
