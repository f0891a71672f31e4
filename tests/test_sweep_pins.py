"""Exactness pins for the calibration sweep.

`calibrate --format json` over two populations built here is compared
byte for byte with files under `tests/pins/`, each recorded before the
sweep was restructured, so every r_p and r_s must stay the same float.

- `calibrate-ties.json`: the ratios are small integers, so the ratio-form
  profiles rebuild them exactly and many networks tie on DI, on M/W and
  on M/A; the measured efficiencies tie too.
- `calibrate-untied.json`: the ratios and measurements are full-precision
  floats, so no two DI values tie at any alpha of a 0.01 grid.
"""

from __future__ import annotations

import math
import pathlib
import random

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from dnnreuse.cli import main
from dnnreuse.measure import MEASUREMENT_COLUMNS
from dnnreuse.metrics import _intensities
from dnnreuse.netprofile import load_profiles
from dnnreuse.stats import _average_ranks, _unit_deviations, alpha_grid
from tests.oracles import longhand_unit_deviations, tie_averaged_ranks

PINS = pathlib.Path(__file__).resolve().parent / "pins"


def tied_population(size: int = 300, seed: int = 8) -> tuple[str, str]:
    """Ratio-form profile CSV and one-device measurement CSV with many ties."""
    rng = random.Random(seed)
    profiles = ["model,mc_over_w,mc_over_a,macs"]
    measurements = [",".join(MEASUREMENT_COLUMNS)]
    for i in range(size):
        model = f"net{i:03d}"
        weight_reuse, activation_reuse = rng.randint(5, 40), rng.randint(5, 25)
        macs = rng.choice((10**8, 2 * 10**8, 5 * 10**8, 10**9))
        profiles.append(f"{model},{weight_reuse},{activation_reuse},{macs}")
        # efficiency grows with DI at alpha 0.8, rounded so that rows tie
        latency = round(macs / 1e7 / (0.8 * activation_reuse + 0.2 * weight_reuse) * rng.choice((1, 1.5)), 1)
        power = rng.choice((40.0, 50.0))
        measurements.append(f"{model},P100,1,{power},{latency},224,224,")
    return "\n".join(profiles) + "\n", "\n".join(measurements) + "\n"


def untied_population(size: int = 500, seed: int = 13) -> tuple[str, str]:
    """Ratio-form profile CSV and one-device measurement CSV of full-precision floats."""
    rng = random.Random(seed)
    profiles = ["model,mc_over_w,mc_over_a,macs"]
    measurements = [",".join(MEASUREMENT_COLUMNS)]
    for i in range(size):
        model = f"net{i:03d}"
        weight_reuse, activation_reuse = rng.uniform(5, 400), rng.uniform(5, 250)
        macs = rng.randint(10**8, 10**10)
        profiles.append(f"{model},{weight_reuse!r},{activation_reuse!r},{macs}")
        # efficiency grows with DI at alpha 0.8, with noise
        latency = macs / 1e7 / (0.8 * activation_reuse + 0.2 * weight_reuse) * rng.uniform(0.5, 2.0)
        measurements.append(f"{model},P100,1,{rng.uniform(30, 60)!r},{latency!r},224,224,")
    return "\n".join(profiles) + "\n", "\n".join(measurements) + "\n"


def calibrate_json(tmp_path, profiles: str, measurements: str, *options: str) -> str:
    (tmp_path / "p.csv").write_text(profiles)
    (tmp_path / "m.csv").write_text(measurements)
    args = ["calibrate", "--profiles", str(tmp_path / "p.csv"), "--measurements", str(tmp_path / "m.csv")]
    result = CliRunner().invoke(main, args + ["--format", "json", *options])
    assert result.exit_code == 0, result.output
    return result.stdout


def test_calibrate_json_on_a_tied_population_is_pinned(tmp_path):
    stdout = calibrate_json(tmp_path, *tied_population())
    assert stdout == (PINS / "calibrate-ties.json").read_text(encoding="utf-8")


def test_calibrate_json_on_an_untied_population_is_pinned(tmp_path):
    stdout = calibrate_json(tmp_path, *untied_population(), "--step", "0.01")
    assert stdout == (PINS / "calibrate-untied.json").read_text(encoding="utf-8")


def test_the_untied_population_never_ties_on_di():
    profiles, _ = untied_population()
    pairs = [(p.activation_reuse, p.weight_reuse) for p, _ in load_profiles(profiles).values()]
    for alpha in alpha_grid(0.01):
        dis = _intensities(alpha, *zip(*pairs))
        assert len(set(dis)) == len(dis), alpha


@given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e300, 7.25]), min_size=1, max_size=40))
def test_average_ranks_match_the_tie_averaging_oracle(values):
    assert _average_ranks(values) == tie_averaged_ranks(values)


TINY = 5e-324
# finite series with subnormals, values at the ends of float range, near-ties and ints
SERIES_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([TINY, -TINY, 2 * TINY, 1e308, -1e308, 1.7976931348623157e308, 0.0, -0.0, 1.0, 1.0000000000000002]),
    st.integers(-(2**60), 2**60),
)


@st.composite
def varying_series(draw):
    """A series of at least two distinct values; near-ties come from repeating a value one ulp away."""
    values = draw(st.lists(SERIES_VALUES, min_size=1, max_size=30))
    if draw(st.booleans()):
        near = (math.nextafter(values[0], math.inf), math.nextafter(values[0], -math.inf))
        values += [v for v in near if math.isfinite(v)]
    values.append(draw(SERIES_VALUES.filter(lambda v: v != values[0])))
    return draw(st.permutations(values))


@settings(max_examples=500, deadline=None)
@given(varying_series())
def test_unit_deviations_match_the_three_pass_longhand_to_the_bit(values):
    assert list(map(float.hex, _unit_deviations(values))) == list(map(float.hex, longhand_unit_deviations(values)))


REUSE = st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([TINY, 1e308, 1.7976931348623157e308])


@given(st.sampled_from(alpha_grid(0.05) + [0.3333333333333333, 1e-300]), st.lists(st.tuples(REUSE, REUSE), max_size=30))
def test_the_di_series_is_the_definition_element_by_element(alpha, pairs):
    expected = [(alpha * activation_reuse + (1 - alpha) * weight_reuse) / 4 for activation_reuse, weight_reuse in pairs]
    got = _intensities(alpha, [a for a, _ in pairs], [w for _, w in pairs])
    assert list(map(float.hex, got)) == list(map(float.hex, expected))
