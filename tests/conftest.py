import pathlib

import pytest
from click.testing import CliRunner
from hypothesis import strategies as st

from dnnreuse.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

NEGATIVE = st.one_of(
    st.integers(max_value=-1).map(str),
    st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False).map(repr),
)


def assert_exit_2(args):
    """Run the CLI on `args`: it must exit 2 with an `error:` line and print nothing on stdout."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, (args, result.output, result.exception)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


@pytest.fixture(scope="session")
def fixture_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def model_dir() -> pathlib.Path:
    return FIXTURES / "models"


@pytest.fixture(scope="session")
def hardware_dir() -> pathlib.Path:
    return FIXTURES / "hardware"
