"""Every public function of the library is run by a command or by the README's Library example.

The golden CLI cases and the README example run in process under
`sys.setprofile`, which sees each Python call. A function, method,
classmethod, staticmethod or property getter counts as public when its
name does not start with `_` and its code lives in the file of the
`dnnreuse` module that defines it, so re-exports and dataclass-generated
methods are left out. A public name that none of them calls is code no
user reaches: delete it, or make a command use it.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import click

import dnnreuse

from test_golden import CASES, run_case

ROOT = pathlib.Path(__file__).resolve().parent.parent


def public_code() -> dict:
    """Code object -> qualified name of each public function, method or property getter in the package."""
    found = {}
    for info in pkgutil.iter_modules(dnnreuse.__path__):
        module = importlib.import_module(f"dnnreuse.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if isinstance(obj, click.Command):
                obj = inspect.unwrap(obj.callback)
            members = {name: obj}
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = {f"{name}.{attr}": value for attr, value in vars(obj).items() if not attr.startswith("_")}
            for qualified, value in members.items():
                value = getattr(value, "__func__", getattr(value, "fget", value))  # classmethod, staticmethod, property
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found[code] = f"{module.__name__}.{qualified}"
    return found


def readme_example() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_every_public_function_is_called_by_a_command_or_the_readme_example(monkeypatch, capsys):
    public = public_code()
    example = compile(readme_example(), "README.md", "exec")
    monkeypatch.chdir(ROOT)  # the example opens its fixtures by relative path
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for name in CASES:
            run_case(name)
        exec(example, {"__name__": "readme_example"})
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    uncalled = sorted(name for code, name in public.items() if code not in called)
    assert not uncalled, f"public but called by no command and not by the README example: {uncalled}"
