"""The package namespace, and the README's library examples and config."""

import importlib
import pkgutil
import re
from pathlib import Path

import ddprach

README = Path(__file__).parent.parent / "README.md"


def test_package_exports_every_module_name_once():
    """Each module's ``__all__`` is its one list of public names: every name
    in it is the same object under ``ddprach`` and is listed there once."""
    modules = [
        importlib.import_module(f"ddprach.{info.name}")
        for info in pkgutil.iter_modules(ddprach.__path__)
        if info.name != "cli"  # the command line stays out of the namespace
    ]
    for module in modules:
        for name in module.__all__:
            assert getattr(ddprach, name) is getattr(module, name), name
            assert ddprach.__all__.count(name) == 1, name
    assert len(ddprach.__all__) == sum(len(module.__all__) for module in modules)
    assert "main" not in ddprach.__all__


def test_readme_library_examples_run(capsys):
    """The README's ``python`` blocks run in order in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the first block prints the range of the detected preamble
    assert float(capsys.readouterr().out) > 0


def test_readme_config_shows_the_defaults(tmp_path):
    """The README's ``yaml`` block, loaded as a config file, is the config
    that ``{}`` parses to."""
    (block,) = re.findall(r"^```yaml\n(.*?)^```$", README.read_text(), re.M | re.S)
    (tmp_path / "readme.yaml").write_text(block)
    assert ddprach.load_config(tmp_path / "readme.yaml") == ddprach.parse_config({})
