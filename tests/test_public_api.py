"""README's table of names removed from the public API matches the library."""

import importlib
import pkgutil
import re
from pathlib import Path

import quasifix

README = Path(__file__).resolve().parents[1] / "README.md"


def removed_names() -> list[str]:
    """The backquoted names in the first column of README's removed-names table."""
    section = README.read_text(encoding="utf-8").split("### Removed from the public API")[1]
    rows = [line for line in section.split("\n## ")[0].splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`([\w.]+)`", row.split("|")[1])]


def cap_table_names() -> list[str]:
    """The backquoted `module.NAME` references to quasifix modules, calls
    included, in README's cap table."""
    section = README.read_text(encoding="utf-8").split("| cap | worst valid input inside it |")[1]
    rows = [line for line in section.split("\n\n")[0].splitlines() if line.startswith("| ")]
    modules = "|".join(module.name for module in pkgutil.iter_modules(quasifix.__path__))
    return [name for row in rows for name in re.findall(rf"`((?:{modules})\.\w+)", row)]


def owner(name: str):
    """The package, module or exported class that a dotted prefix names."""
    if name == "quasifix":
        return quasifix
    try:
        return importlib.import_module(f"quasifix.{name}")
    except ModuleNotFoundError:
        return getattr(quasifix, name)


def test_every_name_in_the_removed_table_is_gone():
    names = removed_names()
    assert "matrep.state_from_rows" in names and "Word.__mul__" in names
    for name in names:
        prefix, attr = name.rsplit(".", 1)
        assert not hasattr(owner(prefix), attr), f"{name} is listed as removed but exists"


def test_every_exported_name_resolves():
    assert all(hasattr(quasifix, name) for name in quasifix.__all__)


def test_every_name_in_the_cap_table_resolves():
    names = cap_table_names()
    assert "certify.MAX_CERTIFICATE_BYTES" in names and "cli.MAX_ENDO_BYTES" in names
    for name in names:
        prefix, attr = name.rsplit(".", 1)
        assert hasattr(owner(prefix), attr), f"{name} is cited in the cap table but does not exist"
