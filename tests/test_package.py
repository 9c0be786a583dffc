import re
import types
from pathlib import Path

import equisplit

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert match, "README has no Library section"
    return match.group(1)


def test_exports_are_documented():
    section = library_section()
    for name in equisplit.__all__:
        assert hasattr(equisplit, name), name
        assert f"`{name}`" in section, f"{name} is exported but not in README's Library section"
    # perfbench reads these classes as package attributes
    assert equisplit.LaurentPoly is equisplit.laurent.LaurentPoly
    assert equisplit.LaurentMatrix is equisplit.linalg.LaurentMatrix


def test_no_undeclared_exports():
    public = {
        name
        for name, value in vars(equisplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(equisplit.__all__)
    assert len(equisplit.__all__) == len(set(equisplit.__all__))

