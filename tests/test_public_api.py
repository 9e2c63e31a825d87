import re
from pathlib import Path

import pytest

import valext

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_names_every_public_name():
    # a public name is one README documents: anything in __all__ that
    # README never names is either documented or taken out of __all__
    text = README.read_text(encoding="utf-8")
    missing = [name for name in valext.__all__ if not re.search(rf"`{name}`", text)]
    assert missing == []


def _public_api_section(text: str) -> str:
    return text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]


def _is_public(span: str) -> bool:
    """A backticked span of the Public API section names something public:
    a file of the repository, or a dotted path (up to any call's arguments)
    that starts at ``valext`` or at an exported name and resolves by
    attribute access, or an attribute of an exported name."""
    if (ROOT / span).is_file():
        return True
    head, *rest = span.split("(", 1)[0].split(".")
    exported = [getattr(valext, name) for name in valext.__all__]
    if head == "valext" or head in valext.__all__:
        obj = valext if head == "valext" else getattr(valext, head)
        for attr in rest:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return not rest and any(
        hasattr(obj, head) or head in getattr(obj, "__dataclass_fields__", ())
        for obj in exported
    )


def _stale_names(text: str) -> list[str]:
    return [span for span in re.findall(r"`([^`]+)`", _public_api_section(text))
            if not _is_public(span)]


def test_every_name_of_the_public_api_section_is_public():
    assert _stale_names(README.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("stale", ["`FreeModule`", "`valext.bogus`", "`FreeAlgebra.bogus(v)`"])
def test_a_stale_name_in_the_public_api_section_is_caught(stale):
    text = README.read_text(encoding="utf-8").replace(
        "`check_algebra_norm`", f"`check_algebra_norm`, {stale}", 1
    )
    assert _stale_names(text) == [stale.strip("`")]
