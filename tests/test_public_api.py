import re
from pathlib import Path

import valext

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_public_name():
    # a public name is one README documents: anything in __all__ that
    # README never names is either documented or taken out of __all__
    text = README.read_text(encoding="utf-8")
    missing = [name for name in valext.__all__ if not re.search(rf"`{name}`", text)]
    assert missing == []

