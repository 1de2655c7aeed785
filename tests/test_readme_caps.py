"""README's caps agree with the constants they name.

README states each cap as "`module.MAX_NAME` (value ...".  Every constant it
names must exist in that module, and every value it states must equal the
constant, so a re-measured, renamed or deleted cap cannot leave the text
behind.
"""

import importlib
import re
from pathlib import Path

README = (Path(__file__).parents[1] / "README.md").read_text()
MENTION = re.compile(r"`(\w+)\.(MAX_\w+)`(?: \(([0-9][0-9,]*))?")


def test_every_cap_readme_states_equals_its_constant():
    stated = set()
    for module, name, value in MENTION.findall(README):
        constant = getattr(importlib.import_module(f"parshin.{module}"), name, None)
        assert constant is not None, f"README names {module}.{name}, which does not exist"
        if value:
            assert constant == int(value.replace(",", "")), f"README states {module}.{name} = {value}"
            stated.add(name)
    assert stated >= {"MAX_DIM", "MAX_M", "MAX_TRIALS", "MAX_COCYCLE_TRIALS", "MAX_WORK", "MAX_SLAB_WIDTH"}
