"""The README's library examples run against the package as it is."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_examples_run_in_order():
    """Every ```python block under "## Library use" runs, in order, in one
    namespace, as a reader would paste them."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) >= 4
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["res"].converged
    assert namespace["mean_states"].shape == (namespace["grid"].N + 1,)
