import re

from conftest import REPO_ROOT
from slicedconv.harness import max_relative_error
from slicedconv.reference import rowwise_conv


def test_readme_python_examples_run():
    # The README's ```python blocks run in order in one namespace, as a
    # reader would paste them: the Library example defines the tensors the
    # hook example reuses, so neither can drift from the API.
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) >= 2
    ns = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    assert "my_kernel" in ns and ns["info"].regions
    ref = rowwise_conv(ns["x"], ns["w"], ns["p"])
    assert max_relative_error(ns["out"], ref) <= 1e-4
