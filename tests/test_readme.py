import ast
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


def test_readme_export_list_matches_all():
    # Every name in __all__ resolves, and every backticked identifier in
    # the README's "Lower-level pieces are exported too" paragraph is one
    # of them, so a name dropped from the package but left in the README
    # fails here.
    import slicedconv
    missing = [n for n in slicedconv.__all__ if not hasattr(slicedconv, n)]
    assert not missing
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    para = re.search(r"^Lower-level pieces are exported too:.*?(?=\n\n)",
                     text, re.M | re.S)
    assert para
    named = set(re.findall(r"`([A-Za-z_]\w*)`", para.group(0)))
    assert {"ConvPlan", "pack_filter", "RunCounters"} <= named
    assert named <= set(slicedconv.__all__), named - set(slicedconv.__all__)


def test_library_defines_nothing_uncalled():
    # Every function and class in src/slicedconv, dunders aside, is either
    # referenced by name (a Name or an Attribute) somewhere in the package
    # or named in the README as API. A helper that only the tests call
    # belongs in the tests (as tiling_oracle.py and packing_oracle.py do).
    defined, referenced = {}, set()
    for path in sorted((REPO_ROOT / "src" / "slicedconv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert len(defined) > 50
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    uncalled = {name: where for name, where in defined.items()
                if not (name.startswith("__") and name.endswith("__"))
                and name not in referenced
                and not re.search(rf"\b{re.escape(name)}\b", readme)}
    assert not uncalled, uncalled
