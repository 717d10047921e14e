import contextlib
import importlib
import io
import math
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import gwel


def test_every_exported_name_resolves():
    # a name deleted from a module must leave its __all__ and the package's
    modules = [gwel] + [
        importlib.import_module(f"gwel.{info.name}")
        for info in pkgutil.iter_modules(gwel.__path__)
    ]
    assert {"gwel.growth", "gwel.lattice"} <= {mod.__name__ for mod in modules}
    for mod in modules:
        names = getattr(mod, "__all__", ())  # cli, errors and words declare none
        missing = [name for name in names if not hasattr(mod, name)]
        assert missing == [], mod.__name__
        assert len(set(names)) == len(names), mod.__name__


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    comments = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert printed[:2] == comments[:2] == ["4", "[1, 0, 4, 0, 60]"]
    assert float(printed[2]) == pytest.approx(math.log(3) / 2, abs=1e-15)


_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _code(text: str) -> str:
    """The tokens of Python source, one line per source line, without its
    comments and without the strings that stand alone as a statement
    (docstrings): a mention there is not a call."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    lines: dict[int, list[str]] = {}
    for before, tok, after in zip([None, *tokens], tokens, tokens[1:]):
        if tok.type == tokenize.COMMENT or tok.type in _LAYOUT:
            continue
        alone = (before is None or before.type in _LAYOUT) and after.type in _LAYOUT
        if tok.type == tokenize.STRING and alone:
            continue
        lines.setdefault(tok.start[0], []).append(tok.string)
    return "\n".join(" ".join(line) for _, line in sorted(lines.items()))


def _callers_text() -> str:
    """The code of src/gwel and bench/ without the export lists, and of
    the README's python block: the places a public name is called from."""
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r"```python\n(.*?)```", readme, re.S)
    for path in [*sorted((root / "src" / "gwel").glob("*.py")), *sorted((root / "bench").glob("*.py"))]:
        text = path.read_text(encoding="utf-8")
        text = re.sub(r"^__all__ = \[.*?\]", "", text, flags=re.S | re.M)
        if path.name == "__init__.py":  # the package's re-exports
            text = re.sub(r"^from \.\w+ import (\(.*?\)|.*?$)", "", text, flags=re.S | re.M)
        texts.append(text)
    return "\n".join(map(_code, texts))


def test_every_exported_name_has_a_caller():
    # a public name the CLI, the benchmark and the README never name
    # belongs with the oracles in tests/; a mention in a comment or a
    # docstring is not a call
    assert _code('def f():\n    """join"""\n    return g(1)  # join\n') == "def f ( ) :\nreturn g ( 1 )"
    text = _callers_text()
    uncalled = [
        name for name in gwel.__all__
        if not re.search(rf"^(?!\s*(?:def|class) {name}\b).*\b{name}\b", text, re.M)
    ]
    assert uncalled == []
