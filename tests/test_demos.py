import ast
import io
import re
import tokenize

import pytest

from conftest import ROOT, _run_python


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_python("-c", tour)
    assert proc.returncode == 0, proc.stderr


def _code_names(path):
    """Identifiers a Python file uses: its NAME tokens, less the names its
    def and class statements define and the attribute names after a dot."""
    names, prev = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and prev not in ("def", "class", "."):
            names.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.string
    return names


def _readme_code():
    """README's fenced blocks and inline code spans before `## Layout`: its
    code, not its prose, nor the layout tree that describes the modules."""
    text = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[0]
    fenced = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    return fenced.findall(text) + re.findall(r"`([^`\n]+)`", fenced.sub("", text))


def test_every_public_name_has_a_caller():
    # a name ohmlab exports is called by the package outside its own def and
    # listings, by a demo, or named in README's code (its prose does not
    # count); flow_projection's one caller is the benchmark's tracer, which
    # times it
    package = ROOT / "src" / "ohmlab"
    tree = ast.parse((package / "__init__.py").read_text())
    exported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_code_names, files + sorted((ROOT / "demos").glob("*.py"))))
    used |= set(re.findall(r"\w+", " ".join(_readme_code())))
    assert not sorted(exported - used - {"flow_projection"}), sorted(exported - used)


def _dotted(node):
    """'a.b.c' for the expression a.b.c, None for anything but names and
    attributes."""
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def test_no_module_imports_a_name_it_never_reads():
    # `from m import n` must be read as n and `import a.b` as a.b or a longer
    # chain; __init__.py is skipped, as its imports are the package's exports
    unread = []
    for path in sorted((ROOT / "src" / "ohmlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        chains = {_dotted(node) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)}
        prefixes = {c.rsplit(".", k)[0] for c in chains - {None} for k in range(c.count(".") + 1)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        unread += [f"{path.name}: {a.asname or a.name}" for node in imports for a in node.names
                   if (a.asname or a.name) not in prefixes]
    assert not unread, unread
