"""`src/modalreg` holds the code the four commands run and nothing more.

A static closure: from ``cli.main``, the module-level code of every
module and the names the benchmark's tracer wraps, follow every name and
attribute that a reached body mentions. Matching by name can only
over-count what is reached, so a name the CLI uses is never flagged.
"""

import ast
from pathlib import Path

from test_tracing_hooks import load_tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "modalreg"


def _mentions(nodes) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached_public_names() -> list:
    defs, reached = [], {"main", "quadrature_pi_column", "to_csv"}
    reached |= {attr for _, attr, _ in load_tracing().SPANS}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            qual = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defs.append((qual, node.name, [node]))
            elif isinstance(node, ast.ClassDef):
                # dunders and fields are part of the class itself
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
                defs.append((qual, node.name, node.bases + node.decorator_list
                             + [m for m in node.body if m not in methods]))
                defs += [(f"{qual}.{m.name}", m.name, [m]) for m in methods]
            else:
                reached |= _mentions([node])
    while hit := [d for d in defs if d[1] in reached]:
        defs = [d for d in defs if d[1] not in reached]
        reached |= _mentions(n for _, _, body in hit for n in body)
    return sorted(q for q, name, _ in defs if not name.startswith("_"))


def test_every_public_name_is_reached_from_the_cli():
    assert unreached_public_names() == []
