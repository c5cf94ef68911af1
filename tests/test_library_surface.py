"""`src/modalreg` holds the code the four commands run and nothing more.

A static closure: from ``cli.main``, the module-level code of every
module and the names the benchmark's tracer wraps, follow every name and
attribute that a reached body mentions. A classmethod is reached only
when a reached body mentions it as ``ClassName.method``, the form of
every classmethod call in src; every other name is matched bare.
Matching by name can only over-count what is reached, so a name the CLI
uses is never flagged.

A dataclass field is read when a reached body loads an attribute of its
name or passes its name to ``getattr`` as a string. Matching by name can
only over-count the reads, so a field the CLI reads is never flagged.

A parameter is read when its function's body (nested functions included)
loads its name; defaults and annotations do not count.
"""

import ast
from pathlib import Path

from test_tracing_hooks import load_tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "modalreg"


def _mentions(nodes) -> set:
    """Names and attributes, and ``Name.attr`` for an attribute of a name."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
                if isinstance(n.value, ast.Name):
                    out.add(f"{n.value.id}.{n.attr}")
    return out


def _reads(nodes) -> set:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.add(n.attr)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "getattr" and len(n.args) >= 2
                  and isinstance(n.args[1], ast.Constant)
                  and isinstance(n.args[1].value, str)):
                out.add(n.args[1].value)
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _is_classmethod(node: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "classmethod"
               for d in node.decorator_list)


def _closure():
    """(unreached definitions, reached nodes, dataclass fields) of src."""
    defs, reached = [], {"main", "quadrature_pi_column", "to_csv"}
    reached |= {attr for _, attr, _ in load_tracing().SPANS}
    bodies, fields = [], []
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
                defs += [(f"{qual}.{m.name}",
                          f"{node.name}.{m.name}" if _is_classmethod(m)
                          else m.name, [m]) for m in methods]
                if _is_dataclass(node):
                    fields += [f"{qual}.{s.target.id}" for s in node.body
                               if isinstance(s, ast.AnnAssign)
                               and isinstance(s.target, ast.Name)]
            else:
                reached |= _mentions([node])
                bodies.append(node)
    while hit := [d for d in defs if d[1] in reached]:
        defs = [d for d in defs if d[1] not in reached]
        hit_nodes = [n for _, _, body in hit for n in body]
        reached |= _mentions(hit_nodes)
        bodies += hit_nodes
    return defs, bodies, fields


def unreached_public_names() -> list:
    defs, _, _ = _closure()
    return sorted(q for q, name, _ in defs if not name.startswith("_"))


def unread_fields() -> list:
    _, bodies, fields = _closure()
    read = _reads(bodies)
    return sorted(f for f in fields if f.rsplit(".", 1)[1] not in read)


def unread_parameters() -> list:
    """``module.function.parameter`` for every parameter of a function in
    src, methods and nested functions included, that its body never
    reads."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.FunctionDef):
                qual = f"{prefix}.{child.name}"
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if p is not None]
                loads = {n.id for stmt in child.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load)}
                out.extend(f"{qual}.{p}" for p in params if p not in loads)
                visit(child, qual)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(out)


def test_every_public_name_is_reached_from_the_cli():
    assert unreached_public_names() == []


def test_every_dataclass_field_is_read_from_the_cli():
    assert unread_fields() == []


def test_every_parameter_is_read():
    # The four commands share the dispatch signature (cfg, out_dir, force)
    # through cli._COMMANDS; check runs past no gate, so it ignores force.
    exempt = {"cli.cmd_check.force"}
    assert [p for p in unread_parameters() if p not in exempt] == []


def import_only_names() -> list:
    """``module.name`` for every name a module of src binds by ``import``
    and never loads, unless the benchmark's tracer wraps it there. The
    package's ``__init__`` re-exports its imports and is not searched."""
    traced = {(m, a) for m, a, _ in load_tracing().SPANS}
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loads and (path.stem, name) not in traced:
                        out.append(f"{path.stem}.{name}")
    return sorted(out)


def test_every_imported_name_is_loaded():
    assert import_only_names() == []
