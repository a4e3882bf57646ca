"""The benchmark tracer's patch sites exist in the package.

``bench/spans.py`` wraps each public function at the places where the
package looks it up, by (module, attribute).  A refactor that moves or
renames one of those names must fail here, not in a traced benchmark run.
The span table is read from the file's source, so nothing under ``bench/``
is imported or written.
"""

import ast
import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def span_table():
    tree = ast.parse(SPANS_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no SPANS table")


def test_every_span_site_resolves():
    table = span_table()
    assert table
    for name, (_metric, sites) in table.items():
        layer, _, func = name.partition(".")
        assert sites, name
        for where, attr in sites:
            mod_name, _, cls_name = where.partition(".")
            owner = importlib.import_module(f"quantour.{mod_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            # the tracer reads owner.__dict__[attr], so the name must be
            # bound on the owner itself
            assert attr in owner.__dict__, (name, where, attr)
            if not cls_name:
                public = getattr(importlib.import_module(f"quantour.{layer}"), func)
                assert owner.__dict__[attr] is public, (name, where, attr)
