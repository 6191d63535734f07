"""Every public name of the package is production code, or kept on purpose.

A name in a module's ``__all__``, or a public method or property of a class,
that nothing in ``src/qfnet`` reads is code only tests reach.  The few kept
anyway are paper reference code, the independent oracle routes the
acceptance criteria compare against, and the serialisation the pinned
Monte Carlo digests hash.
"""

import ast
from pathlib import Path

import qfnet

KEPT_REFERENCE = {
    # the case counts acceptance criterion 3 checks
    "count_cases",
    "count_cases_bruteforce",
    # the referee's per-call API and the paper's all-equal rules
    "resolve_f_r",
    "resolve_three_party",
    "resolve_f_ae",
    # the two independent routes acceptance criterion 4 compares
    "four_party_symmetric",
    "oracle_click_profile",
}

KEPT_METHODS = {
    # the byte stream the pinned simulate digests hash
    "TrialReport.to_json",
}

TREES = [ast.parse(p.read_text()) for p in Path(qfnet.__file__).parent.glob("*.py")]


def _loaded_names():
    loaded = set()
    for tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def test_every_exported_name_is_read_in_src():
    exported = set()
    for tree in TREES:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {ast.literal_eval(e) for e in node.value.elts}
    assert sorted(exported - _loaded_names()) == sorted(KEPT_REFERENCE)


def test_every_public_method_is_read_in_src():
    loaded = _loaded_names()
    unread = {
        f"{cls.name}.{item.name}"
        for tree in TREES
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("_")
        and item.name not in loaded
    }
    assert sorted(unread) == sorted(KEPT_METHODS)
