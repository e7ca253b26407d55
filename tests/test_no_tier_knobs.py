"""Every size-tier decision (driver, broadcast or distributed plan) goes
through ``ops/util.py::plan_tier``, in bytes against the package's two
budgets. A per-operator row-count knob — ``small_threshold`` and its
kin — or a caller forcing a tier by keyword would bring back the
per-site sizing this replaced, one operator at a time. Tests and the
tier-3 twins force a tier with ``ops/util.py::tier_budgets``.

Semantic and skew parameters are not size tiers and stay: the hot-key
thresholds, the exact-set collapse and dense-tier cutovers, and the
similarity thresholds (``ALLOWED``)."""

import ast
import os
import re

import no_fasel_scrapers_ray

PKG = os.path.dirname(no_fasel_scrapers_ray.__file__)
OPS = os.path.join(PKG, "ops")
SOURCES = sorted(
    [os.path.join(OPS, n) for n in os.listdir(OPS) if n.endswith(".py")]
    + [os.path.join(os.path.dirname(PKG), "__ray_entry__.py")])
DELETED = {"small_threshold", "broadcast_edge_threshold", "broadcast_nodes",
           "tier3_threshold", "broadcast_cutover", "broadcast_vocab_limit",
           "driver_threshold", "max_candidates", "force_bsp",
           "force_distributed"}
SIZE_NAME = re.compile(r".*_threshold|.*_cutover|broadcast_.*|.*_limit")
ALLOWED = {"hot_threshold", "hot_df_threshold", "jaccard_threshold",
           "dup_group_cutover", "dense_cutover"}
RULE = "plan_tier"       # the rule's own inputs are sizes by design


def _knob(name: str) -> bool:
    return name in DELETED or (bool(SIZE_NAME.fullmatch(name))
                               and name not in ALLOWED)


def _trees():
    for path in SOURCES:
        with open(path, encoding="utf-8") as fp:
            yield os.path.relpath(path, os.path.dirname(PKG)), \
                ast.parse(fp.read())


def test_no_public_function_takes_a_tier_knob():
    hits = []
    for rel, tree in _trees():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and \
                    not fn.name.startswith("_") and fn.name != RULE:
                args = fn.args.args + fn.args.kwonlyargs
                hits += [f"{rel}: {fn.name}({a.arg})" for a in args
                         if _knob(a.arg)]
    assert not hits, "tier-knob parameters:\n" + "\n".join(hits)


def test_no_call_passes_a_tier_knob():
    hits = []
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or \
                getattr(node.func, "attr", "")
            if name == RULE:
                continue
            hits += [f"{rel}:{node.lineno}: {kw.arg}=" for kw in node.keywords
                     if kw.arg and _knob(kw.arg)]
    assert not hits, "calls passing tier knobs:\n" + "\n".join(hits)


def test_no_size_comparison_against_a_knob():
    hits = []
    for rel, tree in _trees():
        rule = {id(n) for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == RULE
                for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in rule:
                hits += [f"{rel}:{node.lineno}: {n.id}"
                         for n in [node.left, *node.comparators]
                         if isinstance(n, ast.Name) and _knob(n.id)]
    assert not hits, "size comparisons outside plan_tier:\n" + \
        "\n".join(hits)


def test_budgets_are_defined_only_in_util():
    hits = []
    for base, _dirs, names in os.walk(os.path.dirname(PKG)):
        if "tests" in base.split(os.sep) or "perfbench" in base:
            continue
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as fp:
                tree = ast.parse(fp.read())
            hits += [f"{os.path.relpath(path, os.path.dirname(PKG))}:"
                     f"{t.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     for t in node.targets
                     if isinstance(t, ast.Name) and t.id in
                     ("DRIVER_LIMIT_BYTES", "BROADCAST_LIMIT_BYTES")]
    assert hits and all(h.startswith(os.path.join(
        "no_fasel_scrapers_ray", "ops", "util.py")) for h in hits), hits
