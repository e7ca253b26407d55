"""The key-shuffle bucket count is derived in one place
(``ops/util.py::shuffle_buckets``) and every key shuffle goes through
``ops/util.py::key_shuffle``. A per-operator count knob, a hard-coded
count or a hand-rolled ``groupby("__bucket")`` pass would bring back
the per-site sizing this replaced, one operator at a time."""

import ast
import os
import re

import no_fasel_scrapers_ray

PKG = os.path.dirname(no_fasel_scrapers_ray.__file__)
OPS = os.path.join(PKG, "ops")
SOURCES = sorted(
    [os.path.join(OPS, n) for n in os.listdir(OPS) if n.endswith(".py")]
    + [os.path.join(os.path.dirname(PKG), "__ray_entry__.py")])
COUNT_NAME = re.compile(r"(n_?|num_?)?buckets?|bucket_count")


def _trees():
    for path in SOURCES:
        with open(path, encoding="utf-8") as fp:
            yield os.path.relpath(path, os.path.dirname(PKG)), \
                ast.parse(fp.read())


def _is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_no_public_function_takes_a_bucket_count():
    hits = []
    for rel, tree in _trees():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and \
                    not fn.name.startswith("_"):
                args = fn.args.args + fn.args.kwonlyargs
                hits += [f"{rel}: {fn.name}({a.arg})" for a in args
                         if COUNT_NAME.fullmatch(a.arg)]
    assert not hits, "bucket-count parameters:\n" + "\n".join(hits)


def test_no_call_passes_a_literal_bucket_count():
    hits = []
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            hits += [f"{rel}:{node.lineno}: {kw.arg}={kw.value.value}"
                     for kw in node.keywords
                     if kw.arg and COUNT_NAME.fullmatch(kw.arg)
                     and _is_int(kw.value)]
            name = getattr(node.func, "id", None) or \
                getattr(node.func, "attr", "")
            if "bucket" in name and any(_is_int(a) for a in node.args):
                hits.append(f"{rel}:{node.lineno}: {name}(<literal>)")
    assert not hits, "literal bucket counts:\n" + "\n".join(hits)


def test_bucket_groupby_only_inside_key_shuffle():
    hits = []
    for rel, tree in _trees():
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "groupby"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and "bucket" in str(node.args[0].value)
                    and (rel, owner.get(node)) !=
                    (os.path.join("no_fasel_scrapers_ray", "ops",
                                  "util.py"), "key_shuffle")):
                hits.append(f"{rel}:{node.lineno}")
    assert not hits, "bucket groupby outside key_shuffle:\n" + \
        "\n".join(hits)


def test_graph_kernels_share_one_split_and_one_fanout():
    with open(os.path.join(OPS, "graph.py"), encoding="utf-8") as fp:
        tree = ast.parse(fp.read())
    names = [n.name for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef)]
    assert "_bucketize" not in names
    # the one `n > 1`-style branch: _fan unwraps a 1-tuple result
    branches = [n for n in ast.walk(tree)
                if isinstance(n, ast.Compare) and len(n.comparators) == 1
                and _is_int(n.comparators[0])
                and n.comparators[0].value == 1
                and isinstance(n.left, ast.Name)
                and n.left.id in ("n", "n_buckets")]
    assert len(branches) <= 1
