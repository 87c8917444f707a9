"""The package namespace: one table names each public name and the submodule
that defines it."""

import importlib

import tncg


def test_every_public_name_resolves_to_its_module():
    names = tncg.__all__
    assert len(names) == len(set(names)) == 84
    misplaced = [
        n for n, m in tncg._EXPORTS.items() if getattr(tncg, n) is not getattr(importlib.import_module(f"tncg.{m}"), n)
    ]
    assert misplaced == []
    scope: dict = {}
    exec("from tncg import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == sorted(names)
