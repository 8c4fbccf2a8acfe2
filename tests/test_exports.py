import ast
import importlib
import inspect
import pkgutil

import pytest

import slimnet

MODULES = ["slimnet", *(f"slimnet.{m.name}" for m in pkgutil.iter_modules(slimnet.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_the_package_exports_one_parameter_record():
    assert slimnet.Params is slimnet.ops.Params
    assert not {"ConvParams", "DenseParams"} & set(slimnet.__all__)


def test_no_module_exports_a_one_hot_encoder():
    # a split holds class indices, as the IDX label files do
    for name in ("one_hot", "one_hot_labels"):
        assert not hasattr(slimnet, name)
        assert not hasattr(slimnet.mnist, name)


def test_a_training_run_is_one_record():
    # `trainer.Run` holds the sampler's state and the result fields
    assert slimnet.Run is slimnet.trainer.Run
    for name in ("TrainResult", "_MinibatchSampler"):
        assert not hasattr(slimnet, name)
        assert not hasattr(slimnet.trainer, name)


def test_a_search_is_one_record():
    # `search.Search` carries the results and the paths it wrote, and makes the sweep's refusals itself
    assert slimnet.Search is slimnet.search.Search
    for name in ("SearchOutput", "resume_ledger"):
        assert not hasattr(slimnet, name)
        assert not hasattr(slimnet.search, name)


def test_the_layer_contract_is_the_layer_and_its_arrays():
    # a kind's forward gets the dropout generator itself, and the network names its layers itself
    assert not hasattr(slimnet.netspec, "ForwardPass")
    assert slimnet.accounting.layer_names is slimnet.netspec.layer_names
    tree = ast.parse(inspect.getsource(slimnet.network))
    imported = {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for name in (node.module, *(alias.name for alias in node.names))}
    assert "accounting" not in imported
