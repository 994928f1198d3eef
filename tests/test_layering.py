"""The import-direction lint is part of tier 1: layering is a test, not a
convention. ``scripts/check_layering.py`` is loaded by file path (scripts/
is not a package) and run against the real tree plus synthetic trees that
prove each rule actually fires."""

import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "check_layering.py")


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def _tree(tmp_path, files):
    root = tmp_path / "src" / "repro"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(root)


class TestRepositoryIsClean:
    def test_no_violations_in_tree(self):
        assert checker.check() == []

    def test_cli_exit_status(self):
        result = subprocess.run(
            [sys.executable, SCRIPT], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "layering OK" in result.stdout


class TestRulesFire:
    def test_nn_importing_baselines_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"nn/bad.py": "from repro.baselines import make_forecaster\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.baselines" in violations[0]

    def test_nn_may_use_pipeline_leaves_only(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "nn/good.py": "from repro.pipeline import seeding\n",
                "nn/bad.py": "from repro.pipeline import registry\n",
            },
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "bad.py" in violations[0]
        assert "registry" in violations[0]

    def test_experiments_importing_baselines_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"experiments/bad.py": "from repro.baselines.stgcn import STGCNForecaster\n"},
        )
        violations = checker.check(root)
        assert violations and "registry" in violations[0] or "pipeline" in violations[0]

    def test_experiments_importing_core_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"experiments/bad.py": "from repro.core.variants import VARIANTS\n"},
        )
        assert checker.check(root)

    def test_leaf_must_stay_dependency_free(self, tmp_path):
        root = _tree(
            tmp_path,
            {"pipeline/seeding.py": "from repro.nn import Trainer\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "dependency-free" in violations[0]

    def test_pipeline_importing_experiments_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"pipeline/runner.py": "from repro.experiments.runner import ExperimentContext\n"},
        )
        assert checker.check(root)

    def test_faults_leaf_must_stay_dependency_free(self, tmp_path):
        root = _tree(
            tmp_path,
            {"faults.py": "from repro.obs import metrics\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "dependency-free" in violations[0]

    def test_substrate_importing_resilience_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"nn/bad.py": "from repro.resilience import RecoveryPolicy\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.resilience" in violations[0]

    def test_resilience_importing_experiments_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"resilience/bad.py": "from repro.experiments.table3 import run_table3\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.experiments" in violations[0]

    def test_resilience_importing_nonleaf_pipeline_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "resilience/good.py": "from repro.pipeline import seeding\n",
                "resilience/bad.py": "from repro.pipeline import runner\n",
            },
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "bad.py" in violations[0]

    def test_resilience_may_import_nn_obs_faults(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "resilience/good.py": (
                    "from repro import faults\n"
                    "from repro.nn.divergence import DivergenceError\n"
                    "from repro.obs import runlog\n"
                ),
            },
        )
        assert checker.check(root) == []

    def test_from_repro_import_is_resolved_to_submodule(self, tmp_path):
        # `from repro import experiments` must not slip past the lint as an
        # unclassifiable bare-package import.
        root = _tree(
            tmp_path,
            {"nn/bad.py": "from repro import experiments\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.experiments" in violations[0]

    def test_drift_leaf_must_stay_dependency_free(self, tmp_path):
        root = _tree(
            tmp_path,
            {"obs/drift.py": "from repro.obs import metrics\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "dependency-free" in violations[0]

    def test_drift_leaf_rule_resolves_nested_from_import(self, tmp_path):
        root = _tree(
            tmp_path,
            {"obs/drift.py": "from repro.serve import ForecastService\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.serve" in violations[0]

    def test_serve_importing_report_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/bad.py": "from repro.obs import report\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "report" in violations[0]

    def test_serve_may_use_live_obs_surfaces(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "serve/good.py": (
                    "from repro.obs import metrics\n"
                    "from repro.obs import tracing\n"
                    "from repro.obs import serve_metrics\n"
                    "from repro.obs.drift import DriftDetector\n"
                ),
            },
        )
        assert checker.check(root) == []

    def test_fusion_importing_layers_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"nn/fusion.py": "from repro.nn.layers.convlstm import ConvLSTM2DCell\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "pure executor" in violations[0]

    def test_fusion_importing_other_substrate_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"nn/fusion.py": "from repro.obs import metrics\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.obs.metrics" in violations[0]

    def test_fusion_allowed_surfaces_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "nn/fusion.py": (
                    "from repro.nn import engine\n"
                    "from repro.nn import ops\n"
                    "from repro.nn.tensor import Tensor, make_op\n"
                ),
            },
        )
        assert checker.check(root) == []

    def test_store_importing_repro_layers_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"store/bad.py": "from repro.obs import metrics\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "self-contained leaf" in violations[0]

    def test_store_importing_third_party_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"store/bad.py": "import pandas\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "only the stdlib and numpy" in violations[0]

    def test_store_stdlib_numpy_and_internal_imports_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "store/good.py": (
                    "import math\n"
                    "import numpy as np\n"
                    "from repro.store.chunks import ChunkBuffer\n"
                    "from numpy.lib.stride_tricks import sliding_window_view\n"
                ),
            },
        )
        assert checker.check(root) == []

    def test_stride_tricks_outside_store_are_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "data/bad.py": (
                    "import numpy as np\n"
                    "view = np.lib.stride_tricks.sliding_window_view\n"
                ),
                "serve/bad.py": (
                    "from numpy.lib.stride_tricks import as_strided\n"
                ),
            },
        )
        violations = checker.check(root)
        assert len(violations) == 2
        assert all("repro.store" in line for line in violations)

    def test_stride_tricks_in_nn_ops_are_flagged(self, tmp_path):
        # The conv kernels lower to im2col with plain slicing; no module
        # outside the store is exempt.
        root = _tree(
            tmp_path,
            {
                "nn/ops/conv.py": (
                    "from numpy.lib.stride_tricks import sliding_window_view\n"
                ),
            },
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.store" in violations[0]

    def test_data_windows_must_route_through_store(self, tmp_path):
        root = _tree(
            tmp_path,
            {"data/windows.py": "import numpy as np\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "route through the store" in violations[0]

    def test_data_windows_importing_store_passes(self, tmp_path):
        root = _tree(
            tmp_path,
            {"data/windows.py": "from repro.store.windows import supervised_pairs\n"},
        )
        assert checker.check(root) == []

    def test_gateway_importing_beyond_serve_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/gateway.py": "from repro.data.datasets import dataset_from_tensor\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "serve.gateway imports only repro.serve" in violations[0]

    def test_gateway_importing_obs_directly_is_flagged(self, tmp_path):
        # Even a layer serve may normally use: the gateway goes through the
        # serve re-exports so rule 12 stays a one-line import surface.
        root = _tree(
            tmp_path,
            {"serve/gateway.py": "from repro.obs import metrics\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "serve.gateway" in violations[0]

    def test_gateway_importing_numpy_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/gateway.py": "import numpy as np\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "stdlib externals" in violations[0]

    def test_gateway_stdlib_plus_serve_passes(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "serve/gateway.py": (
                    "import json\n"
                    "from http.server import ThreadingHTTPServer\n"
                    "from repro.serve.shard import ShardRouter, tracing\n"
                ),
            },
        )
        assert checker.check(root) == []

    def test_shard_importing_experiments_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/shard.py": "from repro.experiments.runner import ExperimentContext\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.experiments" in violations[0]

    def test_shard_importing_baselines_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/shard.py": "from repro.baselines.persistence import PersistenceForecaster\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "registry" in violations[0]

    def test_adapt_importing_pipeline_runner_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/adapt.py": "from repro.pipeline.runner import execute\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "loading/spec" in violations[0]

    def test_adapt_importing_resilience_submodule_is_flagged(self, tmp_path):
        root = _tree(
            tmp_path,
            {"serve/adapt.py": "from repro.resilience.policy import run_with_recovery\n"},
        )
        violations = checker.check(root)
        assert len(violations) == 1
        assert "repro.resilience package surface" in violations[0]

    def test_adapt_allowed_seams_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "serve/adapt.py": (
                    "from repro.pipeline.loading import warm_start_forecaster\n"
                    "from repro.pipeline.spec import RunSpec\n"
                    "from repro.resilience import run_with_recovery\n"
                )
            },
        )
        assert checker.check(root) == []

    def test_clean_tree_passes(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "pipeline/registry.py": "from repro.baselines import FORECASTERS\n",
                "baselines/base.py": "from repro.pipeline import forecast\n",
                "experiments/runner.py": "from repro.pipeline import RunSpec\n",
            },
        )
        assert checker.check(root) == []
