"""The interleaved A/B harness (``scripts/ab.py``), one short round each."""

import importlib.util
import shutil
import sys
from pathlib import Path

import radialflow

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_one_round_against_a_copy_of_itself(capsys):
    ab = load_ab()
    argv = ["--base", "HEAD", "--workload", "small_exact", "--mesh", "60", "--rounds", "1"]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out
    count = len(ab.inputs.plan("small_exact", 1))
    assert f"small_exact: {count} documents, 1 rounds, outputs identical" in out
    assert "mesh n=60: 1 documents, 1 rounds, outputs identical" in out
    assert all(out.count(f"\n{stage} ") == 2 for stage in ab.STAGES)
    base = sys.modules["radialflow_base"]
    assert base.__name__ == "radialflow_base" and base.solve is not radialflow.solve


def test_a_different_output_fails_the_run(tmp_path, capsys):
    # a base whose configuration text gains a trailing space
    base = shutil.copytree(ROOT / "src" / "radialflow", tmp_path / "radialflow",
                           ignore=shutil.ignore_patterns("__pycache__"))
    with open(base / "network_model.py", "a") as module:
        module.write("\n\n_config_to_json = config_to_json\n\n\n"
                     "def config_to_json(net, cfg):\n"
                     "    return _config_to_json(net, cfg) + ' '\n")
    ab = load_ab()
    argv = ["--base-src", str(base), "--workload", "none", "--mesh", "30", "--rounds", "1"]
    assert ab.main(argv) == 1
    captured = capsys.readouterr()
    assert "mesh n=30: 1 documents, 1 rounds, outputs DIFFER" in captured.out
    assert "mesh n=30: document 0 gives different outputs" in captured.err
