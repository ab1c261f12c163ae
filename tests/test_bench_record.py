"""tools/bench_record.py writes its provenance, one median per layer and the verify wall clocks."""

import importlib.util
import shutil
import sys
from pathlib import Path

import whitlocal  # noqa: F401  so that record() below imports this package, not the copy

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"

LAYERS = {"exactalg.laurent_product_sum", "exactalg.series_product", "symfunc.schur",
          "zeta.lattice_sum", "reciprocity.matrix_products", "exactalg.to_text",
          "cli.emit_report"}


def test_a_tiny_run_writes_every_key(tmp_path, monkeypatch):
    # the tool byte-compiles the package next to it, so it runs on a copy
    shutil.copytree(ROOT / "src" / "whitlocal", tmp_path / "src" / "whitlocal",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools")
    spec = importlib.util.spec_from_file_location("bench_record_copy", tmp_path / "tools" / TOOL.name)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # record() puts the copy's src first
    # one sample per layer and one verify run
    monkeypatch.setattr(tool, "REPEATS", 1)
    monkeypatch.setattr(tool, "PROCESSES", 1)
    got = tool.record()
    assert set(got) == {"git_sha", "git_dirty", "src_sha256", "python", "nproc", "compiled",
                        "repeats", "layers", "end_to_end"}
    # the digest skips the bytecode that record() has just written into the copy
    assert got["src_sha256"] == tool.source_sha256(ROOT / "src")
    assert got["python"] == ".".join(map(str, sys.version_info[:3]))
    assert got["compiled"] is True and got["repeats"] == 1
    assert set(got["layers"]) == LAYERS
    for layer in got["layers"].values():
        assert set(layer) == {"loops", "median_ms", "samples_ms"}
        assert len(layer["samples_ms"]) == 1
    # the serial run, and the default one process per allowed CPU
    assert {key: verify["argv"] for key, verify in got["end_to_end"].items()} == {
        "verify_all_jobs1": ["verify", "--suite", "all", "--jobs", "1"],
        "verify_all_default": ["verify", "--suite", "all"],
    }
    for verify in got["end_to_end"].values():
        assert set(verify) == {"argv", "processes", "median_s", "samples_s"}
        assert len(verify["samples_s"]) == verify["processes"] == 1
        assert verify["median_s"] == verify["samples_s"][0] > 0
