"""The package imports nothing outside the standard library."""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# run without site-packages (-S) or PYTHON* variables (-E), with `src` in
# place of the script directory on sys.path; multiprocessing is imported
# here because `run_grid` imports it only at jobs > 1
PROBE = """
import importlib, pkgutil, sys
sys.path[0] = sys.argv[1]
import multiprocessing, seqseed
for module in pkgutil.iter_modules(seqseed.__path__):
    importlib.import_module("seqseed." + module.name)
loaded = {name.partition(".")[0] for name in sys.modules}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names)
                      - {"seqseed", "__main__", "__mp_main__"})))
"""


def test_every_module_imports_only_the_stdlib():
    result = subprocess.run([sys.executable, "-S", "-E", "-c", PROBE, SRC],
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


def test_probe_sees_a_non_stdlib_module(tmp_path):
    (tmp_path / "seqseed").mkdir()
    (tmp_path / "seqseed" / "__init__.py").write_text("")
    (tmp_path / "seqseed" / "extra.py").write_text("import not_stdlib\n")
    (tmp_path / "not_stdlib.py").write_text("")
    result = subprocess.run(
        [sys.executable, "-S", "-E", "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["not_stdlib"]
