"""What the CLI and the package root load at start-up.

A subcommand imports the modules it uses when it runs, and the package
root resolves each exported name on first access, so the parser, --help,
an argument error, `capacity` and the numpy-free names of the package
root (StegoParams, plan_slices) run without numpy. Each start is checked
in a fresh interpreter, since this test process has numpy loaded.
"""

import importlib
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import tempostego
from tempostego import write_wav
from tempostego.audio import PcmBuffer
from tempostego.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Python run in a fresh interpreter with the WAV path in sys.argv[1]; each
# ends by printing whether numpy was loaded
STARTS = {
    "capacity": "from tempostego.cli import main\n"
                "assert main(['capacity', '--in', sys.argv[1], '--phi', '20']) == 0",
    "parser": "from tempostego.cli import build_parser\n"
              "build_parser().parse_args(['capacity', '--in', sys.argv[1]])",
    "help": "from tempostego.cli import main\n"
            "try:\n    main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0",
    "subcommand-help": "from tempostego.cli import main\n"
                       "try:\n    main(['encode', '--help'])\n"
                       "except SystemExit as exc:\n    assert exc.code == 0",
    "argument-error": "from tempostego.cli import main\n"
                      "try:\n    main(['encode', '--in', sys.argv[1]])\n"
                      "except SystemExit as exc:\n    assert exc.code == 2",
    "package-root": "import tempostego\n"
                    "params = tempostego.StegoParams(phi_s=20.0)\n"
                    "print(tempostego.plan_slices(70 * 44100, 44100, params).capacity)",
}


def fresh(code: str, *args: str) -> list[str]:
    """The stdout lines of a fresh interpreter running code (after `import
    sys`) with this checkout's src first on its path."""
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("start", sorted(STARTS))
def test_a_start_that_needs_no_numpy_does_not_load_it(tmp_path, start):
    path = tmp_path / "carrier.wav"
    write_wav(PcmBuffer(np.full(70 * 44100, 0.25), 44100), str(path))
    lines = fresh(STARTS[start] + "\nprint('numpy' in sys.modules)", str(path))
    assert lines[-1] == "False"
    if start in ("capacity", "package-root"):
        assert lines[-2] == "1"


def test_every_exported_name_is_its_home_module_object():
    homes = tempostego._HOME
    assert set(homes) | {"__version__"} == set(tempostego.__all__)
    for name in tempostego.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"tempostego.{homes[name]}")
        value = getattr(tempostego, name)
        assert value is getattr(home, name)
        # a class or function is exported from the module that defines it
        assert getattr(value, "__module__", home.__name__) == home.__name__
    star: dict = {}
    exec("from tempostego import *", star)
    assert {k for k in star if k != "__builtins__"} == set(tempostego.__all__)


def test_dir_covers_all_and_an_unknown_name_raises():
    assert set(tempostego.__all__) <= set(dir(tempostego))
    for module in tempostego._EXPORTS:
        assert getattr(tempostego, module) is importlib.import_module(f"tempostego.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        tempostego.no_such_name  # noqa: B018
    assert not hasattr(tempostego, "wav_frames")


def test_capacity_prints_the_capacity_of_a_float_file_holding_nan(tmp_path, capsys):
    # capacity reads only the header: a float WAV whose samples hold NaN,
    # which read_wav refuses, has a capacity all the same
    path = tmp_path / "nan.wav"
    x = np.full(70 * 44100, 0.25, dtype="<f4")
    x[12345] = np.nan
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + x.nbytes, b"WAVE", b"fmt ", 16,
                         3, 1, 44100, 4 * 44100, 4, 32, b"data", x.nbytes)
    path.write_bytes(header + x.tobytes())
    assert main(["capacity", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["decode", "--in", str(path)]) == 1
    assert "error: NonFiniteSamples" in capsys.readouterr().err
