"""What importing the package and its CLI loads, in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect_nor_the_oracle():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize); the
    # oracle is read only by the `oracle` command. The child runs isolated
    # (-I: no PYTHON* variables, no user site), without the site hook (-S),
    # whose .pth files may import anything first, and writes no bytecode
    # (-B, which -I would otherwise not take from the environment); so it
    # counts what hyperdeg loads, from src alone.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hyperdeg, hyperdeg.cli\n"
        "print(hyperdeg.__file__)\n"
        "print(*sorted({'dataclasses', 'inspect', 'hyperdeg.oracle'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    package, loaded = result.stdout.splitlines()
    assert Path(package).parent == SRC / "hyperdeg"
    assert loaded == ""
