"""What importing the package and its CLI loads, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect_nor_the_oracle():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize); the
    # oracle is read only by the `oracle` command.
    code = (
        "import sys, hyperdeg, hyperdeg.cli\n"
        "print(hyperdeg.__file__)\n"
        "print(*sorted({'dataclasses', 'inspect', 'hyperdeg.oracle'} & set(sys.modules)))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    package, loaded = result.stdout.splitlines()
    assert Path(package).parent == SRC / "hyperdeg"
    assert loaded == ""
