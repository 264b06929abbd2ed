"""Where the program under test lives, and the machine record every output
carries.  Import this before anything from `nanoshell`."""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "nanoshell" / "__init__.py"


def use_source_tree():
    """Put the checkout's src/ first on sys.path; False when it is missing,
    so the benchmark never measures some other installed copy."""
    if not PACKAGE.is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": [round(v, 2) for v in os.getloadavg()],
        "note": "shared small box; timings move with other tenants' load",
    }
