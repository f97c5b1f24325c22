"""Process entry of the ``loadcap`` command: ``python -m loadcap`` and the
installed script both run ``run``."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one CLI command in this process and return its exit code.

    The objects that importing numpy and the CLI created live until the
    process exits, so ``gc.freeze`` moves them to the permanent generation
    first: no collection walks them again, the one at exit included.
    Calling ``cli.main`` in-process freezes nothing.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
