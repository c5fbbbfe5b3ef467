"""numpy, loaded on its first attribute access.

Every module of the package takes `np` from here. The closed-form commands
(`qfi`, `table1`, `channel`) compute with `math` alone, so a process that
runs only them never pays for importing numpy (about 0.1 s on a 2-CPU
x86_64 machine); the first array operation anywhere loads it. The module
object is the one `importlib.util.LazyLoader` puts in `sys.modules`, which
turns into the plain numpy module as it loads, so code that runs after
that pays nothing per call. If numpy is already imported, `np` is that
module.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """The module `name`, imported on first attribute access (the `importlib` recipe)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_module("numpy")
