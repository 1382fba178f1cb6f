"""Exact service rate regions of q-ary Hamming coded storage systems.

Each name is imported from the submodule that defines it (``from
srrham.srr import membership``).  ``import srrham`` loads no computation
module, so the command line pays only for the modules its subcommand runs.
"""

__version__ = "0.1.0"
