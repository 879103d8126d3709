"""Command-line front end: tensor | bloch | zhikov | spectrum | evolve |
resolvent | validate, JSON/CSV outputs, exit codes 0 (ok), 2 (config or
arguments), 3 (solver).

Importing this module loads no numpy, so `--threads` sets the BLAS thread
variables before the BLAS library reads them; the commands themselves live
in `hcplate.commands`."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

COMMANDS = ("bloch", "evolve", "resolvent", "spectrum", "tensor", "validate",
            "zhikov")


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 thread, got {n}")
    return n


def _limit_threads(parser, n):
    """Set the BLAS thread variables; refused once numpy is loaded, since
    its BLAS library has read them already."""
    if n is None:
        return
    if "numpy" in sys.modules:
        parser.error("argument --threads: numpy is already loaded in this "
                     "process, so the thread limit cannot take effect")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcplate",
        description="Effective models of high-contrast composite plates")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=_thread_count, default=None,
                        help="BLAS threads (at least 1); set before numpy "
                        "loads, so not from a process that loaded it")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    _limit_threads(parser, args.threads)

    from numpy.linalg import LinAlgError

    from . import commands
    from .config import config_hash, load_config
    from .fem.system import SolverError
    try:
        cfg = load_config(args.config)
        chash = config_hash(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code = getattr(commands, f"cmd_{args.command}")(cfg, out, chash)
    except (SolverError, LinAlgError) as exc:
        # LinAlgError is a ValueError raised by LAPACK inside a solve
        if not args.quiet:
            print(f"hcplate: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        if not args.quiet:
            print(f"hcplate: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(f"hcplate {args.command}: ok (outputs in {args.out}, "
              f"config {chash})")
    return code


if __name__ == "__main__":
    sys.exit(main())
