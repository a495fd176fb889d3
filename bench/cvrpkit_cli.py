"""Launcher for the ``cvrpkit`` command, used by the ``files`` workload.

Runs ``cvrpkit.cli.main()`` as the ``cvrpkit`` console-script entry point
declared in pyproject.toml does, with the source tree put on ``sys.path``
in place of an installed package. ``python -m cvrpkit.cli`` cannot be used
instead: cli.py has no ``__main__`` guard and the package no
``__main__.py``, so that command exits 0 without doing anything.

Two environment variables make the launcher report on itself at exit:
CVRPBENCH_SPANS names a file for the spans of bench/spans.py, and
CVRPBENCH_RSS a file for the process's peak resident memory in kB. That
peak is read from /proc because a parent's view of a child's peak
includes the parent's own pages, which the child held until exec.

    python3 bench/cvrpkit_cli.py trp pattern.csv
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run() -> None:
    from cvrpkit.cli import main

    spans_path = os.environ.get("CVRPBENCH_SPANS")
    rss_path = os.environ.get("CVRPBENCH_RSS")
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        sys.exit(main())
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
        if rss_path:
            with open(rss_path, "w", encoding="ascii") as fh:
                fh.write(str(_peak_rss_kb()))


if __name__ == "__main__":
    run()
