"""Run one pipeline stage in this process, optionally traced.

    python3 perfbench/stage.py --rss FILE [--spans FILE] cli <tagrec arguments...>
    python3 perfbench/stage.py --rss FILE [--spans FILE] encode|serve CONFIG.json OUT.json

``cli`` runs a ``tagrec`` command through the package's own ``main``;
``encode`` and ``serve`` run the benchmark's own stages (see ``serve.py``)
and write their result to OUT.json. With
``--spans`` the layer functions are wrapped before the stage starts, and the
recorded spans and counts are written to FILE when it ends.

The stage's peak RSS is written to the ``--rss`` file in MB. It is read from
``VmHWM``, the high-water mark of this process's own address space: the
``ru_maxrss`` a parent gets from ``wait4`` also counts the parent's own peak,
which the child inherits at fork.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import serve  # noqa: E402
import tracing  # noqa: E402
from tagrec import cli  # noqa: E402


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if argv[:1] != ["--rss"]:
        raise SystemExit(__doc__)
    rss_path, argv = argv[1], argv[2:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]

    tracer = None
    if spans_path is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if kind == "cli":
            code = cli.main(rest)
        elif kind in ("encode", "serve"):
            serve.main(kind, rest[0], rest[1], tracer)
            code = 0
        else:
            raise SystemExit(f"unknown stage kind {kind!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
        Path(rss_path).write_text(f"{peak_rss_mb()}\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
