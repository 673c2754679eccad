"""Child entry point: import the repro CLI and call its main, marking when.

usage: python3 launch.py MODE MARK_FILE [CLI ARGS...]

MODE is one of:
  run           call ``repro.cli.main`` with the CLI args, no wrappers;
  probe         import ``repro.cli`` and exit without calling main;
  trace         wrap every layer in ``layers.LAYERS`` first;
  trace-parent  the same, minus callables that cross the pool boundary.

Just before main is called, MARK_FILE gets the ``time.monotonic()``
reading (a clock shared by every process on the host, so the driver can
subtract its own spawn time) and the path of the imported ``repro``
package. In the trace modes the spans go to ``MARK_FILE.spans`` once
main returns.
"""

import sys
import time


def main() -> int:
    mode, mark = sys.argv[1], sys.argv[2]
    argv = sys.argv[3:]
    import repro
    from repro.cli import main as cli_main

    recorder = None
    if mode in ("trace", "trace-parent"):
        import layers

        recorder = layers.SpanRecorder()
        layers.install(recorder, parent_only=mode == "trace-parent")
    started = time.monotonic()
    with open(mark, "w") as out:
        out.write(f"{started!r}\n{repro.__file__}\n")
    if mode == "probe":
        return 0
    if recorder is None:
        return cli_main(argv)
    code = recorder.wrap(layers.ROOT, cli_main)(argv)
    recorder.dump(mark + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
