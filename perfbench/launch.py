"""Run one cccmap CLI invocation the way the ``cccmap`` console script does.

    python3 perfbench/launch.py [SPANS_PATH OP_ID] -- CCCMAP_ARGS...

With SPANS_PATH the layer wrappers are installed before ``cccmap.cli.main``
runs and the spans are written there when it returns, so a traced op and an
untraced op differ only by the wrappers. The checkout's ``src`` must be on
PYTHONPATH.
"""

import sys


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    tracer = None
    if opts:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.op = int(opts[1])
    import cccmap.cli

    try:
        return cccmap.cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.save(opts[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
