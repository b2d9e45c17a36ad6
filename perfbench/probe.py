"""Run one ddprach command in a fresh interpreter and time its phases.

    python probe.py RESULT_JSON [--trace SPANS_JSON RUN_ID] -- <ddprach arguments>

Set-up is ``import ddprach``, ``load_config`` on the ``--config`` file and the
preamble ``transmit`` of each configured scheme.  Work is
``ddprach.cli.main(<arguments>)``, the function behind the ``ddprach``
command, CSV writing included.  RESULT_JSON receives both times, the
process's peak resident memory, the numpy/BLAS versions, and the CPU time
the hypervisor stole from the machine during each phase (``/proc/stat``
steal, summed over CPUs; 0 where the kernel does not report it).  With ``--trace``
the layer entry points are wrapped before set-up (see ``tracer.py``) and the
spans are written to SPANS_JSON after the work.
"""

import json
import os
import resource
import sys
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _steal_s() -> float:
    """Seconds of steal on all CPUs since boot, from the kernel's counters."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def _blas() -> str:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def main(argv: list[str]) -> int:
    t0, s0 = time.perf_counter(), _steal_s()
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    result_path = own[0]
    spans_path = own[2] if own[1:2] == ["--trace"] else None

    import ddprach  # noqa: F401  (the import is part of set-up)
    from dataclasses import replace

    from ddprach import cli, experiments

    recorder = None
    if spans_path is not None:
        import tracer

        recorder = tracer.Recorder(int(own[3]))
        tracer.install(recorder)
    # module attributes, so that a traced run sees these calls
    cfg = cli.load_config(cli_args[cli_args.index("--config") + 1])
    for scheme in cfg.schemes:
        experiments.transmit(replace(cfg.waveform, modulation=scheme))
    t1, s1 = time.perf_counter(), _steal_s()
    code = cli.main(cli_args)
    t2, s2 = time.perf_counter(), _steal_s()

    import numpy

    result = {
        "setup_s": t1 - t0,
        "work_s": t2 - t1,
        "setup_steal_s": s1 - s0,
        "work_steal_s": s2 - s1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": _blas(),
    }
    if recorder is not None:
        recorder.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
