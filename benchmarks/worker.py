"""One benchmark process; started by ``run.py``, never run by hand.

``worker.py setup SRC CONFIG`` imports the program from SRC and
resolves CONFIG.  ``worker.py run SRC CONFIG OUT TRACE`` does the same
and then runs the scenario once into OUT, with layer spans installed
when TRACE is 1.  Each prints one JSON line; its ``done`` field is the
CLOCK_MONOTONIC reading when the configuration was resolved, which the
parent compares with the moment it started this process.
"""

import json
import os
import resource
import sys
import time


def resolve(src: str, config_path: str, tracer=None):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import wmqkd.runner as runner
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(runner.__file__)) != os.path.join(src, "wmqkd"):
        raise ImportError(f"wmqkd imported from {runner.__file__}, not from {src}")
    with open(config_path) as fh:
        raw = json.load(fh)
    if tracer is None:
        config = runner.config_from_dict(raw)
    else:
        tracer.install()
        config = tracer.run("runner.config", runner.config_from_dict, raw)
    return runner, config, {"done": time.monotonic(), "import_s": import_s}


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory.

    ``ru_maxrss`` would also count the parent's resident set, which a
    process started with vfork inherits as its high-water mark at exec;
    ``VmHWM`` starts afresh with the new address space.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(src: str, config_path: str, out: str, traced: bool):
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
    runner, config, record = resolve(src, config_path, tracer)
    config_spans = None
    if traced:
        config_spans = tracer.snapshot()
        tracer.reset()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if traced:
            tracer.run("runner.scenario", runner.run_scenario, config, out)
        else:
            runner.run_scenario(config, out)
    except Exception as exc:  # the points without output count as failed
        error = f"{type(exc).__name__}: {exc}"
        print(error, file=sys.stderr)
    record.update(
        wall_s=time.perf_counter() - t0,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mb=peak_rss_mb(),
        traced=traced, error=error, out=out,
        spans=tracer.snapshot() if traced else None,
        config_spans=config_spans,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(resolve(sys.argv[2], sys.argv[3])[2]))
    else:
        run(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5] == "1")
