"""One timed operation, run as a fresh Python process by run.py.

    python3 perfbench/child.py SPEC.json

SPEC names the config, the CLI argument lists to run, whether to only set
up, whether to trace, the levels to probe and where to write the result.
Set-up is the imports, ``load_config`` and, for the batched engine, its
tables for the config's grid; ``ready`` is stamped once it is done.  The
stamps are ``time.perf_counter`` readings, which on Linux share one
monotonic clock with the parent, so the parent can subtract its own
reading taken just before it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import specwave.cli
    import specwave.config
    import specwave.integrator
    import specwave.mc

    setup = specwave.config.load_config(spec["config"])
    cfg = setup.config
    # the batched engine's tables, which run_chunk would build on its first block;
    # a version of the program without them has nothing to build here
    tables = getattr(specwave.integrator, "_engine_tables", None)
    if spec["tables"] and tables is not None:
        tables(max(cfg.n_ref, cfg.m_noise), cfg.grid.n_points)
    ready = time.perf_counter()

    codes = []
    if not spec["setup_only"]:
        for argv in spec["commands"]:
            codes.append(specwave.cli.main(argv))
    done = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ready": ready, "done": done, "codes": codes,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}

    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.records()
        probes = {}
        block = range(min(specwave.mc.CHUNK_PATHS, spec["probe_paths"]))
        for level in spec["probe_levels"]:
            start = time.perf_counter()
            specwave.integrator.run_chunk(cfg, (level,), block, spec["probe_seed"])
            probes[str(level)] = time.perf_counter() - start
        result["probes"] = probes

    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
