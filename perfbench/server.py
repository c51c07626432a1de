"""Server process of the ``q2-serve`` workload.

    python3 perfbench/server.py --seed N --scale S --trace 0|1

Generates the seed's TPC-H, prepares and warms q2 exactly as
``q2-maintain`` does, and serves it through ``SessionServer`` on an
ephemeral localhost port with an open-door tenant budget large enough that
no release is refused.  Protocol on stdout/stdin:

* prints ``READY <port>`` once serving;
* in a traced run, answers each stdin line ``trace on`` / ``trace off``
  with ``ok`` after switching span recording;
* stops serving when its stdin closes (the benchmark process is gone);
* after a ``shutdown`` frame, prints one JSON line (peak RSS, and in a
  traced run the aggregated spans) and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

import harness


def _control(tracer, server) -> None:
    """Serve trace switches from stdin; stdin closing means the benchmark
    process is gone, so stop serving rather than outlive it."""
    for line in sys.stdin:
        command = line.strip()
        if tracer is not None and command in ("trace on", "trace off"):
            tracer.active = command == "trace on"
            print("ok", flush=True)
    server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    harness.use_checkout_src()
    from maintain import prepared_q2
    from repro.serve import SessionServer

    _, _, session = prepared_q2(args.seed, args.scale)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_engine_spans(tracer)
        tracing.install_server_spans(tracer)
    server = SessionServer(session, default_epsilon=1e12)
    server.start_background()
    threading.Thread(target=_control, args=(tracer, server), daemon=True).start()
    print(f"READY {server.port}", flush=True)
    try:
        server.wait()
    finally:
        server.stop()
        session.close()
    summary = {"peak_rss_mb": harness.peak_rss_mb()}
    if tracer is not None:
        tracer.active = False
        summary["trace"] = tracer.aggregate()
        summary["spans"] = tracer.dump()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
