"""``python -m repro.service`` -- run the streaming simulation service.

Example::

    python -m repro.service --port 8642 --workers 8 --backend processes

then from another shell::

    curl -s -X POST localhost:8642/runs -d '{"model": "neurospora", \
        "config": {"n_simulations": 64, "t_end": 120.0}}'
    curl -s localhost:8642/runs/run-1
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.service.app import ServiceApp
from repro.service.fleet import SharedFleet


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Streaming stochastic-simulation service: submit "
                    "runs over HTTP, stream window statistics over "
                    "WebSocket, steer and cancel mid-flight.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listening port (0 picks a free one)")
    parser.add_argument("--workers", type=int,
                        default=max(1, (os.cpu_count() or 2) - 1),
                        help="shared fleet worker slots")
    parser.add_argument("--backend", default="processes",
                        choices=SharedFleet.BACKENDS,
                        help="what the worker slots are")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="default per-tenant bound on quanta "
                             "occupying workers (default: --workers)")
    args = parser.parse_args(argv)

    app = ServiceApp(host=args.host, port=args.port,
                     n_workers=args.workers, backend=args.backend,
                     max_inflight=args.max_inflight)
    print(f"repro.service: {args.backend} fleet x{args.workers}, "
          f"listening on {args.host}:{args.port}", flush=True)
    try:
        app.serve_forever()
    except KeyboardInterrupt:
        print("repro.service: shutting down", flush=True)
        app.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
