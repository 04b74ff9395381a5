"""The multi-tenant service end to end, in one process.

Run with::

    python examples/service_demo.py

Boots a :class:`repro.service.ServiceApp` on a private port with a
shared process fleet, then plays the full tenant story against it:

1. **Submit + stream** -- an interactive Lotka-Volterra run streams its
   window statistics over the WebSocket as they are analysed, and the
   collected stream is compared bit-for-bit against a solo batch run of
   the same config (the service's core guarantee).
2. **Fair share under a sweep** -- a saturating sweep (a backlog of
   thousands of quanta, occupancy-capped by per-tenant backpressure)
   runs co-resident with a second interactive run; the fleet accounting
   shows both tenants served.
3. **Steer + cancel** -- the sweep is cancelled mid-run: queued quanta
   are dropped, in-flight ones retire at their quantum boundary, and
   the stream ends with a ``cancelled`` state.

Exits non-zero if the streamed statistics differ from the batch run.
"""

import sys

from repro.pipeline import run_workflow
from repro.service import ServiceApp, ServiceClient
from repro.service.protocol import RunSpec, windows_to_jsonable

INTERACTIVE = {
    "model": "lotka-volterra",
    "label": "interactive",
    "config": {"n_simulations": 8, "t_end": 4.0, "sample_every": 0.2,
               "quantum": 1.0, "window_size": 10, "window_slide": 10,
               "kmeans_k": 2, "seed": 42},
}

SWEEP = {
    "model": "lotka-volterra",
    "label": "sweep",
    "max_inflight": 1,  # backpressure: one engine, so one worker slot;
                        # the deep backlog waits in the run's emitter
    "config": {"n_simulations": 64, "t_end": 300.0, "sample_every": 0.2,
               "quantum": 1.0, "window_size": 50, "window_slide": 50,
               "kmeans_k": 2, "seed": 7},
}


def main() -> int:
    app = ServiceApp(port=0, n_workers=2,
                     backend="processes").start_background()
    try:
        client = ServiceClient(*app.address, timeout=300.0)

        # 1. submit + stream, checked against the batch CLI path
        run_id = client.submit(INTERACTIVE)
        print(f"submitted {run_id} ({INTERACTIVE['label']})")
        streamed = []
        for event in client.stream(run_id):
            if event["type"] == "window":
                mean = event["window"]["window_mean"]
                print(f"  window {event['seq']}: mean={mean}")
                streamed.append(event["window"])
        spec = RunSpec.from_jsonable(INTERACTIVE)
        batch = run_workflow(spec.build_model(), spec.config)
        if streamed != windows_to_jsonable(batch.windows):
            print("FAIL: streamed windows differ from the batch run")
            return 1
        print(f"  {len(streamed)} windows, bit-identical to the batch run")

        # 2. a sweep and an interactive run sharing the fleet
        sweep_id = client.submit(SWEEP)
        co_id = client.submit(INTERACTIVE)
        co_windows = client.stream_windows(co_id)
        print(f"co-resident interactive run: {len(co_windows)} windows "
              f"(identical: {co_windows == streamed})")
        tenants = client.fleet()["tenants"]
        sweep_stats = tenants.get(sweep_id, {})
        print(f"sweep while sharing: {sweep_stats.get('completed', 0)} "
              f"dispatches done, {sweep_stats.get('inflight', 0)} in "
              f"flight (max {sweep_stats.get('max_inflight', 0)})")

        # 3. cancel the sweep mid-run
        client.cancel(sweep_id)
        end = list(client.stream(sweep_id))[-1]
        print(f"sweep after cancel: state={end['state']}, "
              f"{end['windows_streamed']} windows streamed")
        return 0 if co_windows == streamed else 1
    finally:
        app.close()


if __name__ == "__main__":
    sys.exit(main())
