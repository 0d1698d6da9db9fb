"""The program under test, in its own process: one HTTP query server.

Usage: ``python3 perfbench/server_proc.py --index DIR [--trace] --out FILE``

Builds the server with ``make_server`` at its default options and front
end over one registered index (``default``) on an ephemeral port, prints
``{"port": N}`` once listening, then obeys one command per stdin line:

* ``reset`` -- answer the traced layer counters gathered so far as one
  JSON line (``null`` untraced), then zero them;
* ``stop`` (or end of input) -- shut down, write the final report (the
  peak RSS) to ``--out`` and exit.

With ``--trace`` the layer timers of :mod:`layers` are installed before
the server is built; without it the program runs untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

import common


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    common.bootstrap_env()
    common.import_program()
    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
        layers.install_serving(recorder)
    from repro.service.server import make_server

    server = make_server({"default": args.index}, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": int(server.server_address[1])}), flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stop":
                break
            if cmd != "reset":
                raise SystemExit(f"unknown command {cmd!r}")
            dump = recorder.dump() if recorder is not None else None
            if recorder is not None:
                recorder.reset()
            print(json.dumps(dump), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        report = {"peak_rss_mb": common.peak_rss_mb()}
        with open(args.out, "w") as fh:
            json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
