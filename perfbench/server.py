"""The serve-closed server process: one ByteSeq2Seq route over HTTP.

Built through :class:`~repro.serve.router.ServiceRouter` and served by
:func:`~repro.serve.http.serve_http` (which binds through
``start_http_server``), with the serving CLI's default service settings.
The model is the ``benchmarks/bench_serve.py`` configuration: an
untrained byte-level transformer (dim 32, 2+1 layers, 48-token decode),
one trial per row.  Run as::

    PYTHONPATH=src python perfbench/server.py [--trace-sample-rate 1]

It prints ``serving on http://HOST:PORT`` once bound and drains on
SIGINT.
"""

from __future__ import annotations

import argparse

#: The serving CLI's default cache settings (``--cache-max-entries``).
CACHE_KWARGS = {"max_entries": 4096}
SEED = 59
N_TRIALS = 1


def byteseq_pipeline():
    """The served pipeline; the benchmark builds the same one as its oracle."""
    from repro.core.pipeline import DTTPipeline
    from repro.model import ByteSeq2SeqModel
    from repro.model.config import DTTModelConfig

    config = DTTModelConfig(
        dim=32,
        n_heads=2,
        encoder_layers=2,
        decoder_layers=1,
        ffn_hidden=64,
        max_input_length=96,
        max_output_length=48,
    )
    return DTTPipeline(ByteSeq2SeqModel(config), n_trials=N_TRIALS, seed=SEED)


def main() -> None:
    from repro.obs.trace import configure_tracing
    from repro.serve.http import serve_http
    from repro.serve.router import RouteSpec, ServiceRouter

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-sample-rate", type=float, default=0.0)
    args = parser.parse_args()
    # Room for every traced request of a run, unlike the CLI's default ring.
    configure_tracing(sample_rate=args.trace_sample_rate, capacity=100_000, slowest=0)
    router = ServiceRouter(
        [RouteSpec("byteseq", byteseq_pipeline)],
        service_kwargs={
            "result_cache_kwargs": CACHE_KWARGS,
            "join_cache_kwargs": CACHE_KWARGS,
        },
    )
    serve_http(router, "127.0.0.1", 0, verbose=False)


if __name__ == "__main__":
    main()
