"""E8 — Figure 3: stream delegation scales entity intake.

Paper claim (§4): "Relying on a single processor to receive all the
streams is not scalable.  Hence, we assign a processor as the
delegation of each data stream."  We push an increasing number of
streams into an 8-processor entity, once with every stream delegated to
one processor (single receiver) and once with the delegation scheme,
and report the receiving bottleneck.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header
from repro.placement.delegation import DelegationScheme

STREAM_COUNTS = [1, 4, 16, 64]
PROCESSORS = [f"p{i}" for i in range(8)]
STREAM_RATE = 6400.0  # bytes/second each


def intake_profile(stream_count, *, delegated):
    if delegated:
        scheme = DelegationScheme(list(PROCESSORS))
        for i in range(stream_count):
            scheme.assign(f"s{i}", STREAM_RATE)
        rates = [scheme.intake_rate(p) for p in PROCESSORS]
    else:
        rates = [0.0] * len(PROCESSORS)
        rates[0] = STREAM_RATE * stream_count  # single receiver
    return {
        "max_rate": max(rates),
        "mean_rate": sum(rates) / len(rates),
        "receivers": sum(1 for r in rates if r > 0),
    }


def test_delegation_scales_intake():
    results = {}

    def run():
        for count in STREAM_COUNTS:
            results[count] = {
                "single": intake_profile(count, delegated=False),
                "delegated": intake_profile(count, delegated=True),
            }
        return results

    run()

    print_header("E8 / Figure 3 — per-processor intake rate vs #streams")
    table = Table(
        [
            "streams",
            "scheme",
            "receivers",
            "max intake kB/s",
            "mean intake kB/s",
        ]
    )
    for count in STREAM_COUNTS:
        for scheme in ("single", "delegated"):
            r = results[count][scheme]
            table.add_row(
                [
                    count,
                    scheme,
                    r["receivers"],
                    r["max_rate"] / 1e3,
                    r["mean_rate"] / 1e3,
                ]
            )
    table.show()

    # with >= as many streams as processors, delegation divides the
    # bottleneck by roughly the processor count
    single = results[64]["single"]["max_rate"]
    delegated = results[64]["delegated"]["max_rate"]
    emit(
        f"64-stream bottleneck: {single / 1e3:.0f} kB/s (single receiver) "
        f"vs {delegated / 1e3:.0f} kB/s (delegated) — "
        f"{single / delegated:.1f}x relief"
    )
    assert delegated * (len(PROCESSORS) - 1) < single
