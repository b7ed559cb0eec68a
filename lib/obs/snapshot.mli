(** Point-in-time export of a registry.

    Two renderings of the same document: a JSON object with all keys
    sorted (stable across runs up to the measured values themselves —
    goldenable structure, diffable runs) and a fixed-width table for
    humans. The JSON shape is:

    {v
    { "counters":   { "<name>": <int>, ... },
      "gauges":     { "<name>": <float>, ... },
      "histograms": { "<name>": { "count": <int>, "sum_ns": <int>,
                                  "min_ns": <int|null>, "max_ns": <int|null>,
                                  "mean_ns": <float|null>,
                                  "p50_ns": <float|null>,
                                  "p95_ns": <float|null>,
                                  "p99_ns": <float|null>,
                                  "buckets": [[<le_ns|"+Inf">, <count>], ...] },
                      ... } }
    v}

    with empty buckets omitted and the overflow bucket keyed ["+Inf"].
    The [p*_ns] fields estimate the q-quantile from the fixed buckets:
    linear interpolation inside the bucket holding the q-th sample,
    bounded by the recorded exact min/max, [null] on an empty histogram.
    The error is at most the occupied bucket's width.

    Snapshots are reads of lock-free instruments, so a snapshot taken
    {e while domains are still recording} is internally consistent per
    field but not across fields; take final snapshots after the run
    (what [--metrics] does) or accept the skew for mid-run peeks. *)

val to_json : Registry.t -> Json.t

val to_json_string : Registry.t -> string
(** Pretty-printed {!to_json}, newline-terminated. *)

val to_table : Registry.t -> string
(** One line per instrument, aligned, durations humanised; histograms
    include interpolated p50/p95/p99 columns. *)

val to_prometheus : Registry.t -> string
(** The registry in Prometheus text exposition format: every name
    sanitized to [mobisim_<name with non-alphanumerics as _>], counters
    and gauges as single samples, histograms as cumulative
    [_bucket{le="..."}] series (ns edges, [+Inf] overflow) plus [_sum]
    and [_count] — what [mobisim serve-metrics --prom] renders for a
    scrape. *)

val parse : string -> (Json.t, string) result
(** Parse, then check the documented shape — the well-formedness gate
    the CLI's [validate-metrics] command and the [make check] smoke
    test use. *)
