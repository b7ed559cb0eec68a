(** The mobisim job daemon: an NDJSON request/response protocol over a
    Unix-domain socket.

    All socket and wire I/O in the repository lives in this library
    (enforced by mobilint's [io] rule); front ends talk to a daemon only
    through {!Client}.

    {2 Protocol}

    A connection carries one request — a single JSON line — and one
    response — one or more JSON lines, then EOF. Requests:

    - [{"op":"submit","text":"<scenario file bytes>"}] (optional
      ["filename"], for diagnostics). Response: a header
      [{"ok":true,"hash":H,"cells":C,"trials":T,"runs":R}] followed by
      one result line per run (the {!Runner} body). Without
      ["progress"], a warm submit's response is byte-identical to the
      cold one — the cache-correctness contract. With
      ["progress":true] the body is {e streamed}: each result line is
      written the moment it is both persisted and preceded only by
      already-written lines, interleaved with
      [{"progress":{"done":d,"total":n}}] lines — the result lines of
      a streamed response, in order, are byte-identical to the
      non-streamed body at any jobs count, cold or warm. With
      ["series":true] the daemon additionally records one per-step
      {!Obs.Series} per cell into [<root>/series/<cell hash>.series.json]
      (an extra trial-0 run after the sweep; the artifact bytes are
      unchanged).
    - [{"op":"check","text":...}]: compile only; [{"ok":true,...}]
      header (no body) or [{"ok":false,"errors":[...]}].
    - [{"op":"health"}]: [{"ok":true,"jobs":J,"served":N,"pending":P}].
    - [{"op":"metrics"}]: one line, the compact {!Obs.Snapshot} of the
      daemon's registry (cache hit/miss and cells-computed counters,
      pool stats); ["format"] is ["json"] (the default) or ["prom"].
      With ["format":"prom"], the same registry in
      Prometheus text exposition format ({!Obs.Snapshot.to_prometheus})
      instead.
    - [{"op":"watch","interval_ms":M,"count":N}]: stream one compact
      snapshot line every [M] ms (a positive integer, default 1000),
      [N] times (a non-negative integer; absent or 0 = until the client
      hangs up). The daemon is single-threaded, so
      a watch occupies the accept loop for its duration.
    - [{"op":"shutdown"}]: acknowledge and exit the accept loop.

    Each request is decoded once ({!decode_request}) through
    {!Obs.Pjson}'s typed readers. A request that is not JSON, lacks
    ["op"] or ["text"], names an unknown op, or has a mistyped or
    out-of-range field (["progress":"yes"], ["interval_ms":0],
    ["count":-1], ["format":"xml"]) is rejected with
    [{"ok":false,"errors":["line:col: ..."]}], positioned in the request
    line; no field falls back to its default. Unknown fields are
    ignored.

    {2 Durability}

    Every accepted submit is checkpointed ({!Checkpoint}) before it
    runs and its body is persisted to [<root>/results/<hash>.ndjson]
    (atomically) when it completes. On start the daemon replays pending
    checkpoints before listening; a daemon killed mid-sweep thus
    converges to the same artifact bytes as an uninterrupted one, with
    already-cached cells not recomputed. *)

type config = {
  root : string;  (** service state directory (cache/pending/results) *)
  socket_path : string;
  jobs : int;  (** worker-pool size for sweep fan-out *)
}

val default_root : unit -> string
(** [$MOBISIM_HOME] if set, else [.mobisim] in the current directory. *)

val default_socket : root:string -> string
(** [<root>/daemon.sock]. *)

(** A decoded request, one constructor per op (see the protocol above). *)
type request =
  | Submit of {
      text : string;
      filename : string option;
      progress : bool;
      series : bool;
    }
  | Check of { text : string; filename : string option }
  | Health
  | Metrics of { prom : bool }
  | Watch of { interval_ms : int; count : int }  (** [count] 0 = no end *)
  | Shutdown

val decode_request : string -> (request, string) result
(** Decode one request line; the error reads ["line:col: message"]. *)

val serve : ?quiet:bool -> config -> unit
(** Run the daemon until a shutdown request: replay pending
    checkpoints, bind the socket (replacing a stale socket file),
    accept one connection at a time. [quiet] silences the stderr
    status lines. *)

(** Front-end side of the protocol. *)
module Client : sig
  val request :
    socket_path:string -> string -> (string, string) result
  (** Send one request line, return the raw response bytes (all lines,
      as sent). [Error] describes a connect/IO failure, e.g. no daemon
      listening. *)

  val request_stream :
    socket_path:string ->
    on_line:(string -> unit) ->
    string ->
    (unit, string) result
  (** Like {!request}, but deliver each response line (newline
      included) to [on_line] as it arrives — the incremental reader
      behind [submit --progress] and [serve-watch]. The concatenation
      of the delivered lines equals {!request}'s bytes for the same
      request. *)
end
