module Json = Obs.Json
module Compile = Scenario.Compile

type config = {
  root : string;
  socket_path : string;
  jobs : int;
}

let default_root () =
  match Sys.getenv_opt "MOBISIM_HOME" with
  | Some d when not (String.equal d "") -> d
  | Some _ | None -> Filename.concat (Sys.getcwd ()) ".mobisim"

let default_socket ~root = Filename.concat root "daemon.sock"

(* [<root>/results/<hash>.ndjson] *)
let artifact_path ~root ~hash =
  Filename.concat (Filename.concat root "results") (hash ^ ".ndjson")

(* --- wire helpers -------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

(* Read until the first newline (the request is one JSON line); tolerate
   EOF without a newline. *)
let read_line_fd fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n -> (
        match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | Some i ->
            Buffer.add_subbytes buf chunk 0 i;
            Buffer.contents buf
        | None ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

let json_line j = Json.to_string j ^ "\n"

let error_response errors =
  json_line
    (Json.Assoc
       [
         ("ok", Json.Bool false);
         ("errors", Json.List (List.map (fun e -> Json.String e) errors));
       ])

(* --- requests ------------------------------------------------------------ *)

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
  | Watch of { interval_ms : int; count : int }
  | Shutdown

module Pjson = Obs.Pjson

(* An int of at least [lo]; [what] names the range in the error. *)
let int_from lo what name (v : Pjson.t) =
  Result.bind (Pjson.int name v) (fun n ->
      if n >= lo then Ok n
      else Error (v.Pjson.pos, Printf.sprintf "%s must be %s" name what))

let decode_request line =
  let ( let* ) = Result.bind in
  let fail pos msg = Error (Pjson.format pos msg) in
  let lift = function Ok v -> Ok v | Error (pos, msg) -> fail pos msg in
  match Pjson.parse line with
  | Error (pos, msg) -> fail pos ("bad request: " ^ msg)
  | Ok j -> (
      let opt read name =
        match Pjson.member name j with
        | None -> Ok None
        | Some v -> Result.map Option.some (lift (read name v))
      in
      let field read name ~default =
        Result.map (Option.value ~default) (opt read name)
      in
      let* () = lift (Pjson.obj "request" j) in
      match Pjson.member "op" j with
      | None -> fail j.Pjson.pos "missing \"op\""
      | Some v -> (
          let* op = lift (Pjson.string "op" v) in
          match op with
          | ("submit" | "check") as op -> (
              let* text = opt Pjson.string "text" in
              let* filename = opt Pjson.string "filename" in
              match text with
              | None -> fail j.Pjson.pos (op ^ ": missing \"text\"")
              | Some text when String.equal op "check" ->
                  Ok (Check { text; filename })
              | Some text ->
                  let* progress = field Pjson.bool "progress" ~default:false in
                  let* series = field Pjson.bool "series" ~default:false in
                  Ok (Submit { text; filename; progress; series }))
          | "health" -> Ok Health
          | "metrics" ->
              let format name (v : Pjson.t) =
                Result.bind (Pjson.string name v) (function
                  | "prom" -> Ok true
                  | "json" -> Ok false
                  | _ ->
                      Error
                        (v.Pjson.pos, name ^ " must be \"json\" or \"prom\""))
              in
              let* prom = field format "format" ~default:false in
              Ok (Metrics { prom })
          | "watch" ->
              let* interval_ms =
                field (int_from 1 "a positive integer") "interval_ms"
                  ~default:1000
              in
              let* count =
                field (int_from 0 "a non-negative integer") "count" ~default:0
              in
              Ok (Watch { interval_ms; count })
          | "shutdown" -> Ok Shutdown
          | op -> fail v.Pjson.pos (Printf.sprintf "unknown op %S" op)))

(* --- request handling ---------------------------------------------------- *)

type state = {
  cfg : config;
  store : Store.t;
  pool : Runtime.Pool.t;
  sink : Obs.Sink.t;
  registry : Obs.Registry.t;
  served : int ref;
  mutable stop : bool;
  mutable exhausted : bool;
      (* a run raised Out_of_memory: the heap keeps what the run grew,
         so the daemon restarts in a fresh image once it has answered *)
}

let header_line (c : Compile.compiled) =
  json_line
    (Json.Assoc
       [
         ("ok", Json.Bool true);
         ("hash", Json.String c.Compile.hash);
         ("cells", Json.Int (List.length c.Compile.cells));
         ("trials", Json.Int c.Compile.trials);
         ("runs", Json.Int (Compile.total_runs c));
       ])

(* Run a compiled scenario to completion: checkpoint, sweep, persist
   the artifact, clear the checkpoint. Returns the body, or the error
   line of a sweep that raised (a cell beyond the process's memory, an
   engine check): that job is retired with the error line as its
   artifact, so neither a reply nor a restart runs it again, and
   nothing of it reaches the store. An I/O error (a client hang-up
   while streaming, a failed write) propagates with the checkpoint
   kept, for the next start to resume. *)
let execute ?on_progress ?on_line ?series_dir st (text : string)
    (compiled : Compile.compiled) =
  let root = st.cfg.root in
  let id = compiled.Compile.hash in
  Checkpoint.write ~root ~id ~text;
  let outcome, artifact =
    match
      Runner.run ~metrics:st.sink ?on_progress ?on_line ?series_dir
        ~pool:st.pool ~store:st.store compiled
    with
    | body -> (Ok body, artifact_path ~root ~hash:id)
    | exception ((Unix.Unix_error _ | Sys_error _) as e) -> raise e
    | exception e ->
        (match e with
        | Out_of_memory ->
            (* free the run's large arrays for the error path *)
            Gc.compact ();
            st.exhausted <- true
        | _ -> ());
        let line =
          error_response [ "run failed: " ^ Printexc.to_string e ]
        in
        (Error line, artifact_path ~root ~hash:(id ^ ".error"))
  in
  Store.write_atomic artifact (match outcome with Ok b | Error b -> b);
  Checkpoint.remove ~root ~id;
  outcome

let handle_submit st client ~text ?filename ~progress ~series () =
  match Compile.compile ?filename text with
  | Error errors -> write_all client (error_response errors)
  | Ok compiled ->
      let on_progress =
        if progress then
          Some
            (fun ~done_ ~total ->
              write_all client
                (json_line
                   (Json.Assoc
                      [
                        ( "progress",
                          Json.Assoc
                            [
                              ("done", Json.Int done_);
                              ("total", Json.Int total);
                            ] );
                      ])))
        else None
      in
      (* Each result line streams the moment it is persisted; the
         response header goes first so a streaming client can parse the
         run count before the first line lands. Without ["progress"] the
         bytes are exactly [header ^ body], as before. *)
      let on_line =
        if progress then Some (fun line -> write_all client line) else None
      in
      let series_dir =
        if series then Some (Filename.concat st.cfg.root "series") else None
      in
      write_all client (header_line compiled);
      let outcome = execute ?on_progress ?on_line ?series_dir st text compiled in
      incr st.served;
      match outcome with
      | Ok body -> if not progress then write_all client body
      | Error line -> write_all client line

let handle_check client ~text ?filename () =
  match Compile.compile ?filename text with
  | Error errors -> write_all client (error_response errors)
  | Ok compiled -> write_all client (header_line compiled)

let handle_health st client =
  write_all client
    (json_line
       (Json.Assoc
          [
            ("ok", Json.Bool true);
            ("jobs", Json.Int st.cfg.jobs);
            ("served", Json.Int !(st.served));
            ( "pending",
              Json.Int (List.length (Checkpoint.list_pending ~root:st.cfg.root))
            );
          ]))

let handle_metrics st client ~prom =
  Runtime.Pool.publish_stats st.pool;
  write_all client
    (if prom then Obs.Snapshot.to_prometheus st.registry
     else Json.to_string (Obs.Snapshot.to_json st.registry) ^ "\n")

(* Periodic metrics snapshots over the same connection: one compact
   snapshot line per tick. The daemon is single-threaded, so a watch
   blocks the accept loop for its duration — it is an introspection
   probe for between-submit monitoring, not a concurrent feed. A client
   hang-up raises EPIPE, which the serve loop treats as end-of-watch. *)
let handle_watch st client ~interval_ms ~count =
  let tick () =
    Runtime.Pool.publish_stats st.pool;
    write_all client (Json.to_string (Obs.Snapshot.to_json st.registry) ^ "\n")
  in
  if count = 0 then
    while true do
      tick ();
      Unix.sleepf (float_of_int interval_ms /. 1000.)
    done
  else
    for i = 1 to count do
      tick ();
      if i < count then Unix.sleepf (float_of_int interval_ms /. 1000.)
    done

let handle_request st client line =
  match decode_request line with
  | Error msg -> write_all client (error_response [ msg ])
  | Ok (Submit { text; filename; progress; series }) ->
      handle_submit st client ~text ?filename ~progress ~series ()
  | Ok (Check { text; filename }) -> handle_check client ~text ?filename ()
  | Ok Health -> handle_health st client
  | Ok (Metrics { prom }) -> handle_metrics st client ~prom
  | Ok (Watch { interval_ms; count }) ->
      handle_watch st client ~interval_ms ~count
  | Ok Shutdown ->
      st.stop <- true;
      write_all client
        (json_line
           (Json.Assoc
              [ ("ok", Json.Bool true); ("shutdown", Json.Bool true) ]))

(* --- server -------------------------------------------------------------- *)

let say quiet fmt =
  Printf.ksprintf
    (fun s -> if not quiet then Printf.eprintf "mobisim-serve: %s\n%!" s)
    fmt

(* Start again from the same command line, with the process's first
   heap: OCaml keeps the major heap a run grew, so after a run that ran
   out of memory there is no room left to serve. The failed job is
   retired first, so the new image does not replay it. *)
let restart quiet =
  say quiet "restarting: a run exhausted the daemon's memory";
  Unix.execv Sys.executable_name Sys.argv

let replay_pending ~quiet st =
  List.iter
    (fun (id, text) ->
      match Compile.compile text with
      | Error errors ->
          say quiet "dropping unparseable pending job %s (%s)" id
            (String.concat "; " errors);
          Checkpoint.remove ~root:st.cfg.root ~id
      | Ok compiled ->
          say quiet "resuming pending job %s (%d runs)" id
            (Compile.total_runs compiled);
          match execute st text compiled with
          | Ok (_ : string) -> ()
          | Error line ->
              say quiet "retired pending job %s: %s" id (String.trim line))
    (Checkpoint.list_pending ~root:st.cfg.root)

let serve ?(quiet = false) cfg =
  (* a client that hangs up mid-response must not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let registry = Obs.Registry.create () in
  let sink = Obs.Sink.of_registry registry in
  let store = Store.create ~metrics:sink ~root:cfg.root () in
  let pool = Runtime.Pool.create ~jobs:cfg.jobs in
  Runtime.Pool.set_metrics pool sink;
  let st =
    {
      cfg;
      store;
      pool;
      sink;
      registry;
      served = ref 0;
      stop = false;
      exhausted = false;
    }
  in
  replay_pending ~quiet st;
  if st.exhausted then begin
    Runtime.Pool.shutdown pool;
    restart quiet
  end;
  (* bind, replacing a stale socket file from a killed daemon *)
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      Runtime.Pool.shutdown pool)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen sock 8;
      say quiet "listening on %s (root %s, jobs %d)" cfg.socket_path cfg.root
        cfg.jobs;
      while not (st.stop || st.exhausted) do
        let client, _ = Unix.accept sock in
        (try handle_request st client (read_line_fd client) with
        | Unix.Unix_error (e, _, _) ->
            say quiet "client error: %s" (Unix.error_message e)
        | Sys_error msg -> say quiet "client error: %s" msg);
        try Unix.close client with Unix.Unix_error _ -> ()
      done;
      if not st.exhausted then say quiet "shutting down");
  if st.exhausted then restart quiet

(* --- client -------------------------------------------------------------- *)

module Client = struct
  let read_all fd =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 65536 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
    in
    go ()

  let request ~socket_path line =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect sock (Unix.ADDR_UNIX socket_path) with
        | () ->
            write_all sock (line ^ "\n");
            Unix.shutdown sock Unix.SHUTDOWN_SEND;
            Ok (read_all sock)
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot reach daemon at %s: %s" socket_path
                 (Unix.error_message e)))

  let request_stream ~socket_path ~on_line line =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect sock (Unix.ADDR_UNIX socket_path) with
        | () ->
            write_all sock (line ^ "\n");
            Unix.shutdown sock Unix.SHUTDOWN_SEND;
            (* deliver each complete response line as it arrives; a
               trailing unterminated fragment is delivered at EOF *)
            let partial = Buffer.create 4096 in
            let chunk = Bytes.create 65536 in
            let rec go () =
              match Unix.read sock chunk 0 (Bytes.length chunk) with
              | 0 ->
                  if Buffer.length partial > 0 then
                    on_line (Buffer.contents partial);
                  Ok ()
              | n ->
                  Buffer.add_subbytes partial chunk 0 n;
                  let data = Buffer.contents partial in
                  Buffer.clear partial;
                  let rec emit start =
                    match String.index_from_opt data start '\n' with
                    | Some i ->
                        on_line (String.sub data start (i - start + 1));
                        emit (i + 1)
                    | None ->
                        Buffer.add_substring partial data start
                          (String.length data - start)
                  in
                  emit 0;
                  go ()
            in
            go ()
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot reach daemon at %s: %s" socket_path
                 (Unix.error_message e)))
  end
