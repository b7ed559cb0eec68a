type t = {
  root : string;
  cache_dir : string;
  c_hits : Obs.Metric.Counter.t option;
  c_misses : Obs.Metric.Counter.t option;
}

let mkdir_p dir =
  (* no String.split on '/' — build prefixes left to right *)
  let rec up d =
    if String.equal d "" || String.equal d "/" || Sys.file_exists d then ()
    else begin
      up (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  up dir

let create ?(metrics = Obs.Sink.null) ~root () =
  let cache_dir = Filename.concat root "cache" in
  mkdir_p cache_dir;
  let counter name =
    Option.map
      (fun r -> Obs.Registry.counter r name)
      (Obs.Sink.registry metrics)
  in
  {
    root;
    cache_dir;
    c_hits = counter "service.cache.hits";
    c_misses = counter "service.cache.misses";
  }

let entry_path t ~hash ~seed ~trial =
  Filename.concat
    (Filename.concat t.cache_dir hash)
    (Printf.sprintf "%d-%d.json" seed trial)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let get t ~hash ~seed ~trial =
  let path = entry_path t ~hash ~seed ~trial in
  if Sys.file_exists path then begin
    Option.iter Obs.Metric.Counter.incr t.c_hits;
    Some (read_file path)
  end
  else begin
    Option.iter Obs.Metric.Counter.incr t.c_misses;
    None
  end

(* Atomic within one directory: write to a dotted temp name, rename
   over the final name. A crash leaves either nothing, a temp file
   (ignored by [get]) or the complete entry. *)
let write_atomic path bytes =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir ".put" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc bytes;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let put t ~hash ~seed ~trial bytes =
  write_atomic (entry_path t ~hash ~seed ~trial) bytes
