(* Execution tracer: per-domain fixed-capacity event rings merged into
   Chrome trace-event JSON at export. See tracer.mli for the contract.

   Each domain owns one ring (discovered through a DLS key, registered
   under the tracer's mutex exactly once, on first emit from that
   domain). A ring is single-writer — only its domain appends — so the
   hot path takes no lock and performs four int stores. Readers
   ([export], [events], [dropped]) run at quiescence, after the traced
   fan-outs have completed; the mutex/condition handshake that ends a
   fan-out is what publishes the workers' writes to the exporting
   domain. *)

type ring = {
  r_tid : int;  (* Domain.self of the owning domain *)
  r_buf : int array;  (* capacity slots x 4 ints: tag, ts, dur, value *)
  mutable r_len : int;  (* slots written; never exceeds capacity *)
  mutable r_dropped : int;  (* events discarded after the ring filled *)
}

(* Slot word 0 packs the event kind into the low bits and the interned
   name id above them. *)
let kind_duration = 0
let kind_instant = 1
let kind_counter = 2

type active = {
  capacity : int;
  mutex : Mutex.t;  (* guards [rings] and the name-interning tables *)
  rings : ring list ref;
  ids : (string, int) Hashtbl.t;
  mutable strings : string array;  (* id -> name; doubles on demand *)
  mutable n_names : int;
  key : ring Domain.DLS.key;
}

type t =
  | Nil
  | Active of active

type name = int

let null = Nil

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity < 1";
  let mutex = Mutex.create () in
  let rings = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let r =
          {
            r_tid = (Domain.self () :> int);
            r_buf = Array.make (capacity * 4) 0;
            r_len = 0;
            r_dropped = 0;
          }
        in
        Mutex.lock mutex;
        rings := r :: !rings;
        Mutex.unlock mutex;
        r)
  in
  Active
    {
      capacity;
      mutex;
      rings;
      ids = Hashtbl.create 32;
      strings = Array.make 16 "";
      n_names = 0;
      key;
    }

let enabled = function Nil -> false | Active _ -> true

let name t s =
  match t with
  | Nil -> 0
  | Active a ->
      Mutex.lock a.mutex;
      let id =
        match Hashtbl.find_opt a.ids s with
        | Some id -> id
        | None ->
            let id = a.n_names in
            if id = Array.length a.strings then begin
              let grown = Array.make (2 * id) "" in
              Array.blit a.strings 0 grown 0 id;
              a.strings <- grown
            end;
            a.strings.(id) <- s;
            a.n_names <- id + 1;
            Hashtbl.add a.ids s id;
            id
      in
      Mutex.unlock a.mutex;
      id

(* No value attached: the export omits "args" for this sentinel. *)
let no_value = min_int

let[@inline] emit t kind n ~ts ~dur ~v =
  match t with
  | Nil -> ()
  | Active a ->
      let r = Domain.DLS.get a.key in
      if r.r_len >= a.capacity then r.r_dropped <- r.r_dropped + 1
      else begin
        let i = r.r_len lsl 2 in
        r.r_buf.(i) <- kind lor (n lsl 2);
        r.r_buf.(i + 1) <- ts;
        r.r_buf.(i + 2) <- dur;
        r.r_buf.(i + 3) <- v;
        r.r_len <- r.r_len + 1
      end

let duration t n ~ts ~dur = emit t kind_duration n ~ts ~dur ~v:no_value
let duration_v t n ~ts ~dur ~v = emit t kind_duration n ~ts ~dur ~v
let instant_v t n ~ts ~v = emit t kind_instant n ~ts ~dur:0 ~v
let counter t n ~ts ~v = emit t kind_counter n ~ts ~dur:0 ~v

(* --- totals ---------------------------------------------------------------- *)

let fold_rings t ~init ~f =
  match t with
  | Nil -> init
  | Active a ->
      Mutex.lock a.mutex;
      let rings = !(a.rings) in
      Mutex.unlock a.mutex;
      List.fold_left f init rings

let events t = fold_rings t ~init:0 ~f:(fun acc r -> acc + r.r_len)
let dropped t = fold_rings t ~init:0 ~f:(fun acc r -> acc + r.r_dropped)

(* --- GC cycle instants ----------------------------------------------------- *)

(* In OCaml 5 a minor collection is one stop-the-world cycle that every
   domain joins, so the process-wide cycle counters are exactly the
   pauses a timeline wants marked. A tracker remembers the counts at its
   last sample; [gc_sample] emits one instant per kind whose count
   advanced, valued with the number of cycles since then. *)
type gc_track = {
  mutable g_minor : int;
  mutable g_major : int;
  g_n_minor : name;
  g_n_major : name;
}

let gc_track t =
  let s = Gc.quick_stat () in
  {
    g_minor = s.Gc.minor_collections;
    g_major = s.Gc.major_collections;
    g_n_minor = name t "gc.minor";
    g_n_major = name t "gc.major";
  }

let[@alloc_ok
     "runs only when tracing is enabled; Gc.quick_stat returns a fresh \
      stat record per sample"] gc_sample t g =
  match t with
  | Nil -> ()
  | Active _ ->
      let s = Gc.quick_stat () in
      let ts = Clock.now_ns () in
      if s.Gc.minor_collections > g.g_minor then begin
        instant_v t g.g_n_minor ~ts ~v:(s.Gc.minor_collections - g.g_minor);
        g.g_minor <- s.Gc.minor_collections
      end;
      if s.Gc.major_collections > g.g_major then begin
        instant_v t g.g_n_major ~ts ~v:(s.Gc.major_collections - g.g_major);
        g.g_major <- s.Gc.major_collections
      end

(* --- ambient tracer -------------------------------------------------------- *)

let ambient_tracer : t Atomic.t = Atomic.make Nil

let set_ambient t = Atomic.set ambient_tracer t
let ambient () = Atomic.get ambient_tracer

(* --- export ---------------------------------------------------------------- *)

(* Timestamps are raw CLOCK_MONOTONIC ns; the export rebases them to the
   earliest event and converts to the Chrome format's microseconds, so a
   trace always starts near ts 0. *)
let us_of_ns ns = float_of_int ns /. 1_000.

(* One flattened event, ready to sort: [(ts, tid, seq)] is the
   deterministic merge key ([seq] is the in-ring index, so equal
   timestamps keep their emission order). *)
type flat = {
  f_ts : int;
  f_tid : int;
  f_seq : int;
  f_kind : int;
  f_name : int;
  f_dur : int;
  f_v : int;
}

let flatten rings =
  let out = ref [] in
  List.iter
    (fun r ->
      for i = r.r_len - 1 downto 0 do
        let j = i lsl 2 in
        out :=
          {
            f_ts = r.r_buf.(j + 1);
            f_tid = r.r_tid;
            f_seq = i;
            f_kind = r.r_buf.(j) land 3;
            f_name = r.r_buf.(j) lsr 2;
            f_dur = r.r_buf.(j + 2);
            f_v = r.r_buf.(j + 3);
          }
          :: !out
      done)
    rings;
  !out

let export t : Json.t =
  match t with
  | Nil -> Json.List []
  | Active a ->
      Mutex.lock a.mutex;
      let rings =
        List.sort (fun r1 r2 -> Int.compare r1.r_tid r2.r_tid) !(a.rings)
      in
      let strings = Array.sub a.strings 0 a.n_names in
      Mutex.unlock a.mutex;
      let flat =
        List.sort
          (fun e1 e2 ->
            let c = Int.compare e1.f_ts e2.f_ts in
            if c <> 0 then c
            else
              let c = Int.compare e1.f_tid e2.f_tid in
              if c <> 0 then c else Int.compare e1.f_seq e2.f_seq)
          (flatten rings)
      in
      let ts0 = match flat with [] -> 0 | e :: _ -> e.f_ts in
      let meta =
        (* name the threads so Perfetto labels the per-domain rows *)
        List.map
          (fun r ->
            Json.Assoc
              [
                ("name", Json.String "thread_name");
                ("ph", Json.String "M");
                ("ts", Json.Float 0.);
                ("pid", Json.Int 1);
                ("tid", Json.Int r.r_tid);
                ( "args",
                  Json.Assoc
                    [ ("name", Json.String (Printf.sprintf "domain%d" r.r_tid)) ]
                );
              ])
          rings
      in
      let event e =
        let ph, tail =
          if e.f_kind = kind_duration then
            ("X", [ ("dur", Json.Float (us_of_ns e.f_dur)) ])
          else if e.f_kind = kind_instant then ("i", [ ("s", Json.String "t") ])
          else ("C", [])
        in
        let args =
          if e.f_kind = kind_counter then
            [ ("args", Json.Assoc [ ("value", Json.Int e.f_v) ]) ]
          else if e.f_v = no_value then []
          else [ ("args", Json.Assoc [ ("v", Json.Int e.f_v) ]) ]
        in
        Json.Assoc
          (("name", Json.String strings.(e.f_name))
          :: ("ph", Json.String ph)
          :: ("ts", Json.Float (us_of_ns (e.f_ts - ts0)))
          :: ("pid", Json.Int 1)
          :: ("tid", Json.Int e.f_tid)
          :: (tail @ args))
      in
      let drops =
        List.filter_map
          (fun r ->
            if r.r_dropped = 0 then None
            else
              let last_ts =
                if r.r_len = 0 then ts0
                else r.r_buf.(((r.r_len - 1) lsl 2) + 1)
              in
              Some
                (Json.Assoc
                   [
                     ("name", Json.String "tracer.dropped");
                     ("ph", Json.String "i");
                     ("ts", Json.Float (us_of_ns (last_ts - ts0)));
                     ("pid", Json.Int 1);
                     ("tid", Json.Int r.r_tid);
                     ("s", Json.String "t");
                     ("args", Json.Assoc [ ("v", Json.Int r.r_dropped) ]);
                   ]))
          rings
      in
      Json.List (meta @ List.map event flat @ drops)

let export_string t =
  (* one compact event per line: diff-able, grep-able, and a valid JSON
     array for chrome://tracing and Perfetto *)
  match export t with
  | Json.List [] -> "[]\n"
  | Json.List events ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (Json.to_string e))
        events;
      Buffer.add_string buf "\n]\n";
      Buffer.contents buf
  | _ -> assert false

(* --- validation ------------------------------------------------------------ *)

let validate json =
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match json with
  | Json.List events ->
      let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
      let rec check i = function
        | [] -> Ok ()
        | Json.Assoc _ as e :: rest -> (
            let str key =
              match Json.member key e with
              | Some (Json.String s) -> Ok s
              | _ -> error "event %d: bad or missing %S" i key
            in
            let int key =
              match Json.member key e with
              | Some (Json.Int v) -> Ok v
              | _ -> error "event %d: bad or missing %S" i key
            in
            let num key =
              match Json.member key e with
              | Some (Json.Int v) -> Ok (float_of_int v)
              | Some (Json.Float v) -> Ok v
              | _ -> error "event %d: bad or missing %S" i key
            in
            let ( let* ) = Result.bind in
            let* _name = str "name" in
            let* ph = str "ph" in
            let* ts = num "ts" in
            let* _pid = int "pid" in
            let* tid = int "tid" in
            let* () =
              if ph = "X" then
                let* dur = num "dur" in
                if dur < 0. then error "event %d: negative \"dur\"" i
                else Ok ()
              else Ok ()
            in
            let* () =
              match Hashtbl.find_opt last_ts tid with
              | Some prev when ts < prev ->
                  error
                    "event %d: ts %g before ts %g on tid %d (not monotone)" i
                    ts prev tid
              | Some _ | None -> Ok ()
            in
            Hashtbl.replace last_ts tid ts;
            check (i + 1) rest)
        | _ :: _ -> error "event %d is not an object" i
      in
      check 0 events
  | _ -> Error "trace is not a JSON array"

let parse text =
  match Json.parse text with
  | Error _ as e -> e
  | Ok json -> (
      match validate json with
      | Ok () -> Ok json
      | Error msg -> Error ("invalid trace: " ^ msg))
