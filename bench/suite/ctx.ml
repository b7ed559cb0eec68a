(* What every workload receives: its inputs (seed, time budget, scale),
   where it may write, the tracer for bench-side spans, and the tally of
   attempted and failed operations behind the result's [failed] count. *)

type scale = Full | Smoke

(* The child process that times the machine-speed reference (below). *)
type meter = { pid : int; requests : out_channel; durations : in_channel }

type t = {
  workload : string;
  seed : int;
  seconds : float;  (** measuring time of the (untraced) run *)
  traced : bool;
  scale : scale;
  dir : string;  (** this workload's scratch directory, emptied first *)
  mobisim : string;  (** the mobisim binary the process workloads drive *)
  mutable tracer : Obs.Tracer.t;  (** {!Obs.Tracer.null} unless [traced] *)
  mutable attempted : int;
  mutable failed : int;
  meter : meter;
  reference : Sample.t;  (** durations of {!reference_loop}, in ms *)
  mutable reference_ms : float;  (** the latest of them *)
  mutable since_op : float list;  (** those since the last operation *)
  mutable last_reference : int;
}

let now = Obs.Clock.now_ns
let log t = Filename.concat t.dir "child.log"
let path t name = Filename.concat t.dir name

(* One operation or correctness check; a failure is reported on stderr
   and counted. *)
let check t ok fmt =
  Printf.ksprintf
    (fun what ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        Printf.eprintf "mobibench: %s: FAILED: %s\n%!" t.workload what
      end)
    fmt

(* [f ()] with bench-side spans off: end-to-end numbers are always
   measured untraced. *)
let untraced t f =
  let tracer = t.tracer in
  t.tracer <- Obs.Tracer.null;
  Fun.protect ~finally:(fun () -> t.tracer <- tracer) f

(* A closed span on the bench-side timeline, [v] tags the operation. *)
let span t name ~t0 ~t1 ~v =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.duration_v t.tracer (Obs.Tracer.name t.tracer name) ~ts:t0
      ~dur:(t1 - t0) ~v

(* The machine-speed reference. The virtual machines this benchmark runs
   on drift in speed by 5-25 % over seconds as their neighbours come and
   go, more than the changes it must detect. So between operations a run
   times this loop, which takes about 1.2 ms on an idle 2.1 GHz core:
   fixed integer work, which tracks the core's speed, then a fixed hash
   table and sort from the standard library, whose allocation tracks the
   memory traffic that slows the allocating workloads. It calls no code
   of the repository, so no change under test can move it. End-to-end
   times are reported at reference speed, in units of the loop: each
   operation is divided by the loop's timings just before it (see
   {!add_op}), and the median set-up by the loop's median in the run.

   The loop runs in a child process of its own (this executable with
   --reference), which the run blocks on while it works, so that its
   allocation meets the small heap of a fresh process and not the
   workload's: in the population's 390 MB heap every collection the
   loop triggers would cost more, and the reference would measure the
   workload instead of the machine. *)
let reference_buf = Array.make 8192 0

let reference_loop () =
  let x = ref 0x2545F4914F6CDD1D in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  in
  for _ = 1 to 16 do
    for j = 0 to Array.length reference_buf - 1 do
      next ();
      reference_buf.(j) <- reference_buf.(j) + (!x land 1023)
    done
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 1500 do
    next ();
    Hashtbl.replace h (!x land 0x3FFF_FFFF) i
  done;
  ignore (Sys.opaque_identity (List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) h [])))

(* The child's side: one timed loop per request line, until the end of
   input. *)
let serve_reference () =
  try
    while true do
      ignore (input_line stdin);
      let t0 = now () in
      reference_loop ();
      Printf.printf "%d\n%!" (now () - t0)
    done
  with End_of_file -> ()

let start_meter () =
  let child_in, requests = Unix.pipe ~cloexec:true () in
  let durations, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--reference" |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  { pid; requests = Unix.out_channel_of_descr requests; durations = Unix.in_channel_of_descr durations }

let stop_meter m =
  close_out m.requests;
  close_in m.durations;
  ignore (Proc.wait4 m.pid)

let time_reference t =
  output_char t.meter.requests '\n';
  flush t.meter.requests;
  let ns = int_of_string (input_line t.meter.durations) in
  t.reference_ms <- float_of_int ns /. 1e6;
  t.since_op <- t.reference_ms :: t.since_op;
  Sample.add t.reference t.reference_ms;
  t.last_reference <- now ()

(* Time the reference if 10 ms have passed since it last ran: about one
   run in ten of the wall time, between operations, never inside one. *)
let pace t = if now () - t.last_reference >= 10_000_000 then time_reference t

(* Keep measuring until at least [min_ops] are done and [seconds] have
   passed since [start]; stop at the first failure. Each call is also a
   point between operations where the reference may run. *)
let until t ~start ~seconds ~min_ops ops =
  pace t;
  t.failed = 0
  && (ops < min_ops || now () - start < int_of_float (seconds *. 1e9))

(* Operation latencies, raw and at reference speed. *)
type ops = { raw : Sample.t;  (** in ms *) scaled : Sample.t  (** in loop durations *) }

let ops () = { raw = Sample.create (); scaled = Sample.create () }

(* One operation of [ms]. The scaled sample divides it by the median of
   the reference loops timed since the previous operation, or by the
   latest one when none was: the machine's speed changes within tens of
   milliseconds, and the loop's nearest timings follow it more closely
   than a quantile of the whole run's. *)
let add_op t ops ms =
  let loop =
    match t.since_op with
    | [] -> t.reference_ms
    | l -> Stats.Summary.quantile (Array.of_list l) ~q:0.5
  in
  t.since_op <- [];
  Sample.add ops.raw ms;
  Sample.add ops.scaled (ms /. loop)

(* What a workload hands back: the end-to-end samples of its untraced
   operations and, from a traced run, its per-layer metrics. *)
type measured = {
  setup_s : Sample.t;  (** one per setup, in seconds *)
  op_ms : ops;  (** one per operation *)
  heap_mib : float;  (** peak RSS of the process doing the work *)
  layers : (string * float) list;
  digest : string;  (** hex digest of the outputs the pins cover *)
  pin_seed : int;  (** the input seed those outputs come from *)
}
