(* Child processes and the benchmark's scratch directory. Every child is
   reaped through wait4 so its peak resident set is known; none outlives
   the call that started it unless the caller holds its pid. *)

external wait4 : int -> int * int = "mobibench_wait4"
(** [wait4 pid] blocks until [pid] ends: (exit code, or 128 + signal;
    peak RSS in KiB). *)

external self_maxrss_kib : unit -> int = "mobibench_self_maxrss"

let mib_of_kib kib = float_of_int kib /. 1024.

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* Start [prog args] with stdout to [stdout_path] and stderr appended to
   [log]; returns the pid. *)
let spawn ~log ~stdout_path prog args =
  let out = open_out_fd stdout_path in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close err)
    (fun () ->
      Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out err)

type finished = { code : int; wall_ns : int; maxrss_kib : int }

(* Run to completion; the wall time spans fork to reap. *)
let run ~log ~stdout_path prog args =
  let t0 = Obs.Clock.now_ns () in
  let pid = spawn ~log ~stdout_path prog args in
  let code, maxrss_kib = wait4 pid in
  { code; wall_ns = Obs.Clock.now_ns () - t0; maxrss_kib }

let read_file path = In_channel.with_open_bin path In_channel.input_all
