(* Run one command and report its wall time, exit code and peak RSS:

     spawn OUT ERR PROG ARG...

   prints "WALL_S EXIT_CODE MAXRSS_KB".  The wall time runs from spawn
   to exit, with stdout and stderr going to the files OUT and ERR.

   The peak RSS is the kernel's ru_maxrss for the child.  Linux carries
   the spawning process's high-water mark into a child across exec, so
   the spawner has to be small: this program links only the runtime and
   unix, and its own mark stays below that of any simulator process. *)

external wait4 : int -> int * int = "perfbench_wait4"

let () =
  match Array.to_list Sys.argv with
  | _ :: out :: err :: (prog :: _ as argv) ->
      let open_out path =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
      in
      let fd_out = open_out out and fd_err = open_out err in
      let t0 = Unix.gettimeofday () in
      let pid = Unix.create_process prog (Array.of_list argv) Unix.stdin fd_out fd_err in
      let code, maxrss_kb = wait4 pid in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf "%.9f %d %d\n" wall code maxrss_kb
  | _ ->
      prerr_endline "usage: spawn OUT ERR PROG ARG...";
      exit 2
