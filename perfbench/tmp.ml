(* Scratch directories for the run's stores and the daemon socket, under
   [.perfbench/] in the working directory (the checkout root).  The
   whole per-run directory is removed when the run exits. *)

let root = ".perfbench"

let rec remove path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A fresh per-run directory, removed at exit. *)
let create () =
  mkdir root;
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove dir;
  mkdir dir;
  at_exit (fun () -> try remove dir with Unix.Unix_error _ | Sys_error _ -> ());
  dir
