(* Generic crash-safe JSONL persistence: the machinery shared by the
   pulse store and the synthesis store.

   On-disk layout, under the store directory:

     <records_file>   header line + one JSON record per line (append-only)
     lock             advisory lock file serializing flushes across processes
     .<records_file>.tmp.<pid>   transient; flushes write here, then rename

   The header line carries {"format", "schema_version"}; a format or
   version mismatch makes the store start empty (with a warning) rather
   than mis-read foreign records.  The "match_global_phase" field older
   headers carry is neither written nor checked: no instance has a
   matching convention of its own (store.ml argues why the pulse store
   needs none).  Records are one JSON object per line, so a crash
   mid-write can only damage the trailing record; loading skips any
   unparsable line with a warning and never raises.  Flushes re-read the file under the file lock, merge the
   pending records after whatever other writers appended, write the merged
   file to a temp file in the same directory and [Unix.rename] it into
   place — readers always see either the old or the new complete file.

   Concurrency: the in-process [t.lock] mutex guards the table and the
   pending queue; [flush_lock] serializes flushes between domains of one
   process (POSIX record locks do not exclude threads of the owning
   process); [Unix.lockf] on the lock file serializes flushes between
   processes. *)

module Json = Epoc_obs.Json

let log_src = Logs.Src.create "epoc.cache" ~doc:"EPOC persistent stores"

module Log = (val Logs.src_log log_src : Logs.LOG)

let lock_file = "lock"

module type CODEC = sig
  type entry

  val format_name : string
  val schema_version : int
  val records_file : string
  val key : entry -> string
  val equal : entry -> entry -> bool
  val to_line : key:string -> entry -> string
  val of_line : string -> (entry, string) result
end

module Make (C : CODEC) = struct
  type t = {
    dir : string;
    lock : Mutex.t;
    table : (string, C.entry list) Hashtbl.t; (* key -> bucket *)
    mutable loaded : int; (* valid records read at open *)
    mutable skipped : int; (* unparsable lines skipped at open *)
    mutable merged : int; (* distinct records on disk after last open/flush *)
    mutable pending : (string * C.entry * string) list;
        (* (key, entry, line) of the records awaiting flush, newest first *)
  }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* One flush at a time per process; cross-process exclusion is the file
     lock taken inside [flush]. *)
  let flush_lock = Mutex.create ()

  let path t = Filename.concat t.dir C.records_file

  let header_line =
    Json.to_string
      (Json.Obj
         [
           ("format", Json.Str C.format_name);
           ("schema_version", Json.of_int C.schema_version);
         ])

  (* Header check: [Ok ()] to use the records, [Error reason] to ignore the
     file's contents (the next flush rewrites it under the current header). *)
  let check_header line =
    match Json.parse line with
    | Error m -> Error ("unreadable header: " ^ m)
    | Ok j -> (
        match
          ( Option.bind (Json.member "format" j) Json.to_str,
            Option.bind (Json.member "schema_version" j) Json.to_int )
        with
        | Some f, _ when f <> C.format_name -> Error ("foreign format " ^ f)
        | _, Some v when v <> C.schema_version ->
            Error
              (Printf.sprintf "schema_version %d (this build speaks %d)" v
                 C.schema_version)
        | _, None -> Error "missing schema_version"
        | _ -> Ok ())

  (* --- open / load --------------------------------------------------------- *)

  let rec mkdir_p dir =
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then mkdir_p parent;
    if not (Sys.file_exists dir) then
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

  let read_lines file =
    match In_channel.with_open_bin file In_channel.input_all with
    | contents ->
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' contents)
    | exception Sys_error _ -> []

  let bucket_of t key = Option.value ~default:[] (Hashtbl.find_opt t.table key)

  let in_bucket bucket e = List.exists (C.equal e) bucket

  (* Load every valid record line; unparsable lines (a torn trailing write,
     manual editing) are counted and skipped, never fatal.  Records the
     codec considers equal to an already-loaded one collapse into a single
     in-memory entry, so [merged_count] counts distinct entries even over
     a store written before flush-time deduplication existed.

     Parsed entries are keyed by [C.key] as read, which is the key they
     were recorded under: a record holds the entry its key was computed
     from.  Nothing puts them in another form first: phase
     canonicalization is only equivalence-class canonical, not
     bit-idempotent (re-phasing an already-canonical matrix perturbs
     float bits and can flip the quantized fingerprint key, making every
     probe miss after reopen). *)
  let load_records t lines =
    List.iteri
      (fun i line ->
        match C.of_line line with
        | Ok e ->
            let key = C.key e in
            let bucket = bucket_of t key in
            if not (in_bucket bucket e) then
              Hashtbl.replace t.table key (bucket @ [ e ]);
            t.loaded <- t.loaded + 1
        | Error m ->
            t.skipped <- t.skipped + 1;
            Log.warn (fun f ->
                f "cache %s: skipping unreadable record %d (%s)" (path t)
                  (i + 2) m))
      lines

  let count_entries t =
    Hashtbl.fold (fun _ b acc -> acc + List.length b) t.table 0

  let open_dir dir =
    mkdir_p dir;
    let t =
      {
        dir;
        lock = Mutex.create ();
        table = Hashtbl.create 64;
        loaded = 0;
        skipped = 0;
        merged = 0;
        pending = [];
      }
    in
    (match read_lines (path t) with
    | [] -> ()
    | header :: records -> (
        match check_header header with
        | Ok () -> load_records t records
        | Error reason ->
            Log.warn (fun f ->
                f "cache %s: ignoring existing store (%s); it will be rewritten"
                  (path t) reason)));
    t.merged <- count_entries t;
    Log.debug (fun f ->
        f "cache %s: %d entries loaded, %d lines skipped" (path t) t.loaded
          t.skipped);
    t

  (* --- queries -------------------------------------------------------------- *)

  let pending_count t = locked t (fun () -> List.length t.pending)
  let loaded_count t = t.loaded
  let skipped_count t = t.skipped
  let merged_count t = t.merged

  let find t ~key pred =
    locked t (fun () -> List.find_opt pred (bucket_of t key))

  let fold t ~init f =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ bucket acc -> List.fold_left (fun acc e -> f e acc) acc bucket)
          t.table init)

  (* --- recording / flush ----------------------------------------------------- *)

  let record t ~key e =
    locked t (fun () ->
        let bucket = bucket_of t key in
        if not (in_bucket bucket e) then begin
          Hashtbl.replace t.table key (bucket @ [ e ]);
          t.pending <- (key, e, C.to_line ~key e) :: t.pending
        end)

  let with_file_lock t f =
    let lock_path = Filename.concat t.dir lock_file in
    let fd = Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.lockf fd Unix.F_LOCK 0;
        Fun.protect ~finally:(fun () -> Unix.lockf fd Unix.F_ULOCK 0) f)

  (* Persist pending records.  Under the locks, the record file is re-read
     raw so entries appended by other invocations since [open_dir] survive;
     our pending records land after them, minus records the codec
     considers equal to ones already on disk (an exact-line comparison
     would let two writers that solved the same unitary to different
     metadata both land, and the duplicate would inflate every later
     count).  Disk records that duplicate an earlier disk record are
     compacted away on the same pass.  Equality is tested within a key
     bucket only, as [record] and [load_records] test it: two equal
     records on different keys (near-tied canonical forms whose
     quantized fingerprints differ) are both kept, because a probe
     computes either key and must find its record.  Each disk line is
     parsed once; pending records are kept with their entries and keys.
     The merged file replaces the old one atomically, and [merged] is the
     number of records it holds. *)
  let flush t =
    let pending = locked t (fun () -> List.rev t.pending) in
    if pending <> [] then begin
      Mutex.lock flush_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock flush_lock)
        (fun () ->
          with_file_lock t (fun () ->
              let disk =
                match read_lines (path t) with
                | [] -> []
                | header :: records -> (
                    match check_header header with
                    | Ok () ->
                        List.filter_map
                          (fun line ->
                            match C.of_line line with
                            | Ok e -> Some (C.key e, e, line)
                            | Error _ -> None)
                          records
                    | Error _ -> [])
              in
              (* Keep the first of every equivalence class of a bucket:
                 disk records in file order, then pending ones. *)
              let seen : (string, C.entry list) Hashtbl.t = Hashtbl.create 64 in
              let first (key, e, _) =
                let bucket =
                  Option.value ~default:[] (Hashtbl.find_opt seen key)
                in
                if List.exists (C.equal e) bucket then false
                else begin
                  Hashtbl.replace seen key (e :: bucket);
                  true
                end
              in
              let disk = List.filter first disk in
              let fresh = List.filter first pending in
              let tmp =
                Filename.concat t.dir
                  (Printf.sprintf ".%s.tmp.%d" C.records_file (Unix.getpid ()))
              in
              let oc = open_out_bin tmp in
              (try
                 output_string oc header_line;
                 output_char oc '\n';
                 List.iter
                   (fun (_, _, l) ->
                     output_string oc l;
                     output_char oc '\n')
                   (disk @ fresh);
                 close_out oc
               with e ->
                 close_out_noerr oc;
                 (try Sys.remove tmp with Sys_error _ -> ());
                 raise e);
              Unix.rename tmp (path t);
              t.merged <- List.length disk + List.length fresh;
              Log.debug (fun f ->
                  f "cache %s: flushed %d new record%s (%d on disk)" (path t)
                    (List.length fresh)
                    (if List.length fresh = 1 then "" else "s")
                    t.merged)));
      locked t (fun () -> t.pending <- [])
    end
end
