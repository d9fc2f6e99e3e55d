(* Generic crash-safe JSONL persistence: the machinery shared by the
   pulse store and the synthesis store.

   On-disk layout, under the store directory:

     <records_file>   header line + one JSON record per line (append-only)
     lock             advisory lock file serializing flushes across processes

   The header line carries {"format", "schema_version"}; a format or
   version mismatch makes the store start empty (with a warning) rather
   than mis-read foreign records.  The "match_global_phase" field older
   headers carry is neither written nor checked: no instance has a
   matching convention of its own (store.ml argues why the pulse store
   needs none).  Records are one JSON object per line, so a crash
   mid-write can only damage the trailing record; loading skips any
   unparsable line with a warning and never raises.

   A flush appends.  Every writer appends whole lines under the file
   lock, so a handle only has to read what others appended since its own
   last read or write: it keeps the file's device, inode and the offset
   just past the last whole line it has seen, parses the lines past that
   offset into its table, and appends its pending records that none of
   them equals in one write.  A flush that finds the file replaced (a
   different inode, shorter than the offset, or starting with another
   header line; builds that merged by rewriting rename a temp file into
   place) reads it from its header, and one that finds no header this
   build speaks rewrites the file as the header and the pending records.
   Under the lock, bytes after the last newline are a torn write, cut
   off before appending.

   Concurrency: the in-process [t.lock] mutex guards the table, the
   pending queue and the counters; [flush_lock] serializes flushes
   between domains of one process (POSIX record locks do not exclude
   threads of the owning process), so only one flush at a time reads or
   moves a handle's mark; [Unix.lockf] on the lock file serializes
   flushes between processes.  Opening takes no lock. *)

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

(* How far a handle has seen the record file: its device and inode, its
   header line, and the offset just past the last whole line the handle
   read or wrote. *)
type mark = { dev : int; ino : int; header : string; pos : int }

let rec mkdir_p dir =
  let parent = Filename.dirname dir in
  if parent <> dir && not (Sys.file_exists parent) then mkdir_p parent;
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* The bytes of [fd] from [pos] up to [size]. *)
let read_from fd ~pos ~size =
  let buf = Bytes.create (size - pos) in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let rec go off =
    if off = Bytes.length buf then off
    else
      match Unix.read fd buf off (Bytes.length buf - off) with
      | 0 -> off
      | n -> go (off + n)
  in
  Bytes.sub_string buf 0 (go 0)

(* The stats and bytes of the file at [path], [None] if it cannot be
   read. *)
let read_file path =
  try
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let st = Unix.fstat fd in
        Some (st, read_from fd ~pos:0 ~size:st.Unix.st_size))
  with Unix.Unix_error _ -> None

(* [contents] cut just past its last newline: the non-blank lines before
   the cut, the cut's offset, and the bytes after it (a line still being
   written, or a torn one). *)
let split contents =
  let cut =
    match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
  in
  ( List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (String.sub contents 0 cut)),
    cut,
    String.sub contents cut (String.length contents - cut) )

module Make (C : CODEC) = struct
  type t = {
    dir : string;
    lock : Mutex.t;
    table : (string, C.entry list) Hashtbl.t; (* key -> bucket *)
    mutable loaded : int; (* valid records read at open *)
    mutable skipped : int; (* unparsable lines skipped at open *)
    mutable merged : int; (* distinct records on disk after last open/flush *)
    mutable pending : (string * C.entry) list;
        (* (key, entry) of the records awaiting flush, newest first; each
           is rendered as a line only when a flush appends it *)
    mutable mark : mark option;
        (* [None] until the handle read or wrote a header this build
           speaks *)
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

  (* Lock-free: a line another process is still appending is loaded if it
     already parses, and the mark stays before it either way, so the next
     flush reads it whole. *)
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
        mark = None;
      }
    in
    (match read_file (path t) with
    | None -> ()
    | Some (st, contents) -> (
        let whole, cut, rest = split contents in
        match whole @ if String.trim rest = "" then [] else [ rest ] with
        | [] -> ()
        | header :: records -> (
            match check_header header with
            | Ok () ->
                load_records t records;
                if whole <> [] then
                  t.mark <-
                    Some
                      {
                        dev = st.Unix.st_dev;
                        ino = st.Unix.st_ino;
                        header;
                        pos = cut;
                      }
            | Error reason ->
                Log.warn (fun f ->
                    f
                      "cache %s: ignoring existing store (%s); it will be \
                       rewritten"
                      (path t) reason))));
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
          t.pending <- (key, e) :: t.pending
        end)

  let with_file_lock t f =
    let lock_path = Filename.concat t.dir lock_file in
    let fd = Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.lockf fd Unix.F_LOCK 0;
        Fun.protect ~finally:(fun () -> Unix.lockf fd Unix.F_ULOCK 0) f)

  (* Merge records read from the file, in file order, into the table
     (under [t.lock]).  A record equal to a held entry of its key bucket
     does not join the table; if that entry is pending, it is on disk now
     and leaves the queue.  Equality is tested within a key bucket only,
     as [record] and [load_records] test it: two equal records on
     different keys (near-tied canonical forms whose quantized
     fingerprints differ) are both kept, because a probe computes either
     key and must find its record.  Returns how many distinct records
     [records] adds to the file's count: read from the header, the first
     of each class in the file; read past the mark, each one no record
     already on disk equals. *)
  let absorb t ~from_header records =
    let in_file = Hashtbl.create 16 in
    let is_pending e = List.exists (fun (_, p) -> p == e) t.pending in
    List.fold_left
      (fun added r ->
        let key = C.key r in
        let bucket = bucket_of t key in
        let held = List.find_opt (C.equal r) bucket in
        let repeat =
          if from_header then begin
            let seen =
              Option.value ~default:[] (Hashtbl.find_opt in_file key)
            in
            Hashtbl.replace in_file key (r :: seen);
            in_bucket seen r
          end
          else match held with Some e -> not (is_pending e) | None -> false
        in
        if repeat then added
        else begin
          (match held with
          | None -> Hashtbl.replace t.table key (bucket @ [ r ])
          | Some e ->
              t.pending <- List.filter (fun (_, p) -> p != e) t.pending);
          added + 1
        end)
      0 records

  (* The flush proper, on [fd] opened for appending under both locks. *)
  let append t fd =
    let st = Unix.fstat fd in
    let here header pos =
      { dev = st.Unix.st_dev; ino = st.Unix.st_ino; header; pos }
    in
    let mark =
      match t.mark with
      | Some m
        when m.dev = st.Unix.st_dev && m.ino = st.Unix.st_ino
             && m.pos <= st.Unix.st_size
             && read_from fd ~pos:0 ~size:(String.length m.header + 1)
                = m.header ^ "\n" ->
          Some m
      | _ -> None
    in
    let start = match mark with Some m -> m.pos | None -> 0 in
    let lines, cut, _ = split (read_from fd ~pos:start ~size:st.Unix.st_size) in
    (* The header line and the record lines to read; [None] when the file
       is missing, empty, or starts with no header this build speaks, and
       is rewritten. *)
    let read =
      match (mark, lines) with
      | Some m, _ -> Some (m.header, lines)
      | None, h :: records when check_header h = Ok () -> Some (h, records)
      | None, _ -> None
    in
    let keep = if read = None then 0 else start + cut in
    if keep < st.Unix.st_size then Unix.ftruncate fd keep;
    (* lines that do not parse stay on disk; loading skips them *)
    let parsed =
      match read with
      | None -> []
      | Some (_, lines) ->
          List.filter_map (fun l -> Result.to_option (C.of_line l)) lines
    in
    let fresh =
      locked t (fun () ->
          let added = absorb t ~from_header:(mark = None) parsed in
          t.merged <- (if mark = None then 0 else t.merged) + added;
          List.rev t.pending)
    in
    t.mark <- Option.map (fun (header, _) -> here header keep) read;
    let buf = Buffer.create 4096 in
    if read = None then begin
      Buffer.add_string buf header_line;
      Buffer.add_char buf '\n'
    end;
    List.iter
      (fun (key, e) ->
        Buffer.add_string buf (C.to_line ~key e);
        Buffer.add_char buf '\n')
      fresh;
    let n = Buffer.length buf in
    if n > 0 then ignore (Unix.write_substring fd (Buffer.contents buf) 0 n);
    (* only what was written leaves the queue: a record queued by another
       domain meanwhile waits for the next flush *)
    locked t (fun () ->
        t.pending <- List.filter (fun p -> not (List.memq p fresh)) t.pending;
        t.merged <- t.merged + List.length fresh);
    let header = match read with Some (h, _) -> h | None -> header_line in
    t.mark <- Some (here header (keep + n));
    Log.debug (fun f ->
        f "cache %s: flushed %d new record%s (%d on disk)" (path t)
          (List.length fresh)
          (if List.length fresh = 1 then "" else "s")
          t.merged)

  let flush t =
    if pending_count t > 0 then begin
      Mutex.lock flush_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock flush_lock)
        (fun () ->
          with_file_lock t (fun () ->
              let fd =
                Unix.openfile (path t)
                  [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
                  0o666
              in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () -> append t fd)))
    end
end
