(* Minimal JSON layer for the observability subsystem: a value type, a
   compact/indented printer and a recursive-descent parser.

   The repo deliberately carries no third-party JSON dependency, and
   this is its only JSON writer: every machine-readable artifact (trace
   JSON, Chrome trace events, `epoc report --json`, serve responses and
   the flight recorder, BENCH_pipeline.json, pulse-IR and device files)
   is built as a [t] and rendered by [to_string], so the exporters and
   the tools that consume them share one definition of
   well-formedness. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let of_int i = Num (float_of_int i)

(* --- printing ------------------------------------------------------------ *)

let escape_to b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Integral doubles print without an exponent or trailing ".", other
   values with enough digits to round-trip. *)
let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_string ?(indent = false) (v : t) =
  let b = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string b (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num x ->
        (* JSON has no NaN/inf; emit null rather than invalid output *)
        if Float.is_finite x then Buffer.add_string b (number_to_string x)
        else Buffer.add_string b "null"
    | Str s ->
        Buffer.add_char b '"';
        escape_to b s;
        Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i x ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) x)
          items;
        nl ();
        pad depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, x) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_char b '"';
            escape_to b k;
            Buffer.add_string b "\": ";
            go (depth + 1) x)
          fields;
        nl ();
        pad depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------- *)

exception Parse_error of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                (* combine surrogate pairs *)
                if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  else fail "unpaired surrogate"
                end
                else cp
              in
              add_utf8 b cp;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    let chunk = String.sub s start (!pos - start) in
    match float_of_string_opt chunk with
    | Some v -> Num v
    | None -> fail (Printf.sprintf "bad number %S" chunk)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let parse_exn s =
  match parse s with Ok v -> v | Error m -> invalid_arg ("Json.parse: " ^ m)

(* --- accessors ----------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_num = function Num v -> Some v | _ -> None
let to_str = function Str v -> Some v | _ -> None

let to_int v =
  match to_num v with Some f -> Some (int_of_float (Float.round f)) | None -> None
