(* OpenQASM 2.0 front end (the subset exercised by QASMBench).

   Supported: OPENQASM/include headers, qreg/creg, builtin qelib1 gates,
   user [gate] definitions (expanded like macros), parameter expressions
   over +,-,*,/,unary minus, pi and the qelib1 math functions, register
   broadcast, [barrier] (ignored) and [measure] (ignored: EPOC compiles the
   unitary part of the program).  [if] statements and [reset] are rejected
   with a clear error. *)

open Epoc_circuit

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* --- lexer ------------------------------------------------------------- *)

type token =
  | Id of string
  | Number of float
  | String_lit of string
  | Sym of char (* ; , ( ) { } [ ] + - * / ^ *)
  | Arrow (* -> *)
  | Equal_equal
  | Eof

let lex (src : string) : token list =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_id_char c = is_id_start c || (c >= '0' && c <= '9') in
  let is_digit c = c >= '0' && c <= '9' in
  while !pos < n do
    match peek () with
    | None -> ()
    | Some c ->
        if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
        else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '/' then begin
          while !pos < n && src.[!pos] <> '\n' do
            advance ()
          done
        end
        else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '*' then begin
          pos := !pos + 2;
          while
            !pos + 1 < n && not (src.[!pos] = '*' && src.[!pos + 1] = '/')
          do
            advance ()
          done;
          pos := !pos + 2
        end
        else if is_id_start c then begin
          let start = !pos in
          while !pos < n && is_id_char src.[!pos] do
            advance ()
          done;
          emit (Id (String.sub src start (!pos - start)))
        end
        else if is_digit c || (c = '.' && !pos + 1 < n && is_digit src.[!pos + 1])
        then begin
          let start = !pos in
          while
            !pos < n
            && (is_digit src.[!pos]
               || src.[!pos] = '.'
               || src.[!pos] = 'e'
               || src.[!pos] = 'E'
               || ((src.[!pos] = '+' || src.[!pos] = '-')
                  && !pos > start
                  && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
          do
            advance ()
          done;
          let text = String.sub src start (!pos - start) in
          match float_of_string_opt text with
          | Some f -> emit (Number f)
          | None -> fail "bad numeric literal %S" text
        end
        else if c = '"' then begin
          advance ();
          let start = !pos in
          while !pos < n && src.[!pos] <> '"' do
            advance ()
          done;
          if !pos >= n then fail "unterminated string literal";
          emit (String_lit (String.sub src start (!pos - start)));
          advance ()
        end
        else if c = '-' && !pos + 1 < n && src.[!pos + 1] = '>' then begin
          pos := !pos + 2;
          emit Arrow
        end
        else if c = '=' && !pos + 1 < n && src.[!pos + 1] = '=' then begin
          pos := !pos + 2;
          emit Equal_equal
        end
        else
          match c with
          | ';' | ',' | '(' | ')' | '{' | '}' | '[' | ']' | '+' | '-' | '*'
          | '/' | '^' ->
              advance ();
              emit (Sym c)
          | _ -> fail "unexpected character %C" c
  done;
  List.rev (Eof :: !tokens)

(* --- parser state ------------------------------------------------------ *)

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> Eof | t :: _ -> t
let next s =
  match s.toks with
  | [] -> Eof
  | t :: rest ->
      s.toks <- rest;
      t

let token_to_string = function
  | Id s -> Printf.sprintf "identifier %S" s
  | Number f -> Printf.sprintf "number %g" f
  | String_lit s -> Printf.sprintf "string %S" s
  | Sym c -> Printf.sprintf "%C" c
  | Arrow -> "'->'"
  | Equal_equal -> "'=='"
  | Eof -> "end of input"

let expect_sym s c =
  match next s with
  | Sym c' when c' = c -> ()
  | t -> fail "expected %C, got %s" c (token_to_string t)

let expect_id s =
  match next s with
  | Id name -> name
  | t -> fail "expected identifier, got %s" (token_to_string t)

let accept_sym s c =
  match peek s with
  | Sym c' when c' = c ->
      ignore (next s);
      true
  | _ -> false

(* --- expressions ------------------------------------------------------- *)

(* Parameter expressions evaluate in an environment binding formal
   parameter names of the enclosing gate definition. *)
type env = (string * float) list

let rec parse_expr s (env : env) =
  let lhs = parse_term s env in
  parse_expr_rest s env lhs

and parse_expr_rest s env lhs =
  match peek s with
  | Sym '+' ->
      ignore (next s);
      parse_expr_rest s env (lhs +. parse_term s env)
  | Sym '-' ->
      ignore (next s);
      parse_expr_rest s env (lhs -. parse_term s env)
  | _ -> lhs

and parse_term s env =
  let lhs = parse_factor s env in
  parse_term_rest s env lhs

and parse_term_rest s env lhs =
  match peek s with
  | Sym '*' ->
      ignore (next s);
      parse_term_rest s env (lhs *. parse_factor s env)
  | Sym '/' ->
      ignore (next s);
      parse_term_rest s env (lhs /. parse_factor s env)
  | _ -> lhs

and parse_factor s env =
  match next s with
  | Sym '-' -> -.parse_factor s env
  | Sym '+' -> parse_factor s env
  | Sym '(' ->
      let v = parse_expr s env in
      expect_sym s ')';
      v
  | Number f -> parse_pow s env f
  | Id "pi" -> parse_pow s env Float.pi
  | Id fn when List.mem fn [ "sin"; "cos"; "tan"; "exp"; "ln"; "sqrt" ] ->
      expect_sym s '(';
      let v = parse_expr s env in
      expect_sym s ')';
      let r =
        match fn with
        | "sin" -> sin v
        | "cos" -> cos v
        | "tan" -> tan v
        | "exp" -> exp v
        | "ln" -> log v
        | _ -> sqrt v
      in
      parse_pow s env r
  | Id name -> (
      match List.assoc_opt name env with
      | Some v -> parse_pow s env v
      | None -> fail "unbound parameter %S" name)
  | t -> fail "expected expression, got %s" (token_to_string t)

and parse_pow s env base =
  if accept_sym s '^' then Float.pow base (parse_factor s env) else base

(* --- gate applications ------------------------------------------------- *)

(* Argument in a gate application: whole register or single bit. *)
type qarg = Whole of string | Bit of string * int

let parse_qarg s =
  let name = expect_id s in
  if accept_sym s '[' then begin
    match next s with
    | Number f ->
        expect_sym s ']';
        Bit (name, int_of_float f)
    | t -> fail "expected index, got %s" (token_to_string t)
  end
  else Whole name

(* Statement inside a gate body (formal names instead of registers). *)
type body_stmt = {
  b_name : string;
  b_params : string list; (* expression source re-parsed at expansion *)
  b_param_toks : token list list;
  b_qubits : string list;
}

type gate_def = {
  d_params : string list;
  d_qubits : string list;
  d_body : body_stmt list;
}

(* Builtin gates: qelib1's aliases on top of the gate set's own names
   ([Gate.of_name]). *)
let builtin name (params : float list) : Gate.t option =
  match (name, params) with
  | "I", [] -> Some Gate.I
  | ("u1" | "phase"), [ a ] -> Some (Gate.Phase a)
  | ("u2" | "u" | "U"), [ a; b ] -> Some (Gate.U3 (Float.pi /. 2.0, a, b))
  | ("u" | "U"), [ a; b; c ] -> Some (Gate.U3 (a, b, c))
  | "CX", [] -> Some Gate.CX
  | "cu1", [ a ] -> Some (Gate.CPhase a)
  | "toffoli", [] -> Some Gate.CCX
  | "fredkin", [] -> Some Gate.CSWAP
  | _ -> Gate.of_name name params

(* --- top-level parse --------------------------------------------------- *)

type parser_ctx = {
  stream : stream;
  mutable qregs : (string * (int * int)) list; (* name -> (offset, size) *)
  mutable n_qubits : int;
  mutable defs : (string * gate_def) list;
  mutable rev_ops : Circuit.op list;
}

(* Collect the raw tokens of one parameter expression (until , or ) at
   depth 0); they are re-evaluated at each expansion with the actual
   parameter environment. *)
let slice_param_tokens s =
  let depth = ref 0 in
  let acc = ref [] in
  let rec loop () =
    match peek s with
    | Sym '(' ->
        incr depth;
        acc := next s :: !acc;
        loop ()
    | Sym ')' when !depth > 0 ->
        decr depth;
        acc := next s :: !acc;
        loop ()
    | Sym ')' when !depth = 0 -> ()
    | Sym ',' when !depth = 0 -> ()
    | Eof -> fail "unterminated parameter list"
    | _ ->
        acc := next s :: !acc;
        loop ()
  in
  loop ();
  List.rev !acc

let eval_tokens toks env =
  let s = { toks = toks @ [ Eof ] } in
  let v = parse_expr s env in
  (match peek s with
  | Eof -> ()
  | t -> fail "trailing tokens in expression: %s" (token_to_string t));
  v

let parse_param_list s =
  if accept_sym s '(' then begin
    let rec loop acc =
      let toks = slice_param_tokens s in
      let acc = toks :: acc in
      if accept_sym s ',' then loop acc
      else begin
        expect_sym s ')';
        List.rev acc
      end
    in
    loop []
  end
  else []

(* Expand one application of gate [name] with evaluated params on concrete
   qubit indices, recursing through user definitions. *)
let rec expand ctx name (params : float list) (qubits : int list) =
  match builtin name params with
  | Some g ->
      if Gate.arity g <> List.length qubits then
        fail "gate %s applied to %d qubits, expects %d" name
          (List.length qubits) (Gate.arity g);
      ctx.rev_ops <- { Circuit.gate = g; qubits } :: ctx.rev_ops
  | None -> (
      match List.assoc_opt name ctx.defs with
      | None -> fail "unknown gate %S" name
      | Some def ->
          if List.length def.d_params <> List.length params then
            fail "gate %s expects %d parameters" name (List.length def.d_params);
          if List.length def.d_qubits <> List.length qubits then
            fail "gate %s expects %d qubits" name (List.length def.d_qubits);
          let penv = List.combine def.d_params params in
          let qenv = List.combine def.d_qubits qubits in
          List.iter
            (fun stmt ->
              let actual_params =
                List.map (fun toks -> eval_tokens toks penv) stmt.b_param_toks
              in
              let actual_qubits =
                List.map
                  (fun q ->
                    match List.assoc_opt q qenv with
                    | Some i -> i
                    | None -> fail "unbound qubit %S in gate %s" q name)
                  stmt.b_qubits
              in
              expand ctx stmt.b_name actual_params actual_qubits)
            def.d_body)

let resolve_qarg ctx = function
  | Whole name -> (
      match List.assoc_opt name ctx.qregs with
      | Some (off, size) -> List.init size (fun i -> off + i)
      | None -> fail "unknown register %S" name)
  | Bit (name, i) -> (
      match List.assoc_opt name ctx.qregs with
      | Some (off, size) ->
          if i < 0 || i >= size then fail "index %d out of range for %S" i name;
          [ off + i ]
      | None -> fail "unknown register %S" name)

(* Apply with register broadcast: all Whole args must have equal length. *)
let apply_gate_stmt ctx name params qargs =
  let resolved = List.map (resolve_qarg ctx) qargs in
  let lengths = List.map List.length resolved in
  let max_len = List.fold_left max 1 lengths in
  List.iter
    (fun l ->
      if l <> 1 && l <> max_len then
        fail "register broadcast length mismatch in %s" name)
    lengths;
  for i = 0 to max_len - 1 do
    let qubits =
      List.map (fun l -> match l with [ q ] -> q | _ -> List.nth l i) resolved
    in
    expand ctx name params qubits
  done

let parse_gate_body s =
  expect_sym s '{';
  let rec loop acc =
    match peek s with
    | Sym '}' ->
        ignore (next s);
        List.rev acc
    | Id "barrier" ->
        (* consume until ';' *)
        let rec skip () =
          match next s with
          | Sym ';' -> ()
          | Eof -> fail "unterminated barrier"
          | _ -> skip ()
        in
        skip ();
        loop acc
    | Id name ->
        ignore (next s);
        let param_toks = parse_param_list s in
        let rec qubits acc =
          let q = expect_id s in
          if accept_sym s ',' then qubits (q :: acc) else List.rev (q :: acc)
        in
        let qs = qubits [] in
        expect_sym s ';';
        loop
          ({ b_name = name; b_params = []; b_param_toks = param_toks; b_qubits = qs }
          :: acc)
    | t -> fail "unexpected %s in gate body" (token_to_string t)
  in
  loop []

let parse_program src =
  let s = { toks = lex src } in
  let ctx = { stream = s; qregs = []; n_qubits = 0; defs = []; rev_ops = [] } in
  let rec stmt () =
    match peek s with
    | Eof -> ()
    | Id "OPENQASM" ->
        ignore (next s);
        (match next s with Number _ -> () | t -> fail "expected version, got %s" (token_to_string t));
        expect_sym s ';';
        stmt ()
    | Id "include" ->
        ignore (next s);
        (match next s with
        | String_lit _ -> ()
        | t -> fail "expected include path, got %s" (token_to_string t));
        expect_sym s ';';
        stmt ()
    | Id "qreg" ->
        ignore (next s);
        let name = expect_id s in
        expect_sym s '[';
        let size =
          match next s with
          | Number f -> int_of_float f
          | t -> fail "expected size, got %s" (token_to_string t)
        in
        expect_sym s ']';
        expect_sym s ';';
        ctx.qregs <- ctx.qregs @ [ (name, (ctx.n_qubits, size)) ];
        ctx.n_qubits <- ctx.n_qubits + size;
        stmt ()
    | Id "creg" ->
        ignore (next s);
        let _ = expect_id s in
        expect_sym s '[';
        (match next s with Number _ -> () | t -> fail "expected size, got %s" (token_to_string t));
        expect_sym s ']';
        expect_sym s ';';
        stmt ()
    | Id "gate" ->
        ignore (next s);
        let name = expect_id s in
        let params =
          if accept_sym s '(' then begin
            if accept_sym s ')' then []
            else
              let rec loop acc =
                let p = expect_id s in
                if accept_sym s ',' then loop (p :: acc)
                else begin
                  expect_sym s ')';
                  List.rev (p :: acc)
                end
              in
              loop []
          end
          else []
        in
        let rec qubits acc =
          let q = expect_id s in
          if accept_sym s ',' then qubits (q :: acc) else List.rev (q :: acc)
        in
        let qs = qubits [] in
        let body = parse_gate_body s in
        ctx.defs <- (name, { d_params = params; d_qubits = qs; d_body = body }) :: ctx.defs;
        stmt ()
    | Id "measure" ->
        ignore (next s);
        let _ = parse_qarg s in
        (match next s with
        | Arrow -> ()
        | t -> fail "expected '->', got %s" (token_to_string t));
        let _ = parse_qarg s in
        expect_sym s ';';
        stmt ()
    | Id "barrier" ->
        ignore (next s);
        let rec args () =
          let _ = parse_qarg s in
          if accept_sym s ',' then args ()
        in
        args ();
        expect_sym s ';';
        stmt ()
    | Id "if" -> fail "classical control ('if') is not supported"
    | Id "reset" -> fail "'reset' is not supported"
    | Id "opaque" ->
        (* skip to ';' *)
        let rec skip () =
          match next s with Sym ';' -> () | Eof -> fail "unterminated opaque" | _ -> skip ()
        in
        skip ();
        stmt ()
    | Id name ->
        ignore (next s);
        let param_toks = parse_param_list s in
        let params = List.map (fun toks -> eval_tokens toks []) param_toks in
        let rec qargs acc =
          let q = parse_qarg s in
          if accept_sym s ',' then qargs (q :: acc) else List.rev (q :: acc)
        in
        let args = qargs [] in
        expect_sym s ';';
        apply_gate_stmt ctx name params args;
        stmt ()
    | t -> fail "unexpected %s at top level" (token_to_string t)
  in
  stmt ();
  ignore ctx.stream;
  if ctx.n_qubits = 0 then fail "program declares no qubits";
  Circuit.of_ops ctx.n_qubits (List.rev ctx.rev_ops)

let of_string = parse_program

let of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  of_string src

(* --- writer ------------------------------------------------------------ *)

(* Emit a circuit back as OpenQASM 2.0; VUG/grouped [Unitary] gates cannot
   be expressed and raise. *)
let to_string_qasm (c : Circuit.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" (Circuit.n_qubits c));
  List.iter
    (fun (op : Circuit.op) ->
      let name =
        match op.Circuit.gate with
        | Gate.Unitary _ ->
            fail "cannot serialize opaque unitary gate to QASM"
        | g -> Gate.name g
      in
      let params =
        match Gate.params op.Circuit.gate with
        | [] -> ""
        | ps -> "(" ^ String.concat "," (List.map (Printf.sprintf "%.17g") ps) ^ ")"
      in
      let qs =
        String.concat "," (List.map (Printf.sprintf "q[%d]") op.Circuit.qubits)
      in
      Buffer.add_string buf (Printf.sprintf "%s%s %s;\n" name params qs))
    (Circuit.ops c);
  Buffer.contents buf
